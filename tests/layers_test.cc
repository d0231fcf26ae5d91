// Layer and encoder tests: shapes, determinism, gradient flow through the
// full transformer, a batch of sequences through the one encode path
// (isolation, truncation, an optimizer step, concurrent inference on a
// shared encoder — this test is on the check.sh --tsan list), the fused
// attention op's padded planes and edge cases, NoGradScope forwards against
// taped ones (values and the DMLM teacher's effect on gradients), and
// checkpoint round-trips.
#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "nn/checkpoint.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace kglink::nn {
namespace {

EncoderConfig SmallConfig(int vocab = 50) {
  EncoderConfig c;
  c.vocab_size = vocab;
  c.max_seq_len = 32;
  c.dim = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.ffn_dim = 24;
  c.dropout = 0.0f;
  return c;
}

std::vector<int> TokenSeq(int len, int offset = 0) {
  std::vector<int> t(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) t[static_cast<size_t>(i)] = (offset + i * 3) % 50;
  return t;
}

TEST(LinearTest, ShapeAndBias) {
  Rng rng(1);
  Linear lin(3, 5, rng, "t");
  Tensor x = Tensor::Zeros({2, 3});
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 5);
  // Zero input -> bias (zero-initialized).
  for (float v : y.data()) EXPECT_EQ(v, 0.0f);
}

TEST(LayerNormLayerTest, NormalizesRows) {
  Rng rng(2);
  LayerNormLayer ln(8, "t");
  Tensor x = Tensor::Randn({4, 8}, 5.0f, rng);
  Tensor y = ln.Forward(x);
  for (int i = 0; i < 4; ++i) {
    float mean = 0, var = 0;
    for (int j = 0; j < 8; ++j) mean += y.data()[i * 8 + j];
    mean /= 8;
    for (int j = 0; j < 8; ++j) {
      float d = y.data()[i * 8 + j] - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(MultiHeadAttentionTest, PreservesShape) {
  Rng rng(3);
  MultiHeadAttention mha(16, 4, rng, "t");
  Tensor x = Tensor::Randn({7, 16}, 1.0f, rng);
  Tensor y = mha.Forward(x);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 16);
}

TEST(EncoderTest, OutputShapeAndDeterminism) {
  Rng init_rng(4);
  TransformerEncoder enc(SmallConfig(), init_rng);
  std::vector<int> tokens = {2, 5, 9, 13, 3};
  Rng r1(9);
  Rng r2(9);
  Tensor y1 = enc.Forward(tokens, r1, /*training=*/false);
  Tensor y2 = enc.Forward(tokens, r2, /*training=*/false);
  EXPECT_EQ(y1.rows(), 5);
  EXPECT_EQ(y1.cols(), 16);
  for (size_t i = 0; i < y1.data().size(); ++i) {
    EXPECT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(EncoderTest, PositionSensitivity) {
  Rng init_rng(5);
  TransformerEncoder enc(SmallConfig(), init_rng);
  Rng r(1);
  Tensor ab = enc.Forward({7, 8}, r, false);
  Tensor ba = enc.Forward({8, 7}, r, false);
  // Swapping tokens must change the representation (positions matter).
  float diff = 0;
  for (size_t i = 0; i < ab.data().size(); ++i) {
    diff += std::abs(ab.data()[i] - ba.data()[i]);
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(EncoderTest, GradientsReachAllParameters) {
  Rng init_rng(6);
  TransformerEncoder enc(SmallConfig(), init_rng);
  Rng r(2);
  Tensor y = enc.Forward({1, 2, 3, 4, 5, 6}, {0, 0, 0, 1, 1, 1}, r,
                         /*training=*/true);
  Mean(Mul(y, y)).Backward();
  for (auto& p : enc.Parameters()) {
    float sum = 0;
    for (float g : p.tensor.grad()) sum += std::abs(g);
    EXPECT_GT(sum, 0.0f) << "no gradient reached " << p.name;
  }
}

TEST(EncoderTest, SegmentIdsChangeTheEncoding) {
  Rng init_rng(12);
  TransformerEncoder enc(SmallConfig(), init_rng);
  Rng r(1);
  Tensor plain = enc.Forward({5, 6, 7}, r, false);
  Tensor seg0 = enc.Forward({5, 6, 7}, {0, 0, 0}, r, false);
  Tensor seg1 = enc.Forward({5, 6, 7}, {0, 1, 1}, r, false);
  // Empty segments != all-zero segments is allowed to differ only via the
  // segment-0 embedding; different segment assignments must differ.
  float diff = 0;
  for (size_t i = 0; i < seg0.data().size(); ++i) {
    diff += std::abs(seg0.data()[i] - seg1.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
  (void)plain;
}

TEST(EncoderTest, DropoutOnlyActiveInTraining) {
  EncoderConfig cfg = SmallConfig();
  cfg.dropout = 0.5f;
  Rng init_rng(7);
  TransformerEncoder enc(cfg, init_rng);
  Rng r1(3);
  Rng r2(4);
  Tensor e1 = enc.Forward({1, 2, 3}, r1, /*training=*/false);
  Tensor e2 = enc.Forward({1, 2, 3}, r2, /*training=*/false);
  for (size_t i = 0; i < e1.data().size(); ++i) {
    EXPECT_EQ(e1.data()[i], e2.data()[i]);
  }
  Rng r3(5);
  Rng r4(6);
  Tensor t1 = enc.Forward({1, 2, 3}, r3, /*training=*/true);
  Tensor t2 = enc.Forward({1, 2, 3}, r4, /*training=*/true);
  float diff = 0;
  for (size_t i = 0; i < t1.data().size(); ++i) {
    diff += std::abs(t1.data()[i] - t2.data()[i]);
  }
  EXPECT_GT(diff, 0.0f);
}

TEST(EncoderTest, TruncatesOverlongSequenceInsteadOfAborting) {
  Rng init_rng(8);
  EncoderConfig cfg = SmallConfig();
  cfg.max_seq_len = 4;
  TransformerEncoder enc(cfg, init_rng);
  auto& truncated =
      obs::MetricsRegistry::Global().GetCounter("encode.truncated");
  int64_t before = truncated.value();

  Rng r(1);
  Tensor full = enc.Forward({1, 2, 3, 4, 5}, r, false);
  EXPECT_EQ(full.rows(), 4);
  EXPECT_EQ(truncated.value(), before + 1);

  // The truncated forward matches encoding the clipped prefix directly.
  Rng r2(1);
  Tensor prefix = enc.Forward({1, 2, 3, 4}, r2, false);
  ASSERT_EQ(full.numel(), prefix.numel());
  for (int64_t i = 0; i < full.numel(); ++i) {
    EXPECT_EQ(full.data()[static_cast<size_t>(i)],
              prefix.data()[static_cast<size_t>(i)]);
  }
}

// ----- a batch of sequences through the one encode path ---------------
//
// Several sequences go through Forward one at a time. Each must come out
// exactly as if encoded alone, whatever it is encoded next to, across an
// optimizer step and under concurrent callers. MaskedAttention keeps its
// padded multi-sequence signature, so its planes must reproduce the
// per-sequence attention MultiHeadAttention::Forward runs, bit for bit.

TEST(EncoderBatchTest, CachedPositionSliceSeesInPlaceParamUpdates) {
  // The encoder caches position *ids*, not an embedding activation. If it
  // cached the activation, an in-place pos_emb update (what AdamW does
  // every step) would leave forwards reading stale values. Perturb the
  // table directly and require the forward to move.
  Rng init(32);
  TransformerEncoder enc(SmallConfig(), init);
  Rng r1(5);
  Tensor before = enc.Forward(TokenSeq(6), r1, false);

  bool found = false;
  for (auto& p : enc.Parameters()) {
    if (p.name.find("pos_emb") != std::string::npos) {
      // Index-varying perturbation: a constant shift would mostly vanish
      // into the embedding LayerNorm and prove nothing.
      size_t i = 0;
      for (float& x : p.tensor.data()) {
        x += 0.1f * static_cast<float>(i++ % 7);
      }
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no pos_emb parameter exposed";

  Rng r2(5);
  Tensor after = enc.Forward(TokenSeq(6), r2, false);
  float diff = 0;
  for (size_t i = 0; i < before.data().size(); ++i) {
    diff += std::abs(after.data()[i] - before.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(EncoderBatchTest, ConcurrentBatchedForwardsAreDeterministic) {
  // The serving workers share one encoder and each run inference on it:
  // threads encoding the same batch of sequences, one Forward at a time,
  // must neither race (TSan) nor perturb each other.
  Rng init(41);
  TransformerEncoder enc(SmallConfig(), init);
  const std::vector<std::vector<int>> sequences = {
      TokenSeq(5), TokenSeq(12, 9), TokenSeq(7, 19)};
  std::vector<Tensor> expected;
  for (const auto& seq : sequences) {
    Rng rng(7);
    expected.push_back(enc.Forward(seq, rng, false));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<Tensor>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& seq : sequences) {
        Rng rng(7);
        results[static_cast<size_t>(t)].push_back(
            enc.Forward(seq, rng, false));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[static_cast<size_t>(t)].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(results[static_cast<size_t>(t)][i].data(),
                expected[i].data())
          << "thread " << t << " sequence " << i;
    }
  }
}

// Packs `lens.size()` sequences into padded q/k/v planes (the padded rows
// hold random values the op must never read), runs one MaskedAttention
// over the planes and checks each sequence's valid rows bit-equal to
// MaskedAttention over that sequence alone — the call
// MultiHeadAttention::Forward makes — and its padded rows exactly zero.
void ExpectPaddedAttentionMatchesSequential(const std::vector<int>& lens,
                                            int pad, uint64_t seed) {
  constexpr int kDim = 16;
  constexpr int kHeads = 2;
  const float scale = 1.0f / std::sqrt(static_cast<float>(kDim / kHeads));
  const int total = static_cast<int>(lens.size()) * pad;
  Rng rng(seed);
  Tensor q = Tensor::Randn({total, kDim}, 1.0f, rng);
  Tensor k = Tensor::Randn({total, kDim}, 1.0f, rng);
  Tensor v = Tensor::Randn({total, kDim}, 1.0f, rng);
  Tensor padded = MaskedAttention(q, k, v, kHeads, scale, lens, pad);
  ASSERT_EQ(padded.rows(), total);

  auto valid_rows = [&](const Tensor& t, size_t b, int len) {
    auto first = t.data().begin() + static_cast<std::ptrdiff_t>(
                                        static_cast<size_t>(b) * pad * kDim);
    return Tensor::FromData({len, kDim},
                            std::vector<float>(first, first + len * kDim));
  };
  for (size_t b = 0; b < lens.size(); ++b) {
    const int len = lens[b];
    Tensor alone = MaskedAttention(valid_rows(q, b, len), valid_rows(k, b, len),
                                   valid_rows(v, b, len), kHeads, scale, {len},
                                   len);
    const size_t base = b * static_cast<size_t>(pad) * kDim;
    for (size_t j = 0; j < alone.data().size(); ++j) {
      ASSERT_EQ(padded.data()[base + j], alone.data()[j])
          << "sequence " << b << " element " << j;
    }
    for (size_t j = alone.data().size();
         j < static_cast<size_t>(pad) * kDim; ++j) {
      ASSERT_EQ(padded.data()[base + j], 0.0f)
          << "sequence " << b << " padded element " << j;
    }
  }
}

TEST(EncoderBatchTest, MixedLengthsMatchSequentialBitExact) {
  ExpectPaddedAttentionMatchesSequential({5, 12, 3, 9}, 12, 11);
}

TEST(EncoderBatchTest, SingleElementBatchMatchesSequential) {
  // One sequence in planes padded past its length.
  ExpectPaddedAttentionMatchesSequential({7}, 10, 12);
}

TEST(EncoderBatchTest, LengthOneSequencesNextToLongOnes) {
  // The L=1 members softmax over a single key (probability exactly 1)
  // while sharing the padded planes with a much longer member.
  ExpectPaddedAttentionMatchesSequential({1, 16, 1}, 16, 13);
}

TEST(EncoderBatchTest, UniformLengthsNoPaddingMatchSequential) {
  // pad_len == every length: no padded row exists anywhere.
  ExpectPaddedAttentionMatchesSequential({8, 8, 8}, 8, 14);
}

TEST(EncoderBatchTest, SegmentsMatchSequentialBitExact) {
  // Segment-bearing sequences encoded back to back on one encoder match
  // the same sequences encoded in the opposite order on a second encoder
  // with identical weights: no position or segment state carries from one
  // Forward call to the next.
  Rng init_a(15);
  Rng init_b(15);
  TransformerEncoder enc_a(SmallConfig(), init_a);
  TransformerEncoder enc_b(SmallConfig(), init_b);
  const std::vector<std::vector<int>> sequences = {TokenSeq(6),
                                                   TokenSeq(10, 8)};
  const std::vector<std::vector<int>> segments = {
      {0, 0, 0, 1, 1, 1}, {0, 0, 1, 1, 1, 1, 1, 1, 1, 1}};
  std::vector<Tensor> forward(sequences.size());
  std::vector<Tensor> reverse(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    Rng rng(7);
    forward[i] = enc_a.Forward(sequences[i], segments[i], rng, false);
  }
  for (size_t i = sequences.size(); i-- > 0;) {
    Rng rng(7);
    reverse[i] = enc_b.Forward(sequences[i], segments[i], rng, false);
  }
  for (size_t i = 0; i < sequences.size(); ++i) {
    ASSERT_EQ(forward[i].rows(), static_cast<int>(sequences[i].size()));
    EXPECT_EQ(forward[i].data(), reverse[i].data()) << "sequence " << i;
  }
}

TEST(EncoderBatchTest, OverlongMemberTruncatesInsideBatch) {
  // An overlong sequence between two short ones: only it is clipped (one
  // encode.truncated tick for the whole batch), it equals the clipped
  // prefix encoded directly, and its neighbours are untouched.
  Rng init(16);
  EncoderConfig cfg = SmallConfig();
  cfg.max_seq_len = 8;
  TransformerEncoder enc(cfg, init);
  auto& truncated =
      obs::MetricsRegistry::Global().GetCounter("encode.truncated");

  const std::vector<std::vector<int>> sequences = {TokenSeq(4, 6),
                                                   TokenSeq(12), TokenSeq(3, 2)};
  std::vector<Tensor> alone;
  for (const auto& seq : {sequences[0], TokenSeq(8), sequences[2]}) {
    Rng rng(7);
    alone.push_back(enc.Forward(seq, rng, false));
  }

  const int64_t before = truncated.value();
  std::vector<Tensor> batch;
  for (const auto& seq : sequences) {
    Rng rng(7);
    batch.push_back(enc.Forward(seq, rng, false));
  }
  EXPECT_EQ(truncated.value(), before + 1);
  EXPECT_EQ(batch[0].rows(), 4);
  EXPECT_EQ(batch[1].rows(), 8);
  EXPECT_EQ(batch[2].rows(), 3);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].data(), alone[i].data()) << "sequence " << i;
  }
}

TEST(EncoderBatchTest, BatchedTrainingGradientsReachAllParameters) {
  // One loss summed over a batch of training forwards, as a training step
  // sums its tables' losses. Only the second sequence carries segments, so
  // the segment table is reached through it alone.
  Rng init(31);
  TransformerEncoder enc(SmallConfig(), init);
  Rng rng(3);
  Tensor h0 = enc.Forward(TokenSeq(5), rng, /*training=*/true);
  Tensor h1 = enc.Forward(TokenSeq(9, 7), {0, 0, 0, 0, 1, 1, 1, 1, 1}, rng,
                          /*training=*/true);
  Add(Mean(Mul(h0, h0)), Mean(Mul(h1, h1))).Backward();
  for (auto& p : enc.Parameters()) {
    float sum = 0;
    for (float g : p.tensor.grad()) sum += std::abs(g);
    EXPECT_GT(sum, 0.0f) << "no gradient reached " << p.name;
  }
}

TEST(EncoderBatchTest, TrainStepThenForwardStaysConsistent) {
  // A full optimizer step between forwards: gradients from a batch loss
  // drive AdamW, and the next forwards must see the updated tables (no
  // aliasing between the cached position ids and the updated embeddings)
  // and stay deterministic in either batch order.
  Rng init(33);
  TransformerEncoder enc(SmallConfig(), init);
  AdamW optimizer(enc.Parameters(), {});
  const std::vector<std::vector<int>> sequences = {TokenSeq(4),
                                                   TokenSeq(11, 13)};
  auto encode = [&](size_t i) {
    Rng rng(9);
    return enc.Forward(sequences[i], rng, false);
  };
  const Tensor stale = encode(0);

  Rng rng(9);
  optimizer.ZeroGrad();
  Tensor h0 = enc.Forward(sequences[0], rng, /*training=*/true);
  Tensor h1 = enc.Forward(sequences[1], rng, /*training=*/true);
  Add(Mean(Mul(h0, h0)), Mean(Mul(h1, h1))).Backward();
  optimizer.Step();

  const Tensor first0 = encode(0);
  const Tensor first1 = encode(1);
  const Tensor second1 = encode(1);
  const Tensor second0 = encode(0);
  EXPECT_EQ(first0.data(), second0.data());
  EXPECT_EQ(first1.data(), second1.data());
  float diff = 0;
  for (size_t i = 0; i < stale.data().size(); ++i) {
    diff += std::abs(first0.data()[i] - stale.data()[i]);
  }
  EXPECT_GT(diff, 1e-6f) << "forward did not see the optimizer step";
}

// ----- MaskedAttention edge cases ---------------------------------------

TEST(MaskedAttentionTest, PaddedQueryRowsAreExactlyZero) {
  Rng rng(21);
  const int pad = 5;
  const int dim = 8;
  const std::vector<int> lens = {2, 1, 5};
  const int total = static_cast<int>(lens.size()) * pad;
  Tensor q = Tensor::Randn({total, dim}, 1.0f, rng);
  Tensor k = Tensor::Randn({total, dim}, 1.0f, rng);
  Tensor v = Tensor::Randn({total, dim}, 1.0f, rng);
  Tensor o = MaskedAttention(q, k, v, /*num_heads=*/2,
                             1.0f / std::sqrt(4.0f), lens, pad);
  ASSERT_EQ(o.rows(), total);
  for (size_t b = 0; b < lens.size(); ++b) {
    for (int r = lens[b]; r < pad; ++r) {
      for (int c = 0; c < dim; ++c) {
        EXPECT_EQ(o.data()[static_cast<size_t>(
                      (static_cast<int>(b) * pad + r) * dim + c)],
                  0.0f)
            << "sequence " << b << " padded row " << r;
      }
    }
  }
}

TEST(MaskedAttentionTest, FusedMatchesComposedPipelineBitExact) {
  // One unpadded sequence: the fused op must reproduce the composed
  // SliceCols/MatMul/Scale/Softmax/MatMul/ConcatCols pipeline bit for bit.
  Rng rng(22);
  const int L = 7;
  const int dim = 8;
  const int heads = 2;
  const int hd = dim / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  Tensor q = Tensor::Randn({L, dim}, 1.0f, rng);
  Tensor k = Tensor::Randn({L, dim}, 1.0f, rng);
  Tensor v = Tensor::Randn({L, dim}, 1.0f, rng);

  Tensor fused = MaskedAttention(q, k, v, heads, scale, {L}, L);

  std::vector<Tensor> head_outs;
  for (int h = 0; h < heads; ++h) {
    Tensor qh = SliceCols(q, h * hd, hd);
    Tensor kh = SliceCols(k, h * hd, hd);
    Tensor vh = SliceCols(v, h * hd, hd);
    Tensor probs = Softmax(Scale(MatMul(qh, Transpose(kh)), scale));
    head_outs.push_back(MatMul(probs, vh));
  }
  Tensor composed = ConcatCols(head_outs);

  ASSERT_EQ(fused.numel(), composed.numel());
  for (size_t i = 0; i < composed.data().size(); ++i) {
    EXPECT_EQ(fused.data()[i], composed.data()[i]) << "element " << i;
  }
}

TEST(MaskedAttentionTest, SingleValidRowAttendsOnlyToItself) {
  // Fully-padded remainder with one valid row: softmax over one key is
  // exactly 1, so the output row equals that row of V.
  Rng rng(23);
  const int pad = 4;
  const int dim = 8;
  Tensor q = Tensor::Randn({pad, dim}, 1.0f, rng);
  Tensor k = Tensor::Randn({pad, dim}, 1.0f, rng);
  Tensor v = Tensor::Randn({pad, dim}, 1.0f, rng);
  Tensor o = MaskedAttention(q, k, v, /*num_heads=*/2,
                             1.0f / std::sqrt(4.0f), {1}, pad);
  for (int c = 0; c < dim; ++c) {
    EXPECT_EQ(o.data()[static_cast<size_t>(c)],
              v.data()[static_cast<size_t>(c)])
        << "col " << c;
  }
}

// ----- NoGradScope through the encoder -----

// dim 20 is not a multiple of 8, so every LayerNorm row ends in a scalar
// tail; head width 5 does the same to attention.
EncoderConfig OddWidthConfig() {
  EncoderConfig c;
  c.vocab_size = 50;
  c.max_seq_len = 192;
  c.dim = 20;
  c.num_heads = 4;
  c.num_layers = 2;
  c.ffn_dim = 36;
  c.dropout = 0.1f;
  return c;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// A scoped forward returns exactly the taped forward's values. The lengths
// run up to the encoder capacity and back down, so the per-thread attention
// scratch both grows and shrinks between calls. Training forwards draw the
// same dropout masks scoped or not.
TEST(NoGradEncoderTest, ScopedForwardIsBitwiseEqualToTaped) {
  Rng init(5);
  TransformerEncoder enc(OddWidthConfig(), init);
  for (int len : {1, 7, 14, 72, 192, 14}) {
    for (bool training : {false, true}) {
      const std::vector<int> tokens = TokenSeq(len, len);
      Rng taped_rng(9);
      Tensor taped = enc.Forward(tokens, taped_rng, training);
      ASSERT_TRUE(taped.requires_grad());
      Rng scoped_rng(9);
      Tensor scoped;
      {
        NoGradScope no_grad;
        scoped = enc.Forward(tokens, scoped_rng, training);
      }
      EXPECT_FALSE(scoped.requires_grad());
      EXPECT_TRUE(scoped.impl()->parents.empty());
      EXPECT_TRUE(BitwiseEqual(taped.data(), scoped.data()))
          << "len " << len << " training " << training;
    }
  }
}

// The DMLM step as KgLinkAnnotator runs it: a taped student encode of the
// masked sequence, a teacher encode of the ground-truth one, both projected
// to the vocabulary, and DmlmLoss detaching the teacher. Running the
// teacher under a scope leaves every parameter gradient bit-identical.
TEST(NoGradEncoderTest, ScopedTeacherLeavesDmlmGradientsBitIdentical) {
  auto gradients = [](bool scoped_teacher) {
    Rng init(7);
    TransformerEncoder enc(OddWidthConfig(), init);
    Linear proj(20, 50, init, "proj");
    std::vector<NamedParam> params = enc.Parameters();
    proj.CollectParams(&params);
    Rng rng(3);
    Tensor student = enc.Forward(TokenSeq(12), rng, /*training=*/true);
    Tensor teacher_logits;
    {
      std::optional<NoGradScope> no_grad;
      if (scoped_teacher) no_grad.emplace();
      Tensor teacher = enc.Forward(TokenSeq(12, 1), rng, /*training=*/false);
      teacher_logits = proj.Forward(Rows(teacher, {2, 5, 9}));
    }
    EXPECT_EQ(teacher_logits.requires_grad(), !scoped_teacher);
    Tensor loss = DmlmLoss(proj.Forward(Rows(student, {2, 5, 9})),
                           teacher_logits, 2.0f);
    loss.Backward();
    std::vector<std::vector<float>> out;
    for (NamedParam& p : params) out.push_back(p.tensor.grad());
    return out;
  };
  const auto taped = gradients(false);
  const auto scoped = gradients(true);
  ASSERT_EQ(taped.size(), scoped.size());
  for (size_t i = 0; i < taped.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(taped[i], scoped[i])) << "parameter " << i;
  }
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "kglink_ckpt_test.bin")
          .string();
  Rng rng(9);
  TransformerEncoder enc_a(SmallConfig(), rng);
  TransformerEncoder enc_b(SmallConfig(), rng);  // different init
  ASSERT_TRUE(SaveTensors(path, enc_a.Parameters()).ok());
  auto params_b = enc_b.Parameters();
  ASSERT_TRUE(LoadTensors(path, &params_b).ok());
  Rng r1(1);
  Rng r2(1);
  Tensor ya = enc_a.Forward({1, 2, 3}, r1, false);
  Tensor yb = enc_b.Forward({1, 2, 3}, r2, false);
  for (size_t i = 0; i < ya.data().size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  std::string path =
      (std::filesystem::temp_directory_path() / "kglink_ckpt_test2.bin")
          .string();
  Rng rng(10);
  TransformerEncoder small(SmallConfig(), rng);
  ASSERT_TRUE(SaveTensors(path, small.Parameters()).ok());
  EncoderConfig big = SmallConfig();
  big.dim = 32;
  big.ffn_dim = 48;
  TransformerEncoder other(big, rng);
  auto params = other.Parameters();
  EXPECT_FALSE(LoadTensors(path, &params).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIoError) {
  Rng rng(11);
  TransformerEncoder enc(SmallConfig(), rng);
  auto params = enc.Parameters();
  Status s = LoadTensors("/nonexistent/kglink.bin", &params);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kglink::nn

// Tensor-library tests: forward-op correctness against hand-computed
// values, and finite-difference gradient checks for every differentiable
// op (the backbone guarantee behind every training result in the repo),
// and NoGradScope's no-tape contract.
#include "nn/tensor.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numbers>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace kglink::nn {
namespace {

// Central-difference gradient check: builds the graph twice per element.
// `make_loss` must construct a scalar loss from the given leaf tensors.
void GradCheck(
    std::vector<Tensor> leaves,
    const std::function<Tensor(const std::vector<Tensor>&)>& make_loss,
    float eps = 1e-2f, float tol = 2e-2f) {
  Tensor loss = make_loss(leaves);
  ASSERT_EQ(loss.numel(), 1);
  loss.Backward();

  for (size_t li = 0; li < leaves.size(); ++li) {
    Tensor& leaf = leaves[li];
    const std::vector<float> analytic = leaf.grad();
    for (size_t i = 0; i < leaf.data().size(); ++i) {
      float orig = leaf.data()[i];
      leaf.data()[i] = orig + eps;
      float up = make_loss(leaves).item();
      leaf.data()[i] = orig - eps;
      float down = make_loss(leaves).item();
      leaf.data()[i] = orig;
      float numeric = (up - down) / (2 * eps);
      float diff = std::abs(analytic[i] - numeric);
      float scale = std::max({1.0f, std::abs(analytic[i]),
                              std::abs(numeric)});
      EXPECT_LE(diff / scale, tol)
          << "leaf " << li << " element " << i << ": analytic "
          << analytic[i] << " vs numeric " << numeric;
    }
  }
}

Tensor RandLeaf(std::vector<int> shape, Rng& rng, float scale = 1.0f) {
  return Tensor::Randn(std::move(shape), scale, rng, /*requires_grad=*/true);
}

TEST(TensorTest, FactoryShapesAndValues) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::Full({4}, 2.5f);
  EXPECT_EQ(f.rows(), 1);
  EXPECT_EQ(f.cols(), 4);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor s = Tensor::Scalar(3.0f);
  EXPECT_EQ(s.item(), 3.0f);
}

TEST(TensorTest, MatMulForward) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.data()[0], 58);
  EXPECT_FLOAT_EQ(c.data()[1], 64);
  EXPECT_FLOAT_EQ(c.data()[2], 139);
  EXPECT_FLOAT_EQ(c.data()[3], 154);
}

TEST(TensorTest, AddBroadcastsRowVector) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({1, 2}, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.data()[0], 11);
  EXPECT_FLOAT_EQ(c.data()[1], 22);
  EXPECT_FLOAT_EQ(c.data()[2], 13);
  EXPECT_FLOAT_EQ(c.data()[3], 24);
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Tensor x = RandLeaf({5, 7}, rng, 3.0f);
  Tensor y = Softmax(x);
  for (int i = 0; i < 5; ++i) {
    float sum = 0;
    for (int j = 0; j < 7; ++j) sum += y.data()[i * 7 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, SoftmaxIsShiftInvariant) {
  Tensor a = Tensor::FromData({1, 3}, {1, 2, 3});
  Tensor b = Tensor::FromData({1, 3}, {1001, 1002, 1003});
  Tensor ya = Softmax(a);
  Tensor yb = Softmax(b);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(ya.data()[i], yb.data()[i], 1e-5f);
  }
}

TEST(TensorTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(2);
  Tensor x = RandLeaf({3, 4}, rng, 2.0f);
  Tensor ls = LogSoftmax(x);
  Tensor sm = Softmax(x);
  for (size_t i = 0; i < ls.data().size(); ++i) {
    EXPECT_NEAR(ls.data()[i], std::log(sm.data()[i]), 1e-5f);
  }
}

// RowSoftmaxScaled runs 8-wide AVX2 lanes and then a scalar tail with the
// same op sequence: an input at a lane index (3) and one at a tail index
// (16) of a width-17 row must come out bit-equal.
TEST(TensorTest, SoftmaxLaneAndTailAgreeBitwise) {
  Rng rng(3);
  for (float probe : {-4.0f, -0.37f, 0.0f, 1.25f, 6.5f}) {
    Tensor x = Tensor::Randn({1, 17}, 2.0f, rng);
    x.data()[3] = probe;
    x.data()[16] = probe;
    Tensor y = Softmax(x);
    EXPECT_EQ(std::bit_cast<uint32_t>(y.data()[3]),
              std::bit_cast<uint32_t>(y.data()[16]))
        << "probe " << probe;
  }
}

// Double-precision tanh-form GELU and its derivative: the reference nn::Gelu
// is held to.
double GeluReference(double x) {
  const double c = std::sqrt(2.0 / std::numbers::pi);
  return 0.5 * x * (1.0 + std::tanh(c * (x + 0.044715 * x * x * x)));
}

double GeluGradReference(double x) {
  const double c = std::sqrt(2.0 / std::numbers::pi);
  const double t = std::tanh(c * (x + 0.044715 * x * x * x));
  return 0.5 * (1.0 + t) +
         0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x);
}

// Dense grid on [-30, 30]: forward within 1e-6·max(1, |x|) of the tanh
// form, gradient within 2e-6·max(1, |x|).
TEST(TensorTest, GeluMatchesTanhReference) {
  constexpr int kSteps = 60000;
  std::vector<float> xs(kSteps + 1);
  for (int i = 0; i <= kSteps; ++i) {
    xs[i] = -30.0f + 60.0f * static_cast<float>(i) / kSteps;
  }
  Tensor x = Tensor::FromData({1, kSteps + 1}, xs, /*requires_grad=*/true);
  Tensor y = Gelu(x);
  Sum(y).Backward();
  double worst = 0.0, worst_grad = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double xi = xs[i];
    const double scale = std::max(1.0, std::abs(xi));
    worst = std::max(worst, std::abs(y.data()[i] - GeluReference(xi)) / scale);
    worst_grad = std::max(
        worst_grad, std::abs(x.grad()[i] - GeluGradReference(xi)) / scale);
  }
  EXPECT_LE(worst, 1e-6);
  EXPECT_LE(worst_grad, 2e-6);
}

// Saturating inputs stay finite: gelu(x) -> x for large positive x and
// -> 0 for large negative x, including |x| where x³ overflows float. The
// six values appear twice in a width-12 row, so each reaches an AVX2 lane
// and the last four also the scalar tail.
TEST(TensorTest, GeluSaturatesFinite) {
  std::vector<float> xs;
  for (int copy = 0; copy < 2; ++copy) {
    for (float b : {1e4f, 1e13f, 1e20f}) {
      xs.push_back(b);
      xs.push_back(-b);
    }
  }
  Tensor x = Tensor::FromData({1, static_cast<int>(xs.size())}, xs,
                              /*requires_grad=*/true);
  Tensor y = Gelu(x);
  Sum(y).Backward();
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(std::isfinite(y.data()[i])) << "x " << xs[i];
    if (xs[i] > 0) {
      EXPECT_EQ(y.data()[i], xs[i]);
    } else {
      EXPECT_LE(std::abs(y.data()[i]), 1e-12f) << "x " << xs[i];
    }
  }
  // The gradient saturates to 1 and 0 as well.
  EXPECT_EQ(x.grad()[0], 1.0f);
  EXPECT_LE(std::abs(x.grad()[1]), 1e-12f);
}

// Gelu runs 8-wide AVX2 lanes and then a scalar tail with the same op
// sequence: an input at a lane index (2) and one at a tail index (10) of a
// width-13 row get bit-equal values and gradients.
TEST(TensorTest, GeluLaneAndTailAgreeBitwise) {
  Rng rng(4);
  for (int k = 0; k <= 400; ++k) {
    const float probe = -12.0f + 0.06f * static_cast<float>(k) + 0.001f;
    Tensor x = RandLeaf({1, 13}, rng, 3.0f);
    x.data()[2] = probe;
    x.data()[10] = probe;
    Tensor y = Gelu(x);
    Sum(y).Backward();
    EXPECT_EQ(std::bit_cast<uint32_t>(y.data()[2]),
              std::bit_cast<uint32_t>(y.data()[10]))
        << "probe " << probe;
    EXPECT_EQ(std::bit_cast<uint32_t>(x.grad()[2]),
              std::bit_cast<uint32_t>(x.grad()[10]))
        << "probe " << probe;
  }
}

// Double-precision LayerNorm of one row (eps 1e-5) and its gradient for
// the loss sum_j w[j]·y[j]: the reference nn::LayerNorm is held to.
struct LayerNormRef {
  std::vector<double> y, dx, dgamma, dbeta;
};

LayerNormRef LayerNormReference(const float* x, const float* gamma,
                                const float* beta, const float* w, int n) {
  double mean = 0.0;
  for (int j = 0; j < n; ++j) mean += x[j];
  mean /= n;
  double var = 0.0;
  for (int j = 0; j < n; ++j) var += (x[j] - mean) * (x[j] - mean);
  var /= n;
  const double is = 1.0 / std::sqrt(var + 1e-5);
  LayerNormRef r;
  std::vector<double> xhat(n), dxh(n);
  double mean_dxh = 0.0, mean_dxh_xhat = 0.0;
  for (int j = 0; j < n; ++j) {
    xhat[j] = (x[j] - mean) * is;
    r.y.push_back(gamma[j] * xhat[j] + beta[j]);
    r.dgamma.push_back(w[j] * xhat[j]);
    r.dbeta.push_back(w[j]);
    dxh[j] = static_cast<double>(w[j]) * gamma[j];
    mean_dxh += dxh[j] / n;
    mean_dxh_xhat += dxh[j] * xhat[j] / n;
  }
  for (int j = 0; j < n; ++j) {
    r.dx.push_back(is * (dxh[j] - mean_dxh - xhat[j] * mean_dxh_xhat));
  }
  return r;
}

// Forward and all three gradients within 1e-6·max(1, |reference|) of the
// double-precision form, on widths that are below, at and above one 8-lane
// block, with and without a tail. Rows carry an offset so the mean matters.
TEST(TensorTest, LayerNormMatchesDoubleReference) {
  Rng rng(31);
  for (int n : {1, 7, 8, 13, 48, 64}) {
    constexpr int kRows = 4;
    Tensor x = RandLeaf({kRows, n}, rng, 2.0f);
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < n; ++j) x.data()[i * n + j] += 3.0f * (i - 1.5f);
    }
    Tensor gamma = RandLeaf({1, n}, rng);
    Tensor beta = RandLeaf({1, n}, rng);
    Tensor w = Tensor::Randn({kRows, n}, 1.0f, rng);
    Tensor y = LayerNorm(x, gamma, beta);
    Sum(Mul(y, w)).Backward();

    double worst = 0.0, worst_dx = 0.0, worst_dparam = 0.0;
    auto rel = [](double got, double want) {
      return std::abs(got - want) / std::max(1.0, std::abs(want));
    };
    std::vector<double> dgamma(n, 0.0), dbeta(n, 0.0);
    for (int i = 0; i < kRows; ++i) {
      LayerNormRef r = LayerNormReference(
          x.data().data() + i * n, gamma.data().data(), beta.data().data(),
          w.data().data() + i * n, n);
      for (int j = 0; j < n; ++j) {
        worst = std::max(worst, rel(y.data()[i * n + j], r.y[j]));
        worst_dx = std::max(worst_dx, rel(x.grad()[i * n + j], r.dx[j]));
        dgamma[j] += r.dgamma[j];
        dbeta[j] += r.dbeta[j];
      }
    }
    for (int j = 0; j < n; ++j) {
      worst_dparam = std::max(worst_dparam, rel(gamma.grad()[j], dgamma[j]));
      worst_dparam = std::max(worst_dparam, rel(beta.grad()[j], dbeta[j]));
    }
    EXPECT_LE(worst, 1e-6) << "width " << n;
    EXPECT_LE(worst_dx, 1e-6) << "width " << n;
    EXPECT_LE(worst_dparam, 1e-6) << "width " << n;
  }
}

// LayerNorm normalizes 8-wide AVX2 lanes and then a scalar tail with the
// same op sequence: equal inputs (and equal gamma, beta) at a lane index
// (2) and a tail index (10) of a width-13 row get bit-equal values and
// gradients.
TEST(TensorTest, LayerNormLaneAndTailAgreeBitwise) {
  Rng rng(5);
  for (int k = 0; k <= 200; ++k) {
    const float probe = -6.0f + 0.06f * static_cast<float>(k) + 0.001f;
    Tensor x = RandLeaf({2, 13}, rng, 2.0f);
    Tensor gamma = RandLeaf({1, 13}, rng);
    Tensor beta = RandLeaf({1, 13}, rng);
    for (int i = 0; i < 2; ++i) {
      x.data()[i * 13 + 2] = probe;
      x.data()[i * 13 + 10] = probe;
    }
    gamma.data()[10] = gamma.data()[2];
    beta.data()[10] = beta.data()[2];
    Tensor y = LayerNorm(x, gamma, beta);
    Sum(y).Backward();
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(y.data()[i * 13 + 2]),
                std::bit_cast<uint32_t>(y.data()[i * 13 + 10]))
          << "probe " << probe;
      EXPECT_EQ(std::bit_cast<uint32_t>(x.grad()[i * 13 + 2]),
                std::bit_cast<uint32_t>(x.grad()[i * 13 + 10]))
          << "probe " << probe;
    }
  }
}

// The row statistics are fixed 8-lane partial sums folded in one tree
// order, whatever the build: a float replay of that order gives the same
// bits as the op, so AVX2 and non-AVX2 builds agree.
TEST(TensorTest, LayerNormFollowsTheLaneOrder) {
  auto lane_sum = [](const std::vector<float>& v) {
    float a[8] = {};
    for (size_t j = 0; j < v.size(); ++j) a[j % 8] += v[j];
    return ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
  };
  Rng rng(6);
  for (int n : {1, 7, 8, 13, 48, 64}) {
    Tensor x = Tensor::Randn({1, n}, 3.0f, rng);
    Tensor gamma = Tensor::Randn({1, n}, 1.0f, rng);
    Tensor beta = Tensor::Randn({1, n}, 1.0f, rng);
    const std::vector<float>& xs = x.data();
    const float mean = lane_sum(xs) / n;
    std::vector<float> sq(n);
    for (int j = 0; j < n; ++j) sq[j] = (xs[j] - mean) * (xs[j] - mean);
    const float is = 1.0f / std::sqrt(lane_sum(sq) / n + 1e-5f);
    Tensor y = LayerNorm(x, gamma, beta);
    for (int j = 0; j < n; ++j) {
      // The op's TU is built -ffp-contract=off; the volatile keeps this
      // multiply-add from fusing into an FMA here too.
      volatile float scaled = gamma.data()[j] * ((xs[j] - mean) * is);
      const float want = scaled + beta.data()[j];
      EXPECT_EQ(std::bit_cast<uint32_t>(y.data()[j]),
                std::bit_cast<uint32_t>(want))
          << "width " << n << " index " << j;
    }
  }
}

// ----- NoGradScope -----

// Ops on requires_grad leaves, with and without a scope: unscoped they
// record the tape, scoped they return plain values.
std::vector<Tensor> OpsOnParameters(Rng& rng) {
  Tensor w = RandLeaf({4, 4}, rng);
  Tensor gamma = RandLeaf({1, 4}, rng);
  Tensor beta = RandLeaf({1, 4}, rng);
  return {MatMul(w, w),
          Add(w, beta),
          Gelu(w),
          Softmax(w),
          LayerNorm(w, gamma, beta),
          Dropout(w, 0.5f, rng, /*training=*/true),
          EmbeddingLookup(w, {3, 0}),
          Rows(w, {1}),
          ConcatCols({w, w}),
          ConcatRows({w, beta}),
          MeanRows(w),
          MaskedAttention(w, w, w, 2, 0.5f, {4}, 4),
          CrossEntropy(w, {0, 1, 2, 3})};
}

TEST(NoGradScopeTest, ScopedOpsRecordNoTape) {
  Rng rng(41);
  for (const Tensor& t : OpsOnParameters(rng)) {
    EXPECT_TRUE(t.requires_grad());
    EXPECT_FALSE(t.impl()->parents.empty());
    EXPECT_TRUE(static_cast<bool>(t.impl()->backward));
  }
  NoGradScope no_grad;
  int i = 0;
  for (const Tensor& t : OpsOnParameters(rng)) {
    EXPECT_FALSE(t.requires_grad()) << "op " << i;
    EXPECT_TRUE(t.impl()->parents.empty()) << "op " << i;
    EXPECT_FALSE(static_cast<bool>(t.impl()->backward)) << "op " << i;
    ++i;
  }
}

TEST(NoGradScopeTest, NestedScopesRestoreTheOuterState) {
  Tensor w = Tensor::Full({2, 2}, 1.5f, /*requires_grad=*/true);
  EXPECT_FALSE(NoGradScope::Active());
  {
    NoGradScope outer;
    {
      NoGradScope inner;
      EXPECT_TRUE(NoGradScope::Active());
      EXPECT_FALSE(Scale(w, 2.0f).requires_grad());
    }
    // Leaving the inner scope keeps the outer one in force.
    EXPECT_TRUE(NoGradScope::Active());
    EXPECT_FALSE(Scale(w, 2.0f).requires_grad());
  }
  EXPECT_FALSE(NoGradScope::Active());
  Tensor y = Scale(w, 2.0f);
  ASSERT_TRUE(y.requires_grad());
  Sum(y).Backward();
  EXPECT_EQ(w.grad()[0], 2.0f);
}

TEST(NoGradScopeTest, OtherThreadsKeepRecording) {
  Tensor w = Tensor::Full({2, 2}, 0.5f, /*requires_grad=*/true);
  NoGradScope no_grad;
  bool other_active = true;
  bool other_recorded = false;
  std::thread other([&] {
    other_active = NoGradScope::Active();
    Tensor y = MatMul(w, w);
    other_recorded = y.requires_grad() && !y.impl()->parents.empty();
    if (other_recorded) Sum(y).Backward();
  });
  other.join();
  EXPECT_FALSE(other_active);
  EXPECT_TRUE(other_recorded);
  // d/dw sum(w·w) with all entries 0.5: each entry gets 2·(2·0.5) = 2.
  EXPECT_EQ(w.grad()[0], 2.0f);
  EXPECT_TRUE(NoGradScope::Active());
  EXPECT_FALSE(MatMul(w, w).requires_grad());
}

TEST(TensorTest, TransposeRoundTrip) {
  Rng rng(3);
  Tensor x = RandLeaf({3, 5}, rng);
  Tensor tt = Transpose(Transpose(x));
  for (size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_EQ(x.data()[i], tt.data()[i]);
  }
}

TEST(TensorTest, DetachStopsGradients) {
  Tensor x = Tensor::FromData({2}, {1, 2}, /*requires_grad=*/true);
  Tensor d = Detach(x);
  EXPECT_FALSE(d.requires_grad());
  Tensor loss = Sum(Mul(Add(x, d), x));
  loss.Backward();
  // d(loss)/dx with d treated constant: 2x + d.
  EXPECT_NEAR(x.grad()[0], 2 * 1 + 1, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 2 * 2 + 2, 1e-5f);
}

TEST(TensorTest, GradientAccumulatesWhenReused) {
  Tensor x = Tensor::FromData({1}, {3}, /*requires_grad=*/true);
  Tensor loss = Sum(Add(x, x));  // d/dx = 2
  loss.Backward();
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-6f);
}

TEST(TensorTest, NoTapeWithoutRequiresGrad) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {1, 0, 0, 1});
  Tensor c = MatMul(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty());
}

TEST(TensorTest, EmbeddingLookupGathersAndScatters) {
  Tensor table = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6},
                                  /*requires_grad=*/true);
  Tensor out = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_FLOAT_EQ(out.data()[0], 5);
  EXPECT_FLOAT_EQ(out.data()[1], 6);
  EXPECT_FLOAT_EQ(out.data()[2], 1);
  Sum(out).Backward();
  // Row 2 used twice, row 0 once, row 1 never.
  EXPECT_FLOAT_EQ(table.grad()[0], 1);
  EXPECT_FLOAT_EQ(table.grad()[2], 0);
  EXPECT_FLOAT_EQ(table.grad()[4], 2);
}

TEST(TensorTest, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromData({1, 3}, {0.0f, 1.0f, 2.0f});
  Tensor loss = CrossEntropy(logits, {2});
  float z = std::exp(0.0f) + std::exp(1.0f) + std::exp(2.0f);
  EXPECT_NEAR(loss.item(), -std::log(std::exp(2.0f) / z), 1e-5f);
}

TEST(TensorTest, SoftCrossEntropyEqualsHardWhenOneHot) {
  Tensor logits = Tensor::FromData({2, 3}, {0.1f, 0.7f, -1.0f,  //
                                            2.0f, -0.5f, 0.3f});
  Tensor onehot = Tensor::FromData({2, 3}, {0, 1, 0, 1, 0, 0});
  Tensor hard = CrossEntropy(logits, {1, 0});
  Tensor soft = SoftCrossEntropy(logits, onehot);
  EXPECT_NEAR(hard.item(), soft.item(), 1e-5f);
}

TEST(TensorTest, CosineSimilarityOfParallelVectorsIsOne) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor b = Tensor::FromData({3}, {2, 4, 6});
  EXPECT_NEAR(CosineSimilarity(a, b).item(), 1.0f, 1e-4f);
}

// ----- gradient checks -----

TEST(TensorGradTest, MatMul) {
  Rng rng(10);
  GradCheck({RandLeaf({3, 4}, rng), RandLeaf({4, 2}, rng)},
            [](const std::vector<Tensor>& l) {
              return Mean(MatMul(l[0], l[1]));
            });
}

TEST(TensorGradTest, AddBroadcast) {
  Rng rng(11);
  GradCheck({RandLeaf({3, 4}, rng), RandLeaf({1, 4}, rng)},
            [](const std::vector<Tensor>& l) {
              return Mean(Mul(Add(l[0], l[1]), Add(l[0], l[1])));
            });
}

TEST(TensorGradTest, MulAndScale) {
  Rng rng(12);
  GradCheck({RandLeaf({2, 5}, rng), RandLeaf({2, 5}, rng)},
            [](const std::vector<Tensor>& l) {
              return Sum(Scale(Mul(l[0], l[1]), 0.3f));
            });
}

TEST(TensorGradTest, Transpose) {
  Rng rng(13);
  GradCheck({RandLeaf({3, 2}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Mul(Transpose(l[0]), Transpose(l[0])));
  });
}

TEST(TensorGradTest, UnaryOps) {
  Rng rng(14);
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Gelu(Tanh(l[0])));
  });
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Sigmoid(l[0]));
  });
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Exp(Scale(l[0], 0.5f)));
  });
}

TEST(TensorGradTest, ReluAwayFromKink) {
  // Keep inputs away from 0 so the finite difference is valid.
  Tensor x = Tensor::FromData({1, 4}, {1.0f, -1.5f, 2.0f, -0.8f},
                              /*requires_grad=*/true);
  GradCheck({x}, [](const std::vector<Tensor>& l) {
    return Sum(Relu(l[0]));
  });
}

TEST(TensorGradTest, SoftmaxAndLogSoftmax) {
  Rng rng(15);
  GradCheck({RandLeaf({3, 5}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor w = Tensor::FromData({3, 5}, {0.1f, -0.2f, 0.3f, 0.4f, -0.5f,  //
                                         0.5f, 0.1f, -0.1f, 0.2f, 0.3f,  //
                                         -0.3f, 0.2f, 0.1f, -0.4f, 0.2f});
    return Sum(Mul(Softmax(l[0]), w));
  });
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor w = Tensor::FromData({2, 4},
                                {0.3f, -0.1f, 0.2f, 0.4f,  //
                                 -0.2f, 0.5f, 0.1f, -0.3f});
    return Sum(Mul(LogSoftmax(l[0]), w));
  });
}

TEST(TensorGradTest, LayerNorm) {
  Rng rng(16);
  GradCheck(
      {RandLeaf({3, 6}, rng), RandLeaf({1, 6}, rng), RandLeaf({1, 6}, rng)},
      [](const std::vector<Tensor>& l) {
        return Mean(Mul(LayerNorm(l[0], l[1], l[2]),
                        LayerNorm(l[0], l[1], l[2])));
      },
      1e-2f, 4e-2f);
}

TEST(TensorGradTest, RowsAndSlices) {
  Rng rng(17);
  GradCheck({RandLeaf({4, 6}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor picked = Rows(l[0], {0, 2, 2});
    Tensor sliced = SliceCols(l[0], 1, 3);
    return Add(Mean(Mul(picked, picked)), Mean(sliced));
  });
}

TEST(TensorGradTest, ConcatColsAndRows) {
  Rng rng(18);
  GradCheck({RandLeaf({2, 3}, rng), RandLeaf({2, 2}, rng)},
            [](const std::vector<Tensor>& l) {
              Tensor cat = ConcatCols({l[0], l[1]});
              return Mean(Mul(cat, cat));
            });
  GradCheck({RandLeaf({2, 3}, rng), RandLeaf({1, 3}, rng)},
            [](const std::vector<Tensor>& l) {
              Tensor cat = ConcatRows({l[0], l[1]});
              return Mean(Mul(cat, cat));
            });
}

TEST(TensorGradTest, EmbeddingLookup) {
  Rng rng(19);
  GradCheck({RandLeaf({5, 3}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor e = EmbeddingLookup(l[0], {1, 3, 1, 4});
    return Mean(Mul(e, e));
  });
}

TEST(TensorGradTest, MeanRowsAndSums) {
  Rng rng(20);
  GradCheck({RandLeaf({4, 3}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor m = MeanRows(l[0]);
    return Add(Sum(Mul(m, m)), Scale(Mean(l[0]), 0.7f));
  });
}

TEST(TensorGradTest, CrossEntropy) {
  Rng rng(21);
  GradCheck({RandLeaf({3, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return CrossEntropy(l[0], {1, 3, 0});
  });
}

TEST(TensorGradTest, SoftCrossEntropy) {
  Rng rng(22);
  Tensor targets = Softmax(Tensor::Randn({3, 4}, 1.0f, rng));
  GradCheck({RandLeaf({3, 4}, rng)}, [targets](const std::vector<Tensor>& l) {
    return SoftCrossEntropy(l[0], targets);
  });
}

TEST(TensorGradTest, CosineSimilarity) {
  Rng rng(23);
  GradCheck({RandLeaf({4}, rng), RandLeaf({4}, rng)},
            [](const std::vector<Tensor>& l) {
              return CosineSimilarity(l[0], l[1]);
            });
}

TEST(TensorGradTest, Reshape) {
  Rng rng(24);
  GradCheck({RandLeaf({2, 6}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor r = Reshape(l[0], {3, 4});
    return Mean(Mul(r, r));
  });
}

// Property sweep: softmax output is a distribution for many shapes/scales.
class SoftmaxPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, float>> {};

TEST_P(SoftmaxPropertyTest, RowsAreDistributions) {
  auto [rows, cols, scale] = GetParam();
  Rng rng(static_cast<uint64_t>(rows * 100 + cols * 10) +
          static_cast<uint64_t>(scale));
  Tensor x = Tensor::Randn({rows, cols}, scale, rng);
  Tensor y = Softmax(x);
  for (int i = 0; i < rows; ++i) {
    float sum = 0;
    for (int j = 0; j < cols; ++j) {
      float v = y.data()[static_cast<size_t>(i) * cols + j];
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SoftmaxPropertyTest,
    ::testing::Combine(::testing::Values(1, 3, 16),
                       ::testing::Values(2, 7, 50),
                       ::testing::Values(0.1f, 1.0f, 10.0f)));

}  // namespace
}  // namespace kglink::nn

// Cache-blocked GEMM kernels behind the dispatch in nn/gemm.h.
//
// This TU is pinned to -ffp-contract=off (src/nn/CMakeLists.txt) so the
// compiler cannot fuse the explicit multiply-then-add sequences below into
// FMAs — bit-exactness against nn/reference_gemm.cc depends on both sides
// rounding after every multiply.
//
// Blocking scheme (AVX2 path):
//  - The j (output column) loop runs in 16-wide panels. Each panel of B is
//    packed once into a contiguous k x 16 thread-local scratch buffer, so
//    the inner loop streams B with two aligned-stride loads per k step
//    instead of striding across B's full row width.
//  - The i (output row) loop runs 4 rows at a time; a 4x16 microkernel
//    keeps the 8 C accumulators in YMM registers for the whole k loop.
//  - Per output element the accumulation order over p (the k dimension) is
//    exactly the reference order: C is loaded once, then receives
//    add(mul(a[i][p], b[p][j])) for p = 0..k-1 ascending, then is stored.
//    Row and column blocking never reorders a single element's chain, so
//    the result is bit-identical to the scalar triple loop.
//  - Column tails (n % 16) run through masked 8-wide panels: lanes past
//    the real column count are packed as zero (contributing exactly
//    nothing) and the C stores are masked, so narrow right-hand sides
//    (e.g. the attention P*V multiply with n = head_dim) stay vectorized
//    while every stored element keeps the reference per-element order.
//    Row tails (m % 4) use single-row variants of the same kernels.
//
// GemmAccAt is the blocked GemmAcc against a materialized A^T — the
// reference also accumulates over the m dimension in ascending order
// directly into the output, so this stays bit-exact. GemmAccBt is the
// blocked GemmAcc against a materialized B^T; the reference reduces into a
// local scalar first, so this one is ULP-close rather than bit-equal (see
// gemm.h).
#include "nn/gemm.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/reference_gemm.h"

#if defined(__AVX2__) && !defined(KGLINK_GEMM_REFERENCE)
#include <immintrin.h>
#define KGLINK_GEMM_AVX2 1
#endif

namespace kglink::nn::gemm {

#ifdef KGLINK_GEMM_REFERENCE

void GemmAcc(const float* a, const float* b, float* c, int m, int k, int n) {
  refgemm::GemmAcc(a, b, c, m, k, n);
}
void GemmAccBt(const float* dc, const float* b, float* da, int m, int k,
               int n) {
  refgemm::GemmAccBt(dc, b, da, m, k, n);
}
void GemmAccAt(const float* a, const float* dc, float* db, int m, int k,
               int n) {
  refgemm::GemmAccAt(a, dc, db, m, k, n);
}
const char* KernelName() { return "reference"; }

#else  // !KGLINK_GEMM_REFERENCE

namespace {

#ifdef KGLINK_GEMM_AVX2

constexpr int kNR = 16;  // panel width: two YMM registers
constexpr int kMR = 4;   // microkernel row count

// Packs columns [j0, j0+16) of b[k,n] into a contiguous k x 16 panel.
inline void PackPanel16(const float* b, int k, int n, int j0, float* panel) {
  for (int p = 0; p < k; ++p) {
    const float* src = b + static_cast<size_t>(p) * n + j0;
    float* dst = panel + static_cast<size_t>(p) * kNR;
    _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
    _mm256_storeu_ps(dst + 8, _mm256_loadu_ps(src + 8));
  }
}

// c rows [i0, i0+4), cols [j0, j0+16) += a rows x packed panel.
inline void Micro4x16(const float* a, const float* panel, float* c, int i0,
                      int j0, int k, int lda, int ldc) {
  const float* a0 = a + static_cast<size_t>(i0) * lda;
  const float* a1 = a0 + lda;
  const float* a2 = a1 + lda;
  const float* a3 = a2 + lda;
  float* c0 = c + static_cast<size_t>(i0) * ldc + j0;
  float* c1 = c0 + ldc;
  float* c2 = c1 + ldc;
  float* c3 = c2 + ldc;
  __m256 acc00 = _mm256_loadu_ps(c0), acc01 = _mm256_loadu_ps(c0 + 8);
  __m256 acc10 = _mm256_loadu_ps(c1), acc11 = _mm256_loadu_ps(c1 + 8);
  __m256 acc20 = _mm256_loadu_ps(c2), acc21 = _mm256_loadu_ps(c2 + 8);
  __m256 acc30 = _mm256_loadu_ps(c3), acc31 = _mm256_loadu_ps(c3 + 8);
  for (int p = 0; p < k; ++p) {
    const float* bp = panel + static_cast<size_t>(p) * kNR;
    __m256 b0 = _mm256_loadu_ps(bp);
    __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 va = _mm256_set1_ps(a0[p]);
    acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(va, b0));
    acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(va, b1));
    va = _mm256_set1_ps(a1[p]);
    acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(va, b0));
    acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(va, b1));
    va = _mm256_set1_ps(a2[p]);
    acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(va, b0));
    acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(va, b1));
    va = _mm256_set1_ps(a3[p]);
    acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(va, b0));
    acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(va, b1));
  }
  _mm256_storeu_ps(c0, acc00);
  _mm256_storeu_ps(c0 + 8, acc01);
  _mm256_storeu_ps(c1, acc10);
  _mm256_storeu_ps(c1 + 8, acc11);
  _mm256_storeu_ps(c2, acc20);
  _mm256_storeu_ps(c2 + 8, acc21);
  _mm256_storeu_ps(c3, acc30);
  _mm256_storeu_ps(c3 + 8, acc31);
}

// Single-row variant for the m % 4 tail.
inline void Micro1x16(const float* a, const float* panel, float* c, int i,
                      int j0, int k, int lda, int ldc) {
  const float* ar = a + static_cast<size_t>(i) * lda;
  float* cr = c + static_cast<size_t>(i) * ldc + j0;
  __m256 acc0 = _mm256_loadu_ps(cr), acc1 = _mm256_loadu_ps(cr + 8);
  for (int p = 0; p < k; ++p) {
    const float* bp = panel + static_cast<size_t>(p) * kNR;
    __m256 va = _mm256_set1_ps(ar[p]);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 8)));
  }
  _mm256_storeu_ps(cr, acc0);
  _mm256_storeu_ps(cr + 8, acc1);
}

constexpr int kNR8 = 8;  // tail panel width: one YMM register

// Lane mask with the first w of 8 lanes active.
inline __m256i TailMask8(int w) {
  alignas(32) int32_t lanes[8];
  for (int l = 0; l < 8; ++l) lanes[l] = l < w ? -1 : 0;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
}

// Packs columns [j0, j0+w) of b[k,n] (1 <= w <= 8) into a contiguous
// k x 8 panel. Masked loads zero the lanes past w, so those lanes add
// exactly nothing in the microkernels below.
inline void PackPanel8(const float* b, int k, int n, int j0, __m256i mask,
                       float* panel) {
  for (int p = 0; p < k; ++p) {
    const float* src = b + static_cast<size_t>(p) * n + j0;
    _mm256_storeu_ps(panel + static_cast<size_t>(p) * kNR8,
                     _mm256_maskload_ps(src, mask));
  }
}

// c rows [i0, i0+4), cols [j0, j0+w) += a rows x packed 8-wide panel.
// Masked C loads/stores keep columns >= n untouched; active lanes see the
// same k-ascending mul-then-add chain as the reference loop.
inline void Micro4x8(const float* a, const float* panel, float* c, int i0,
                     int j0, int k, int lda, int ldc, __m256i mask) {
  const float* a0 = a + static_cast<size_t>(i0) * lda;
  const float* a1 = a0 + lda;
  const float* a2 = a1 + lda;
  const float* a3 = a2 + lda;
  float* c0 = c + static_cast<size_t>(i0) * ldc + j0;
  float* c1 = c0 + ldc;
  float* c2 = c1 + ldc;
  float* c3 = c2 + ldc;
  __m256 acc0 = _mm256_maskload_ps(c0, mask);
  __m256 acc1 = _mm256_maskload_ps(c1, mask);
  __m256 acc2 = _mm256_maskload_ps(c2, mask);
  __m256 acc3 = _mm256_maskload_ps(c3, mask);
  for (int p = 0; p < k; ++p) {
    __m256 b0 = _mm256_loadu_ps(panel + static_cast<size_t>(p) * kNR8);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(a0[p]), b0));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(a1[p]), b0));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(a2[p]), b0));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(a3[p]), b0));
  }
  _mm256_maskstore_ps(c0, mask, acc0);
  _mm256_maskstore_ps(c1, mask, acc1);
  _mm256_maskstore_ps(c2, mask, acc2);
  _mm256_maskstore_ps(c3, mask, acc3);
}

// Single-row variant for the m % 4 tail of the masked 8-wide path.
inline void Micro1x8(const float* a, const float* panel, float* c, int i,
                     int j0, int k, int lda, int ldc, __m256i mask) {
  const float* ar = a + static_cast<size_t>(i) * lda;
  float* cr = c + static_cast<size_t>(i) * ldc + j0;
  __m256 acc = _mm256_maskload_ps(cr, mask);
  for (int p = 0; p < k; ++p) {
    __m256 b0 = _mm256_loadu_ps(panel + static_cast<size_t>(p) * kNR8);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(ar[p]), b0));
  }
  _mm256_maskstore_ps(cr, mask, acc);
}

#endif  // KGLINK_GEMM_AVX2

// Per-thread packing scratch. The serving path runs one GEMM per worker
// thread concurrently; thread_local keeps the buffers race-free without
// locking, and capacity is retained across calls. Only the AVX2 kernels
// pack B panels.
#ifdef KGLINK_GEMM_AVX2
std::vector<float>& PanelScratch() {
  thread_local std::vector<float> buf;
  return buf;
}
#endif  // KGLINK_GEMM_AVX2
std::vector<float>& TransposeScratch() {
  thread_local std::vector<float> buf;
  return buf;
}

#ifndef KGLINK_GEMM_AVX2
// Scalar columns [j0, n) with the reference per-element order.
void ScalarColumns(const float* a, const float* b, float* c, int m, int k,
                   int n, int j0) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      const float* brow = b + static_cast<size_t>(p) * n;
      for (int j = j0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}
#endif  // !KGLINK_GEMM_AVX2

}  // namespace

void GemmAcc(const float* a, const float* b, float* c, int m, int k, int n) {
#ifdef KGLINK_GEMM_AVX2
  if (m <= 0 || k <= 0 || n <= 0) return;
  std::vector<float>& panel = PanelScratch();
  panel.resize(static_cast<size_t>(k) * kNR);
  int j0 = 0;
  for (; j0 + kNR <= n; j0 += kNR) {
    PackPanel16(b, k, n, j0, panel.data());
    int i = 0;
    for (; i + kMR <= m; i += kMR) {
      Micro4x16(a, panel.data(), c, i, j0, k, k, n);
    }
    for (; i < m; ++i) Micro1x16(a, panel.data(), c, i, j0, k, k, n);
  }
  // Remaining columns in masked 8-wide panels (the final one may cover
  // fewer than 8 real columns).
  for (; j0 < n; j0 += kNR8) {
    int w = n - j0 < kNR8 ? n - j0 : kNR8;
    __m256i mask = TailMask8(w);
    PackPanel8(b, k, n, j0, mask, panel.data());
    int i = 0;
    for (; i + kMR <= m; i += kMR) {
      Micro4x8(a, panel.data(), c, i, j0, k, k, n, mask);
    }
    for (; i < m; ++i) Micro1x8(a, panel.data(), c, i, j0, k, k, n, mask);
  }
#else
  // No AVX2 on this target: the reference loop (same element order) with
  // -march=native auto-vectorization is the blocked-scalar path.
  ScalarColumns(a, b, c, m, k, n, 0);
#endif
}

void GemmAccBt(const float* dc, const float* b, float* da, int m, int k,
               int n) {
  // da[m,k] += dc[m,n] * (b^T)[n,k]; materialize b^T once, then reuse the
  // blocked kernel. Small k/n (head_dim, seq_len) keep the transpose cheap
  // relative to the O(m*k*n) multiply.
  std::vector<float>& bt = TransposeScratch();
  bt.resize(static_cast<size_t>(n) * k);
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int j = 0; j < n; ++j) {
      bt[static_cast<size_t>(j) * k + p] = brow[j];
    }
  }
  GemmAcc(dc, bt.data(), da, m, n, k);
}

void GemmAccAt(const float* a, const float* dc, float* db, int m, int k,
               int n) {
  // db[k,n] += (a^T)[k,m] * dc[m,n]; the reference also walks the m
  // dimension in ascending order straight into db, so this is bit-exact.
  std::vector<float>& at = TransposeScratch();
  at.resize(static_cast<size_t>(k) * m);
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      at[static_cast<size_t>(p) * m + i] = arow[p];
    }
  }
  GemmAcc(at.data(), dc, db, k, m, n);
}

const char* KernelName() {
#ifdef KGLINK_GEMM_AVX2
  return "blocked-avx2";
#else
  return "blocked-scalar";
#endif
}

#endif  // KGLINK_GEMM_REFERENCE

}  // namespace kglink::nn::gemm

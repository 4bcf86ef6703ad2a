#include <gtest/gtest.h>

#include <cmath>

#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/sgemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace ttfs {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t{{2, 3, 4}};
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.rank(), 3U);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.shape_str(), "[2, 3, 4]");
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full({2, 2}, 3.5F);
  EXPECT_EQ(t.at(1, 1), 3.5F);
  t.fill(-1.0F);
  EXPECT_EQ(t.at(0, 0), -1.0F);
}

TEST(Tensor, DataShapeMismatchThrows) {
  EXPECT_THROW((Tensor{{2, 2}, std::vector<float>{1.0F, 2.0F}}), std::invalid_argument);
}

TEST(Tensor, NegativeDimThrows) { EXPECT_THROW((Tensor{{2, -1}}), std::invalid_argument); }

TEST(Tensor, At4d) {
  Tensor t{{2, 3, 4, 5}};
  t.at(1, 2, 3, 4) = 9.0F;
  EXPECT_EQ(t[t.numel() - 1], 9.0F);
  t.at(0, 0, 0, 1) = 2.0F;
  EXPECT_EQ(t[1], 2.0F);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t{{2, 3}, {1, 2, 3, 4, 5, 6}};
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, Allclose) {
  Tensor a{{2}, {1.0F, 2.0F}};
  Tensor b{{2}, {1.0F, 2.00001F}};
  EXPECT_TRUE(a.allclose(b, 1e-3F));
  EXPECT_FALSE(a.allclose(b, 1e-7F));
  Tensor c{{1, 2}, {1.0F, 2.0F}};
  EXPECT_FALSE(a.allclose(c));  // different shape
}

TEST(Ops, Reductions) {
  Tensor t{{4}, {-3, 1, 2, 0}};
  EXPECT_FLOAT_EQ(sum(t), 0.0F);
  EXPECT_FLOAT_EQ(mean(t), 0.0F);
}

TEST(Ops, ArgmaxRow) {
  Tensor t{{2, 3}, {1, 5, 2, 9, 0, 3}};
  EXPECT_EQ(argmax_row(t, 0), 1);
  EXPECT_EQ(argmax_row(t, 1), 0);
}

// Reference O(n^3) matmul for validation.
void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a, const float* b,
                float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class SgemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SgemmSizes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng{static_cast<std::uint64_t>(m * 10007 + n * 101 + k)};
  std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = rng.uniform_f(-1, 1);
  for (auto& v : b) v = rng.uniform_f(-1, 1);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
  std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0F);
  sgemm(m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3F) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SgemmSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                                           std::make_tuple(64, 64, 64),
                                           std::make_tuple(65, 130, 70),
                                           std::make_tuple(128, 257, 96),
                                           std::make_tuple(16, 300, 1)));

TEST(Sgemm, AlphaBeta) {
  // C = 2*A*B + 0.5*C
  std::vector<float> a{1, 0, 0, 1};                 // 2x2 identity
  std::vector<float> b{3, 4, 5, 6};                 // 2x2
  std::vector<float> c{10, 10, 10, 10};             // 2x2
  sgemm(2, 2, 2, 2.0F, a.data(), b.data(), 0.5F, c.data());
  EXPECT_FLOAT_EQ(c[0], 2 * 3 + 5);
  EXPECT_FLOAT_EQ(c[3], 2 * 6 + 5);
}

TEST(Sgemm, TransposedVariantsMatch) {
  const std::int64_t m = 9, n = 11, k = 13;
  Rng rng{99};
  std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = rng.uniform_f(-1, 1);
  for (auto& v : b) v = rng.uniform_f(-1, 1);
  std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0F);
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());

  // A^T variant: store A as (k x m).
  std::vector<float> at(static_cast<std::size_t>(k * m));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) at[static_cast<std::size_t>(p * m + i)] = a[static_cast<std::size_t>(i * k + p)];
  }
  std::vector<float> c1(static_cast<std::size_t>(m * n), 0.0F);
  sgemm_at(m, n, k, 1.0F, at.data(), b.data(), 0.0F, c1.data());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], ref[i], 1e-4F);

  // B^T variant: store B as (n x k).
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) bt[static_cast<std::size_t>(j * k + p)] = b[static_cast<std::size_t>(p * n + j)];
  }
  std::vector<float> c2(static_cast<std::size_t>(m * n), 0.0F);
  sgemm_bt(m, n, k, 1.0F, a.data(), bt.data(), 0.0F, c2.data());
  for (std::size_t i = 0; i < c2.size(); ++i) EXPECT_NEAR(c2[i], ref[i], 1e-4F);
}

TEST(Im2col, IdentityKernelNoPad) {
  // 1x1 kernel, stride 1, no pad: cols == image.
  ConvGeom g;
  g.in_ch = 2;
  g.in_h = 3;
  g.in_w = 3;
  g.kh = g.kw = 1;
  Tensor img{{2, 3, 3}};
  for (std::int64_t i = 0; i < img.numel(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), cols.data());
  for (std::int64_t i = 0; i < img.numel(); ++i) EXPECT_EQ(cols[static_cast<std::size_t>(i)], img[i]);
}

TEST(Im2col, PaddingProducesZeros) {
  ConvGeom g;
  g.in_ch = 1;
  g.in_h = 2;
  g.in_w = 2;
  g.kh = g.kw = 3;
  g.pad = 1;
  Tensor img{{1, 2, 2}, {1, 2, 3, 4}};
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), cols.data());
  // First row of cols corresponds to kernel offset (0,0): output (0,0) looks
  // at input (-1,-1) -> 0.
  EXPECT_EQ(cols[0], 0.0F);
  // Kernel center (1,1) row: output (y,x) = input (y,x).
  const std::int64_t center_row = 1 * 3 + 1;
  EXPECT_EQ(cols[static_cast<std::size_t>(center_row * 4 + 0)], 1.0F);
  EXPECT_EQ(cols[static_cast<std::size_t>(center_row * 4 + 3)], 4.0F);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // of the transpose scatter used by conv backward.
  ConvGeom g;
  g.in_ch = 3;
  g.in_h = 5;
  g.in_w = 4;
  g.kh = g.kw = 3;
  g.stride = 2;
  g.pad = 1;
  Rng rng{1234};
  Tensor x{{3, 5, 4}};
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(-1, 1);
  const std::int64_t cols_n = g.col_rows() * g.col_cols();
  std::vector<float> y(static_cast<std::size_t>(cols_n));
  for (auto& v : y) v = rng.uniform_f(-1, 1);

  std::vector<float> cols(static_cast<std::size_t>(cols_n));
  im2col(g, x.data(), cols.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols_n; ++i) lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) * y[static_cast<std::size_t>(i)];

  Tensor back{{3, 5, 4}};
  col2im(g, y.data(), back.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, OutputGeometry) {
  ConvGeom g;
  g.in_ch = 1;
  g.in_h = 32;
  g.in_w = 32;
  g.kh = g.kw = 3;
  g.stride = 1;
  g.pad = 1;
  EXPECT_EQ(g.out_h(), 32);
  g.stride = 2;
  g.pad = 1;
  EXPECT_EQ(g.out_h(), 16);
}

}  // namespace
}  // namespace ttfs

#include <cmath>
#include <ostream>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/gradcheck.h"
#include "utils/rng.h"

namespace isrec {
namespace {

using testing::ExpectGradientsMatch;

TEST(OpsTest, AddSubMulDivForward) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {4, 3, 2, 1});
  EXPECT_FLOAT_EQ(Add(a, b).at(0), 5.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).at(0), -3.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).at(1), 6.0f);
  EXPECT_FLOAT_EQ(Div(a, b).at(3), 4.0f);
}

TEST(OpsTest, BroadcastAddBiasRow) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromData({3}, {10, 20, 30});
  Tensor y = Add(a, bias);
  EXPECT_FLOAT_EQ(y.at(0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(4), 25.0f);
}

TEST(OpsTest, BroadcastOuterProductShape) {
  Tensor col = Tensor::FromData({3, 1}, {1, 2, 3});
  Tensor row = Tensor::FromData({1, 2}, {10, 100});
  Tensor y = Mul(col, row);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(y.at(5), 300.0f);
}

TEST(OpsTest, UnaryForwardValues) {
  Tensor x = Tensor::FromData({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(x).at(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).at(2), 2.0f);
  EXPECT_NEAR(Sigmoid(x).at(1), 0.5f, 1e-6);
  EXPECT_NEAR(Tanh(x).at(2), std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(Exp(x).at(2), std::exp(2.0f), 1e-4);
  EXPECT_NEAR(Softplus(x).at(1), std::log(2.0f), 1e-6);
}

TEST(OpsTest, MatMulForward) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(3), 154.0f);
}

TEST(OpsTest, BatchMatMulBroadcastsRank2Rhs) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 2, 3}, 1.0f, rng);
  Tensor w = Tensor::Randn({3, 5}, 1.0f, rng);
  Tensor c = BatchMatMul(a, w);
  EXPECT_EQ(c.shape(), (Shape{4, 2, 5}));
  // Spot-check one entry against a manual dot product.
  float expected = 0.0f;
  for (int k = 0; k < 3; ++k) expected += a.at(1 * 6 + 0 * 3 + k) * w.at(k * 5 + 2);
  EXPECT_NEAR(c.at(1 * 10 + 0 * 5 + 2), expected, 1e-4);
}

TEST(OpsTest, BatchMatMulTransposeFlagsAgree) {
  Rng rng(2);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, rng);
  Tensor b = Tensor::Randn({4, 5}, 1.0f, rng);
  Tensor plain = BatchMatMul(a, b);
  Tensor via_ta = BatchMatMul(Transpose(a, 0, 1), b, /*trans_a=*/true);
  Tensor via_tb = BatchMatMul(a, Transpose(b, 0, 1), false, /*trans_b=*/true);
  for (Index i = 0; i < plain.numel(); ++i) {
    EXPECT_NEAR(plain.at(i), via_ta.at(i), 1e-4);
    EXPECT_NEAR(plain.at(i), via_tb.at(i), 1e-4);
  }
}

TEST(OpsTest, ReshapeAndTranspose) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.at(2), 3.0f);
  Tensor inferred = Reshape(a, {-1});
  EXPECT_EQ(inferred.shape(), (Shape{6}));
  Tensor t = Transpose(a, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(1), 4.0f);
  EXPECT_FLOAT_EQ(t.at(2), 2.0f);
}

TEST(OpsTest, SliceAndConcatRoundTrip) {
  Tensor a = Tensor::FromData({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor left = Slice(a, 1, 0, 2);
  Tensor right = Slice(a, 1, 2, 4);
  EXPECT_EQ(left.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(right.at(0), 3.0f);
  Tensor back = Concat({left, right}, 1);
  for (Index i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(back.at(i), a.at(i));
}

TEST(OpsTest, IndexSelectGathersRows) {
  Tensor a = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor picked = IndexSelect(a, {2, 0, 2});
  EXPECT_EQ(picked.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(picked.at(0), 5.0f);
  EXPECT_FLOAT_EQ(picked.at(2), 1.0f);
  EXPECT_FLOAT_EQ(picked.at(5), 6.0f);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
  Tensor s0 = Sum(a, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.at(0), 5.0f);
  Tensor s1 = Sum(a, 1, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.at(1), 15.0f);
  Tensor m = ReduceMax(a, 1);
  EXPECT_FLOAT_EQ(m.at(0), 3.0f);
  EXPECT_FLOAT_EQ(m.at(1), 6.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 7}, 2.0f, rng);
  Tensor y = Softmax(a);
  for (Index r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (Index c = 0; c < 7; ++c) total += y.at(r * 7 + c);
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(4);
  Tensor a = Tensor::Randn({3, 5}, 1.5f, rng);
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (Index i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(ls.at(i), std::log(s.at(i)), 1e-5);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariant) {
  Tensor a = Tensor::FromData({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor y = Softmax(a);  // Must not overflow.
  EXPECT_NEAR(y.at(0) + y.at(1) + y.at(2), 1.0f, 1e-5);
  EXPECT_GT(y.at(2), y.at(1));
}

TEST(OpsTest, EmbeddingLookupForward) {
  Tensor table = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = EmbeddingLookup(table, {2, 0, -1}, {3});
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(2), 1.0f);
  EXPECT_FLOAT_EQ(out.at(4), 0.0f);  // Padding row is zero.
  EXPECT_FLOAT_EQ(out.at(5), 0.0f);
}

TEST(OpsTest, EmbeddingGradScatterAdds) {
  Tensor table = Tensor::Zeros({3, 2}, /*requires_grad=*/true);
  Tensor out = EmbeddingLookup(table, {1, 1, -1}, {3});
  Sum(out).Backward();
  // Row 1 selected twice -> grad 2; padding contributes nothing.
  EXPECT_FLOAT_EQ(table.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(table.grad()[2], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[3], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[4], 0.0f);
}

TEST(OpsTest, NllLossIgnoresMaskedTargets) {
  Tensor lp = LogSoftmax(Tensor::FromData({2, 3}, {0, 0, 5, 1, 1, 1}));
  // Second row ignored: loss = -lp[0, 2].
  Tensor loss = NllLoss(lp, {2, -1});
  EXPECT_NEAR(loss.item(), -lp.at(2), 1e-6);
}

TEST(OpsTest, CosineSimilarityMatchesManual) {
  Tensor a = Tensor::FromData({1, 2}, {3, 4});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, -4, 3});
  Tensor sims = CosineSimilarity(a, b);
  EXPECT_EQ(sims.shape(), (Shape{1, 2}));
  EXPECT_NEAR(sims.at(0), 1.0f, 1e-5);  // Same direction.
  EXPECT_NEAR(sims.at(1), 0.0f, 1e-5);  // Orthogonal.
}

TEST(OpsTest, DropoutEvalIsIdentityAndTrainScales) {
  Rng rng(5);
  Tensor x = Tensor::Ones({1000});
  Tensor eval_out = DropoutOp(x, 0.5f, /*training=*/false, rng);
  for (Index i = 0; i < 10; ++i) EXPECT_FLOAT_EQ(eval_out.at(i), 1.0f);

  Tensor train_out = DropoutOp(x, 0.5f, /*training=*/true, rng);
  double mean = 0.0;
  int zeros = 0;
  for (Index i = 0; i < x.numel(); ++i) {
    mean += train_out.at(i);
    if (train_out.at(i) == 0.0f) ++zeros;
  }
  mean /= x.numel();
  EXPECT_NEAR(mean, 1.0, 0.1);  // Inverted dropout preserves expectation.
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
}

TEST(OpsTest, StraightThroughForwardHardBackwardSoft) {
  Tensor soft = Tensor::FromData({2}, {0.3f, 0.7f}, /*requires_grad=*/true);
  Tensor hard = Tensor::FromData({2}, {0.0f, 1.0f});
  Tensor st = StraightThrough(hard, soft);
  EXPECT_FLOAT_EQ(st.at(0), 0.0f);
  EXPECT_FLOAT_EQ(st.at(1), 1.0f);
  Sum(Mul(st, st)).Backward();
  // Gradient flows to soft as if st == hard values: d(sum st^2)/dst = 2*st.
  EXPECT_FLOAT_EQ(soft.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(soft.grad()[1], 2.0f);
}

// ---------------------------------------------------------------------
// Numerical gradient checks.

struct GradCase {
  std::string name;
  std::function<Tensor(const std::vector<Tensor>&)> fn;
  std::vector<Shape> input_shapes;
};

// gtest would otherwise print the case as raw bytes, a heap address
// among them, and that dump becomes part of the ctest name.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

class GradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheckTest, MatchesFiniteDifferences) {
  const GradCase& c = GetParam();
  Rng rng(1234);
  std::vector<Tensor> inputs;
  for (const Shape& s : c.input_shapes) {
    inputs.push_back(Tensor::RandUniform(s, 0.2f, 1.2f, rng));
  }
  testing::ExpectGradientsMatch(inputs, c.fn);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest,
    ::testing::Values(
        GradCase{"add", [](const auto& in) { return Sum(Add(in[0], in[1])); },
                 {{2, 3}, {2, 3}}},
        GradCase{"add_broadcast",
                 [](const auto& in) { return Sum(Add(in[0], in[1])); },
                 {{2, 3}, {3}}},
        GradCase{"sub", [](const auto& in) { return Sum(Sub(in[0], in[1])); },
                 {{2, 2}, {2, 2}}},
        GradCase{"mul_broadcast",
                 [](const auto& in) { return Sum(Mul(in[0], in[1])); },
                 {{2, 1, 3}, {4, 1}}},
        GradCase{"div", [](const auto& in) { return Sum(Div(in[0], in[1])); },
                 {{3}, {3}}},
        GradCase{"exp", [](const auto& in) { return Sum(Exp(in[0])); }, {{4}}},
        GradCase{"log", [](const auto& in) { return Sum(Log(in[0])); }, {{4}}},
        GradCase{"sqrt", [](const auto& in) { return Sum(Sqrt(in[0])); },
                 {{4}}},
        GradCase{"sigmoid",
                 [](const auto& in) { return Sum(Sigmoid(in[0])); }, {{5}}},
        GradCase{"tanh", [](const auto& in) { return Sum(Tanh(in[0])); },
                 {{5}}},
        GradCase{"softplus",
                 [](const auto& in) { return Sum(Softplus(in[0])); }, {{5}}},
        GradCase{"pow", [](const auto& in) { return Sum(PowScalar(in[0], 3)); },
                 {{4}}},
        GradCase{"matmul",
                 [](const auto& in) { return Sum(MatMul(in[0], in[1])); },
                 {{3, 4}, {4, 2}}},
        GradCase{"matmul_chain",
                 [](const auto& in) {
                   return Sum(Mul(MatMul(in[0], in[1]), MatMul(in[0], in[1])));
                 },
                 {{2, 3}, {3, 2}}},
        GradCase{"bmm",
                 [](const auto& in) {
                   return Sum(BatchMatMul(in[0], in[1]));
                 },
                 {{2, 3, 4}, {2, 4, 2}}},
        GradCase{"bmm_trans_b",
                 [](const auto& in) {
                   return Sum(BatchMatMul(in[0], in[1], false, true));
                 },
                 {{2, 3, 4}, {2, 5, 4}}},
        GradCase{"bmm_trans_a",
                 [](const auto& in) {
                   return Sum(BatchMatMul(in[0], in[1], true, false));
                 },
                 {{2, 4, 3}, {2, 4, 5}}},
        GradCase{"bmm_broadcast_rhs",
                 [](const auto& in) {
                   return Sum(BatchMatMul(in[0], in[1]));
                 },
                 {{3, 2, 4}, {4, 2}}},
        GradCase{"bmm_broadcast_lhs",
                 [](const auto& in) {
                   return Sum(BatchMatMul(in[0], in[1]));
                 },
                 {{4, 3}, {2, 3, 2}}},
        GradCase{"reshape",
                 [](const auto& in) {
                   return Sum(Mul(Reshape(in[0], {6}), Reshape(in[0], {6})));
                 },
                 {{2, 3}}},
        GradCase{"transpose",
                 [](const auto& in) {
                   return Sum(MatMul(Transpose(in[0], 0, 1), in[0]));
                 },
                 {{3, 2}}},
        GradCase{"slice",
                 [](const auto& in) {
                   Tensor s = Slice(in[0], 1, 1, 3);
                   return Sum(Mul(s, s));
                 },
                 {{2, 4}}},
        GradCase{"concat",
                 [](const auto& in) {
                   Tensor c = Concat({in[0], in[1]}, 0);
                   return Sum(Mul(c, c));
                 },
                 {{2, 3}, {1, 3}}},
        GradCase{"index_select",
                 [](const auto& in) {
                   Tensor g = IndexSelect(in[0], {0, 2, 2});
                   return Sum(Mul(g, g));
                 },
                 {{3, 2}}},
        GradCase{"sum_axis",
                 [](const auto& in) {
                   Tensor s = Sum(in[0], 1);
                   return Sum(Mul(s, s));
                 },
                 {{3, 4}}},
        GradCase{"mean_axis",
                 [](const auto& in) {
                   Tensor m = Mean(in[0], 0);
                   return Sum(Mul(m, m));
                 },
                 {{3, 4}}},
        GradCase{"reduce_max",
                 [](const auto& in) {
                   Tensor m = ReduceMax(in[0], 1);
                   return Sum(Mul(m, m));
                 },
                 {{3, 4}}},
        GradCase{"norm_last_dim",
                 [](const auto& in) { return Sum(NormLastDim(in[0])); },
                 {{3, 4}}},
        GradCase{"softmax",
                 [](const auto& in) {
                   Tensor y = Softmax(in[0]);
                   return Sum(Mul(y, y));
                 },
                 {{3, 5}}},
        GradCase{"log_softmax",
                 [](const auto& in) {
                   Tensor y = LogSoftmax(in[0]);
                   return Sum(Mul(y, y));
                 },
                 {{3, 5}}},
        GradCase{"cosine",
                 [](const auto& in) {
                   Tensor y = CosineSimilarity(in[0], in[1]);
                   return Sum(Mul(y, y));
                 },
                 {{3, 4}, {5, 4}}},
        GradCase{"layernorm",
                 [](const auto& in) {
                   Tensor y = LayerNormOp(in[0], in[1], in[2]);
                   return Sum(Mul(y, y));
                 },
                 {{4, 6}, {6}, {6}}}),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace isrec

#include <gtest/gtest.h>

#include <ostream>

#include "accel/dataflow.h"
#include "util/error.h"

namespace h2h {
namespace {

Layer conv_layer(std::uint32_t n, std::uint32_t m, std::uint32_t r,
                 std::uint32_t c, std::uint32_t k, std::uint32_t s) {
  return Layer{"c", LayerKind::Conv, ConvShape{n, m, r, c, k, s}};
}

TEST(Alignment, PerfectAndWorstCases) {
  EXPECT_DOUBLE_EQ(alignment_fraction(64, 64), 1.0);
  EXPECT_DOUBLE_EQ(alignment_fraction(128, 64), 1.0);
  // 65 units on 64 lanes: two folds, 65/128 busy.
  EXPECT_DOUBLE_EQ(alignment_fraction(65, 64), 65.0 / 128.0);
  // Work smaller than the tile: fractional occupancy.
  EXPECT_DOUBLE_EQ(alignment_fraction(16, 64), 0.25);
  EXPECT_DOUBLE_EQ(alignment_fraction(0, 64), 1.0);
  EXPECT_THROW((void)alignment_fraction(1, 0), ContractViolation);
}

TEST(Dataflow, ChannelParallelPrefersAlignedChannels) {
  const PeArray pe{64, 8};
  const double aligned = utilization(DataflowStyle::ChannelParallel, pe,
                                     conv_layer(64, 8, 14, 14, 3, 1));
  const double misaligned = utilization(DataflowStyle::ChannelParallel, pe,
                                        conv_layer(65, 9, 14, 14, 3, 1));
  EXPECT_DOUBLE_EQ(aligned, 1.0);
  EXPECT_LT(misaligned, aligned);
  EXPECT_GT(misaligned, 0.0);
}

TEST(Dataflow, FeatureMapParallelIgnoresChannelAlignment) {
  const PeArray pe{14, 14};
  const double a = utilization(DataflowStyle::FeatureMapParallel, pe,
                               conv_layer(64, 8, 14, 14, 3, 1));
  const double b = utilization(DataflowStyle::FeatureMapParallel, pe,
                               conv_layer(65, 9, 14, 14, 3, 1));
  EXPECT_DOUBLE_EQ(a, b);  // spatial dims identical
  const double c = utilization(DataflowStyle::FeatureMapParallel, pe,
                               conv_layer(64, 8, 15, 15, 3, 1));
  EXPECT_LT(c, a);  // spatial misalignment hurts
}

TEST(Dataflow, WinogradBoostsOnlyNative3x3Stride1) {
  const PeArray pe{32, 16};
  const double native = utilization(DataflowStyle::Winograd, pe,
                                    conv_layer(32, 16, 14, 14, 3, 1));
  const double strided = utilization(DataflowStyle::Winograd, pe,
                                     conv_layer(32, 16, 14, 14, 3, 2));
  const double k1 = utilization(DataflowStyle::Winograd, pe,
                                conv_layer(32, 16, 14, 14, 1, 1));
  EXPECT_DOUBLE_EQ(native, 2.25);  // transform gain on aligned shapes
  EXPECT_LT(strided, 1.0);
  EXPECT_LT(k1, 1.0);
}

TEST(Dataflow, LstmStylesPreferLstm) {
  const PeArray pe{32, 32};
  const Layer lstm{"l", LayerKind::Lstm, LstmShape{256, 256, 1, 32}};
  const Layer conv = conv_layer(64, 64, 14, 14, 3, 1);
  const double lstm_on_pipeline =
      utilization(DataflowStyle::LstmPipeline, pe, lstm);
  const double conv_on_pipeline =
      utilization(DataflowStyle::LstmPipeline, pe, conv);
  EXPECT_GT(lstm_on_pipeline, conv_on_pipeline);
  const double lstm_on_channel =
      utilization(DataflowStyle::ChannelParallel, pe, lstm);
  EXPECT_GT(lstm_on_pipeline, lstm_on_channel);
}

TEST(Dataflow, StructuralLayersHaveNoMacUtilization) {
  const PeArray pe{16, 16};
  const Layer pool{"p", LayerKind::Pool, PoolShape{8, 4, 4, 2, 2}};
  const Layer input{"i", LayerKind::Input, InputShape{3, 8, 8}};
  for (int s = 0; s < 8; ++s) {
    const auto style = static_cast<DataflowStyle>(s);
    EXPECT_DOUBLE_EQ(utilization(style, pe, pool), 0.0);
    EXPECT_DOUBLE_EQ(utilization(style, pe, input), 0.0);
  }
}

TEST(Dataflow, StyleNamesAreStable) {
  EXPECT_EQ(to_string(DataflowStyle::ChannelParallel), "channel-parallel");
  EXPECT_EQ(to_string(DataflowStyle::Winograd), "winograd");
  EXPECT_EQ(to_string(DataflowStyle::GateParallel), "gate-parallel");
}

// Property sweep: utilization for supported MAC layers always lies in
// (0, 2.25] for every style/geometry combination.
struct UtilCase {
  DataflowStyle style;
  std::uint32_t dim_a;
  std::uint32_t dim_b;
};

// Names the case, e.g. "systolic 64x32". Without it gtest prints the raw
// bytes, padding included, and the ctest names can change between builds.
void PrintTo(const UtilCase& c, std::ostream* os) {
  *os << to_string(c.style) << ' ' << c.dim_a << 'x' << c.dim_b;
}

class UtilizationRange : public ::testing::TestWithParam<UtilCase> {};

TEST_P(UtilizationRange, BoundedForAllShapes) {
  const UtilCase& p = GetParam();
  const PeArray pe{p.dim_a, p.dim_b};
  for (std::uint32_t n : {1u, 3u, 16u, 63u, 64u, 65u, 512u}) {
    for (std::uint32_t k : {1u, 3u, 5u, 7u}) {
      const double u = utilization(p.style, pe, conv_layer(n, n, 7, 7, k, 1));
      if (u == 0.0) continue;  // style does not run conv
      EXPECT_GT(u, 0.0);
      EXPECT_LE(u, 2.25);
    }
    const Layer lstm{"l", LayerKind::Lstm, LstmShape{n, n, 1, 4}};
    const double ul = utilization(p.style, pe, lstm);
    EXPECT_GE(ul, 0.0);
    EXPECT_LE(ul, 2.25);
    const Layer fc{"f", LayerKind::FullyConnected, FcShape{n, n}};
    const double uf = utilization(p.style, pe, fc);
    EXPECT_GE(uf, 0.0);
    EXPECT_LE(uf, 2.25);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StylesAndGeometries, UtilizationRange,
    ::testing::Values(UtilCase{DataflowStyle::ChannelParallel, 64, 7},
                      UtilCase{DataflowStyle::FeatureMapParallel, 16, 16},
                      UtilCase{DataflowStyle::RowStationary, 12, 14},
                      UtilCase{DataflowStyle::Systolic, 64, 32},
                      UtilCase{DataflowStyle::Winograd, 32, 16},
                      UtilCase{DataflowStyle::MatrixEngine, 32, 32},
                      UtilCase{DataflowStyle::LstmPipeline, 32, 32},
                      UtilCase{DataflowStyle::GateParallel, 16, 8}));

}  // namespace
}  // namespace h2h

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Quantitative band vs Figure 11 (NCCL on EC2), plus properties of the
// overlap model. Companion to perf_model_claims_test.cc.
#include <gtest/gtest.h>

#include "sim/perf_model.h"

namespace lpsgd {
namespace {

struct Figure11Case {
  const char* network;
  int bits;  // 0 = full precision
  int gpus;
  double paper_samples_per_sec;
};

class Figure11BandTest : public ::testing::TestWithParam<Figure11Case> {};

TEST_P(Figure11BandTest, ModelWithinFactorTwoOfPaper) {
  const Figure11Case& c = GetParam();
  auto machine = Ec2MachineForGpus(c.gpus);
  ASSERT_TRUE(machine.ok());
  const CodecSpec spec =
      c.bits == 0 ? FullPrecisionSpec() : QsgdSpec(c.bits);
  auto est = EstimateConfiguration(c.network, *machine, spec,
                                   CommPrimitive::kNccl, c.gpus);
  ASSERT_TRUE(est.ok());
  const double ratio = est->SamplesPerSecond() / c.paper_samples_per_sec;
  EXPECT_GT(ratio, 0.5) << c.network << " Q" << c.bits << " x" << c.gpus
                        << " modeled=" << est->SamplesPerSecond();
  EXPECT_LT(ratio, 2.0) << c.network << " Q" << c.bits << " x" << c.gpus
                        << " modeled=" << est->SamplesPerSecond();
}

INSTANTIATE_TEST_SUITE_P(
    Figure11, Figure11BandTest,
    ::testing::Values(Figure11Case{"AlexNet", 0, 8, 1138.30},
                      Figure11Case{"AlexNet", 4, 8, 1247.70},
                      Figure11Case{"AlexNet", 0, 2, 458.20},
                      Figure11Case{"VGG19", 0, 8, 163.10},
                      Figure11Case{"VGG19", 4, 8, 179.50},
                      Figure11Case{"ResNet50", 0, 8, 291.10},
                      Figure11Case{"ResNet50", 2, 8, 304.10},
                      Figure11Case{"ResNet152", 0, 8, 112.10},
                      Figure11Case{"ResNet152", 4, 4, 62.10},
                      Figure11Case{"BN-Inception", 0, 8, 486.70},
                      Figure11Case{"BN-Inception", 4, 8, 598.90}),
    [](const ::testing::TestParamInfo<Figure11Case>& info) {
      std::string name = std::string(info.param.network) + "_Q" +
                         std::to_string(info.param.bits) + "_x" +
                         std::to_string(info.param.gpus);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(OverlapModelTest, OverlappedNeverSlowerNeverFasterThanBothBounds) {
  for (const std::string& name : PerformanceFigureNetworks()) {
    auto stats = FindNetworkStats(name);
    ASSERT_TRUE(stats.ok());
    PerfModel model(*stats, Ec2P2_8xlarge());
    for (CommPrimitive primitive :
         {CommPrimitive::kMpi, CommPrimitive::kNccl}) {
      for (const CodecSpec& spec : {FullPrecisionSpec(), QsgdSpec(4)}) {
        auto est = model.Estimate(spec, primitive, 8);
        ASSERT_TRUE(est.ok()) << name;
        EXPECT_LE(est->OverlappedIterationSeconds(),
                  est->IterationSeconds());
        EXPECT_GE(est->OverlappedIterationSeconds(), est->compute_seconds);
        EXPECT_GE(est->OverlappedIterationSeconds(),
                  est->comm_seconds + est->encode_seconds - 1e-12);
      }
    }
  }
}

TEST(OverlapModelTest, OverlapCannotHideFullPrecisionMpiOnAlexNet) {
  // The insight the bench_ablation_overlap binary prints: on MPI AlexNet
  // fp32 the exchange exceeds the computation, so even ideal overlap
  // leaves communication exposed and quantization still pays.
  auto stats = FindNetworkStats("AlexNet");
  ASSERT_TRUE(stats.ok());
  PerfModel model(*stats, Ec2P2_8xlarge());
  auto fp = model.Estimate(FullPrecisionSpec(), CommPrimitive::kMpi, 8);
  ASSERT_TRUE(fp.ok());
  EXPECT_GT(fp->comm_seconds, fp->compute_seconds);
  auto q4 = model.Estimate(QsgdSpec(4), CommPrimitive::kMpi, 8);
  ASSERT_TRUE(q4.ok());
  EXPECT_LT(q4->OverlappedIterationSeconds(),
            fp->OverlappedIterationSeconds() / 2.0);
}

TEST(TopKPerfTest, HighDensityTopKBarelyBeatsFp32OnTheWire) {
  // Section 7's argument quantified: at 25% density the traffic cut is
  // only 2x; QSGD 4bit manages ~7.9x.
  auto stats = FindNetworkStats("BN-Inception");
  ASSERT_TRUE(stats.ok());
  PerfModel model(*stats, Ec2P2_8xlarge());
  auto fp = model.Estimate(FullPrecisionSpec(), CommPrimitive::kMpi, 8);
  auto topk = model.Estimate(TopKSpec(0.25), CommPrimitive::kMpi, 8);
  auto q4 = model.Estimate(QsgdSpec(4), CommPrimitive::kMpi, 8);
  ASSERT_TRUE(fp.ok());
  ASSERT_TRUE(topk.ok());
  ASSERT_TRUE(q4.ok());
  const double topk_cut = static_cast<double>(fp->wire_bytes) /
                          static_cast<double>(topk->wire_bytes);
  const double q4_cut = static_cast<double>(fp->wire_bytes) /
                        static_cast<double>(q4->wire_bytes);
  EXPECT_LT(topk_cut, 2.5);
  EXPECT_GT(q4_cut, 6.0);
}

TEST(TopKPerfTest, HighDensityTopKOverNcclSendsMoreThanFp32) {
  // Section 7 over NCCL: a sparse blob cannot be summed inside the ring,
  // so every rank allgathers all K blobs. At 25% density each blob is
  // half the fp32 bytes, and K=8 of them send more than the fp32 ring.
  for (const std::string& name : PerformanceFigureNetworks()) {
    auto stats = FindNetworkStats(name);
    ASSERT_TRUE(stats.ok());
    PerfModel model(*stats, Ec2P2_8xlarge());
    auto fp = model.Estimate(FullPrecisionSpec(), CommPrimitive::kNccl, 8);
    auto topk = model.Estimate(TopKSpec(0.25), CommPrimitive::kNccl, 8);
    ASSERT_TRUE(fp.ok());
    ASSERT_TRUE(topk.ok());
    EXPECT_GT(topk->wire_bytes, fp->wire_bytes) << name;
  }
}

}  // namespace
}  // namespace lpsgd

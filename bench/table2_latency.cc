// Table 2: end-to-end packet latency through each middlebox — FastClick
// (every packet visits the server) vs. Gallium (established flows ride the
// switch fast path). Nptcp-style small TCP probes. Both columns are
// cost-model outputs (labeled `model`), printed as is.
//
// Paper values: FastClick 22.4-23.2 µs, Gallium 14.8-16.0 µs (≈31% lower).
#include <cstdio>

#include "bench_common.h"
#include "perf/harness.h"

int main() {
  using namespace gallium;
  const perf::CostModel cost;
  const int kProbeBytes = 64 + 54;  // small Nptcp probe on the wire

  bench::RunManifest manifest("table2_latency", 77);
  manifest.SetConfig("probe_bytes", kProbeBytes);
  manifest.SetConfig("num_flows", 20);

  std::printf("Table 2: latency comparison (us, model)\n");
  bench::PrintRule(40);
  std::printf("%-16s %11s %11s\n", "Middlebox", "FastClick", "Gallium");
  bench::PrintRule(40);

  double sum_reduction = 0;
  int rows = 0;
  for (const auto& entry : bench::PaperMiddleboxes()) {
    auto profile = perf::ProfileMiddlebox(entry.build, /*num_flows=*/20);
    if (!profile.ok()) {
      std::printf("%-16s PROFILE ERROR: %s\n", entry.display_name.c_str(),
                  profile.status().ToString().c_str());
      continue;
    }
    const double fastclick =
        perf::FastClickLatencyUs(cost, profile->baseline_stats, kProbeBytes);
    const double gallium = perf::OffloadedFastPathLatencyUs(cost, kProbeBytes);
    std::printf("%-16s %11.2f %11.2f\n", entry.display_name.c_str(),
                fastclick, gallium);
    for (const auto& [system, us] :
         {std::pair{"fastclick", fastclick}, std::pair{"gallium", gallium}}) {
      manifest.RecordResult("bench_latency_us",
                            {{"mbox", entry.display_name}, {"system", system}},
                            us, "end-to-end one-way latency, model");
    }
    sum_reduction += 1.0 - gallium / fastclick;
    ++rows;
  }
  bench::PrintRule(40);
  if (rows > 0) {
    std::printf("Mean latency reduction: %.0f%%  (paper: ~31%%)\n",
                100.0 * sum_reduction / rows);
  }
  std::printf(
      "Paper: FastClick 22.45-23.16 us, Gallium 14.80-15.98 us across the\n"
      "five middleboxes.\n");
  if (rows > 0) {
    manifest.RecordResult("bench_latency_reduction", {},
                          sum_reduction / rows,
                          "mean Gallium latency reduction vs FastClick");
  }
  manifest.Write();
  return 0;
}

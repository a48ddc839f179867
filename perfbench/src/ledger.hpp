#pragma once
// Metric math of the repository benchmark, kept free of simulator types so
// its tests can pin every formula: medians with their sample counts, the
// per-hop cost difference, the sliced fault-to-report latency, the Table-1
// grade over a set of trials, and the base of every ratio the benchmark
// prints.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A median together with the number of samples behind it.
struct Summary {
  double median = 0.0;
  std::size_t samples = 0;
};

/// Median of `values` (mean of the two middle values for an even count);
/// 0 with zero samples.
[[nodiscard]] Summary summarize(std::vector<double> values);

/// `numerator / denominator`, or 0 when the denominator is 0. Every ratio
/// the benchmark prints goes through here so a missing base reads 0, not
/// NaN.
[[nodiscard]] double ratio(double numerator, double denominator);

/// Data-plane cost per packet hop, in nanoseconds: the wall time a run
/// with the observer under test takes beyond the bare run of the same
/// trial, over the hops of that trial. 0 when no hop was counted.
[[nodiscard]] double ns_per_hop(double run_s, double bare_run_s,
                                std::uint64_t hops);

/// One slice of a sliced simulator run: the virtual time it ran to and
/// the wall clock (seconds, any fixed origin) when it returned.
struct Slice {
  std::int64_t virtual_end_ns = 0;
  double wall_end_s = 0.0;
};

/// Wall seconds from fault onset to the end of the first slice whose
/// virtual end reaches `report_at_ns` (the report exists once that slice
/// has returned). `slices` are in run order; `fault_wall_s` is the wall
/// clock when the run reached the fault. nullopt when no slice reaches
/// the report.
[[nodiscard]] std::optional<double> report_wall_s(
    const std::vector<Slice>& slices, double fault_wall_s,
    std::int64_t report_at_ns);

/// Graded trials per wall second: the number of trials over the sum of
/// each trial's median wall time (one inner vector of samples per trial;
/// trials without samples are skipped).
[[nodiscard]] double trials_per_s(
    const std::vector<std::vector<double>>& trial_walls);

/// In-band telemetry bytes over packets injected (the Fig. 9 x-axis).
[[nodiscard]] double bytes_per_packet(double bytes, double packets_injected);

/// Traced throughput over untraced throughput of the same trials, from
/// their summed wall times: untraced wall over traced wall.
[[nodiscard]] double overhead_ratio(double traced_wall_s,
                                    double untraced_wall_s);

/// Table-1 grading of one system over a set of trials.
struct Grade {
  std::size_t trials = 0;
  double recall_at_1_pct = 0.0;
  double exam_score = 0.0;
};

/// Grade from the rank of the truth in each trial (nullopt: not ranked).
/// Recall@1 and the exam score are taken over all the trials together, as
/// metrics::LocalizationStats grades Table 1, never per trial.
[[nodiscard]] Grade grade(const std::vector<std::optional<std::size_t>>& ranks);

/// Bytes over the kilobyte base the benchmark uses (1000 bytes).
[[nodiscard]] double kilobytes(double bytes);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep all their digits.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench

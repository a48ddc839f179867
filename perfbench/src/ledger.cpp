#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "metrics/ranking.hpp"

namespace perfbench {

Summary summarize(std::vector<double> values) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1 ? values[mid]
                                    : (values[mid - 1] + values[mid]) / 2.0;
  return s;
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double ns_per_hop(double run_s, double bare_run_s, std::uint64_t hops) {
  return ratio((run_s - bare_run_s) * 1e9, static_cast<double>(hops));
}

std::optional<double> report_wall_s(const std::vector<Slice>& slices,
                                    double fault_wall_s,
                                    std::int64_t report_at_ns) {
  for (const Slice& slice : slices) {
    if (slice.virtual_end_ns >= report_at_ns) {
      return slice.wall_end_s - fault_wall_s;
    }
  }
  return std::nullopt;
}

double trials_per_s(const std::vector<std::vector<double>>& trial_walls) {
  double wall = 0.0;
  std::size_t trials = 0;
  for (const auto& samples : trial_walls) {
    if (samples.empty()) continue;
    wall += summarize(samples).median;
    ++trials;
  }
  return ratio(static_cast<double>(trials), wall);
}

double bytes_per_packet(double bytes, double packets_injected) {
  return ratio(bytes, packets_injected);
}

double overhead_ratio(double traced_wall_s, double untraced_wall_s) {
  return ratio(untraced_wall_s, traced_wall_s);
}

Grade grade(const std::vector<std::optional<std::size_t>>& ranks) {
  mars::metrics::LocalizationStats stats;
  for (const auto& rank : ranks) stats.add(rank);
  return {stats.trials(), 100.0 * stats.recall_at(1), stats.exam_score()};
}

double kilobytes(double bytes) { return bytes / 1000.0; }

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

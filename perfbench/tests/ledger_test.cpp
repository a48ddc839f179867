// Metric math of the repository benchmark.

#include "ledger.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Summarize, OddCountTakesTheMiddleValue) {
  const Summary s = summarize({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_EQ(s.samples, 3u);
}

TEST(Summarize, EvenCountAveragesTheMiddlePair) {
  const Summary s = summarize({4.0, 1.0, 2.0, 10.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_EQ(s.samples, 4u);
}

TEST(Summarize, NoSamplesReadsZeroWithCountZero) {
  const Summary s = summarize({});
  EXPECT_DOUBLE_EQ(s.median, 0.0);
  EXPECT_EQ(s.samples, 0u);
}

TEST(Ratio, ZeroBaseReadsZero) {
  EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
}

TEST(NsPerHop, IsTheRunDifferenceOverHops) {
  // 0.30 s with the observer, 0.10 s bare, 4e6 hops: 50 ns per hop.
  EXPECT_DOUBLE_EQ(ns_per_hop(0.30, 0.10, 4'000'000), 50.0);
}

TEST(NsPerHop, ZeroHopsReadsZero) {
  EXPECT_DOUBLE_EQ(ns_per_hop(0.30, 0.10, 0), 0.0);
}

TEST(NsPerHop, FasterThanBareGivesANegativeCost) {
  // Noise can make the observer run faster than the bare run; the
  // difference is reported as measured, not clamped.
  EXPECT_LT(ns_per_hop(0.09, 0.10, 1'000'000), 0.0);
}

TEST(ReportWall, EndsAtTheFirstSliceThatReachesTheReport) {
  const std::vector<Slice> slices = {
      {100, 10.5}, {200, 10.9}, {300, 11.4}, {400, 12.0}};
  // Reported at virtual 250: it exists once the slice ending at 300 ran.
  const auto latency = report_wall_s(slices, 10.0, 250);
  ASSERT_TRUE(latency.has_value());
  EXPECT_DOUBLE_EQ(*latency, 1.4);
}

TEST(ReportWall, ASliceEndingExactlyAtTheReportCounts) {
  const std::vector<Slice> slices = {{100, 10.5}, {200, 10.9}};
  EXPECT_DOUBLE_EQ(*report_wall_s(slices, 10.0, 200), 10.9 - 10.0);
}

TEST(ReportWall, NoSliceReachesTheReport) {
  const std::vector<Slice> slices = {{100, 10.5}};
  EXPECT_FALSE(report_wall_s(slices, 10.0, 150).has_value());
  EXPECT_FALSE(report_wall_s({}, 10.0, 0).has_value());
}

TEST(TrialsPerSecond, UsesEachTrialsMedianWall) {
  // Trial 0 had one slow pass (3.0 s) and trial 1 none; the medians are
  // 1.0 s and 0.5 s, so two trials take 1.5 s: 4/3 trials per second.
  const std::vector<std::vector<double>> walls = {{1.0, 3.0, 1.0},
                                                  {0.5, 0.5, 0.6}};
  EXPECT_DOUBLE_EQ(trials_per_s(walls), 2.0 / 1.5);
}

TEST(TrialsPerSecond, SkipsTrialsWithoutSamples) {
  EXPECT_DOUBLE_EQ(trials_per_s({{2.0}, {}}), 0.5);
  EXPECT_DOUBLE_EQ(trials_per_s({}), 0.0);
}

TEST(BytesPerPacket, BaseIsPacketsInjected) {
  EXPECT_DOUBLE_EQ(bytes_per_packet(4180.0, 1000.0), 4.18);
  EXPECT_DOUBLE_EQ(bytes_per_packet(4180.0, 0.0), 0.0);
}

TEST(OverheadRatio, IsTracedThroughputOverUntraced) {
  // The same trials take 2.0 s traced and 1.6 s untraced: traced
  // throughput is 0.8 of untraced.
  EXPECT_DOUBLE_EQ(overhead_ratio(2.0, 1.6), 0.8);
  EXPECT_DOUBLE_EQ(overhead_ratio(0.0, 1.6), 0.0);
}

TEST(Grade, RecallIsAPercentOfAllTrials) {
  // Two of three trials rank the truth first: 66.7 %, where a median of
  // per-trial recalls (100, 100, 0) would read 100.
  const Grade g = grade({1, 1, 3});
  EXPECT_EQ(g.trials, 3u);
  EXPECT_DOUBLE_EQ(g.recall_at_1_pct, 200.0 / 3.0);
}

TEST(Grade, ExamIsTheMeanFalsePositivesOverAllTrials) {
  // Ranks 1, 2, 6 and unranked cost 0, 1, 10 and 10: mean 21 / 4, where a
  // median of per-trial exams would read 5.5.
  const Grade g = grade({1, 2, 6, std::nullopt});
  EXPECT_DOUBLE_EQ(g.exam_score, 21.0 / 4.0);
  EXPECT_DOUBLE_EQ(g.recall_at_1_pct, 25.0);
}

TEST(Grade, NoTrialsReadsZeroRecall) {
  const Grade g = grade({});
  EXPECT_EQ(g.trials, 0u);
  EXPECT_DOUBLE_EQ(g.recall_at_1_pct, 0.0);
}

TEST(Kilobytes, UsesABaseOfOneThousand) {
  EXPECT_DOUBLE_EQ(kilobytes(2500.0), 2.5);
}

TEST(ResultJson, HasTheFourKeysAndKeepsAllDigits) {
  const std::string json = result_json(
      true, 12, 0, {{"latency_ms", 1.2034567890123, "ms"},
                    {"recall_at_1.mars", 40.0, "%"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567890123, "
            "\"unit\": \"ms\"}, \"recall_at_1.mars\": {\"value\": 40, "
            "\"unit\": \"%\"}}}");
}

TEST(ResultJson, FailedRunsReportCorrectFalse) {
  const std::string json = result_json(false, 3, 1, {});
  EXPECT_EQ(json,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {}}");
}

}  // namespace
}  // namespace perfbench

#include "baselines/syndb.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "sim/simulator.hpp"

namespace mars::baselines {

namespace {

/// Index of the first record at or after `from` in a time-sorted column:
/// records before it are a query's baseline, the rest its problem window.
template <typename Column, typename Proj = std::identity>
std::size_t split(const Column& column, sim::Time from, Proj proj = {}) {
  return static_cast<std::size_t>(
      std::ranges::lower_bound(column, from, {}, proj) - column.begin());
}

}  // namespace

SynDb::SynDb(SynDbConfig config) : config_(config) {}

SynDb::Columns& SynDb::columns(net::SwitchId sw) {
  if (sw >= switches_.size()) switches_.resize(sw + 1);
  return switches_[sw];
}

void SynDb::on_ingress(net::SwitchContext& ctx, net::Packet& pkt) {
  // Only the source hop's ingress feeds a query (the burst query's
  // per-flow rate); the other hops' records are charged but not kept.
  ++records_;
  if (pkt.flow.source != ctx.id) return;
  auto& column = columns(ctx.id).sourced[pkt.flow.sink];
  assert(column.empty() || column.back() <= ctx.sim.now());
  column.push_back(ctx.sim.now());
}

void SynDb::on_egress(net::SwitchContext& ctx, net::Packet& /*pkt*/,
                      net::PortId out, sim::Time hop_latency) {
  ++records_;
  auto& ports = columns(ctx.id).egress;
  if (out >= ports.size()) ports.resize(out + 1);
  auto& column = ports[out];
  assert(column.empty() || column.back().when <= ctx.sim.now());
  const std::int64_t before = column.empty() ? 0 : column.back().latency_sum;
  column.push_back(Egress{ctx.sim.now(), before + hop_latency});
}

void SynDb::on_drop(net::SwitchContext& ctx, const net::Packet& /*pkt*/,
                    net::PortId /*out*/) {
  // A real SyNDB sees the drop implicitly (record present at switch k,
  // absent at k+1); we record the terminal hop explicitly to run the same
  // differential query cheaply.
  ++records_;
  auto& column = columns(ctx.id).drops;
  assert(column.empty() || column.back() <= ctx.sim.now());
  column.push_back(ctx.sim.now());
}

rca::CulpritList SynDb::diagnose_with_hint(faults::FaultKind hint,
                                           sim::Time now) const {
  switch (hint) {
    case faults::FaultKind::kMicroBurst:
      return query_burst(now);
    case faults::FaultKind::kEcmpImbalance:
      return query_ecmp(now);
    case faults::FaultKind::kProcessRateDecrease:
      return query_latency_per_switch(now,
                                      rca::CauseKind::kProcessRateDecrease);
    case faults::FaultKind::kDelay:
      return query_latency_per_switch(now, rca::CauseKind::kDelay);
    case faults::FaultKind::kDrop:
    case faults::FaultKind::kLinkFlap:
    case faults::FaultKind::kAsymmetricLoss:
      return query_drop(now);
    case faults::FaultKind::kSlowDrain:
      return query_latency_per_switch(now,
                                      rca::CauseKind::kProcessRateDecrease);
    case faults::FaultKind::kLoadGatedDelay:
      return query_latency_per_switch(now, rca::CauseKind::kDelay);
    case faults::FaultKind::kNotificationLoss:
    case faults::FaultKind::kReadOutage:
      return {};  // channel chaos is not a queryable network incident
  }
  return {};
}

// Every query emits candidates in ascending switch (flow) order, then
// ranks them with one unstable sort, so equal scores come out in the same
// order as from a std::map-keyed scan of a flat record log. Latency sums
// are integer nanoseconds, exact in int64 and in the double they convert
// to (below 2^53).

rca::CulpritList SynDb::query_latency_per_switch(sim::Time now,
                                                 rca::CauseKind cause) const {
  // Per-switch mean hop latency: problem window vs everything before.
  const sim::Time from = now - config_.window;
  rca::CulpritList out;
  for (std::size_t sw = 0; sw < switches_.size(); ++sw) {
    std::int64_t base_sum = 0, prob_sum = 0;
    std::uint64_t base_n = 0, prob_n = 0;
    for (const auto& column : switches_[sw].egress) {
      if (column.empty()) continue;
      const std::size_t i = split(column, from, &Egress::when);
      const std::int64_t before = i > 0 ? column[i - 1].latency_sum : 0;
      base_sum += before;
      base_n += i;
      prob_sum += column.back().latency_sum - before;
      prob_n += column.size() - i;
    }
    if (prob_n == 0) continue;
    const double prob =
        static_cast<double>(prob_sum) / static_cast<double>(prob_n);
    const double base =
        base_n > 0 ? static_cast<double>(base_sum) / static_cast<double>(base_n)
                   : 1.0;
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {static_cast<net::SwitchId>(sw)};
    c.cause = cause;
    c.score = prob / std::max(base, 1.0);
    out.push_back(std::move(c));
  }
  return ranked(std::move(out));
}

rca::CulpritList SynDb::query_drop(sim::Time now) const {
  // Differential per-switch loss in the window.
  const sim::Time from = now - config_.window;
  rca::CulpritList out;
  for (std::size_t sw = 0; sw < switches_.size(); ++sw) {
    const auto& drops = switches_[sw].drops;
    const std::size_t n = drops.size() - split(drops, from);
    if (n == 0) continue;
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {static_cast<net::SwitchId>(sw)};
    c.cause = rca::CauseKind::kDrop;
    c.score = static_cast<double>(n);
    out.push_back(std::move(c));
  }
  return ranked(std::move(out));
}

rca::CulpritList SynDb::query_burst(sim::Time now) const {
  // Per-flow pps: problem window vs baseline, counted once per packet at
  // the flow's source. The baseline runs from the first such record.
  const sim::Time from = now - config_.window;
  sim::Time earliest = now;
  for (const Columns& s : switches_) {
    for (const auto& [sink, times] : s.sourced) {
      earliest = std::min(earliest, times.front());
    }
  }
  const double base_seconds =
      std::max(sim::to_seconds(from - earliest), 1e-3);
  const double prob_seconds = std::max(sim::to_seconds(config_.window), 1e-3);
  rca::CulpritList out;
  for (std::size_t sw = 0; sw < switches_.size(); ++sw) {
    for (const auto& [sink, times] : switches_[sw].sourced) {
      const std::size_t base = split(times, from);
      const double base_pps = static_cast<double>(base) / base_seconds;
      const double prob_pps =
          static_cast<double>(times.size() - base) / prob_seconds;
      rca::Culprit c;
      c.level = rca::CulpritLevel::kFlow;
      c.flow = {static_cast<net::SwitchId>(sw), sink};
      c.cause = rca::CauseKind::kMicroBurst;
      c.score = prob_pps / std::max(base_pps, 1.0);
      out.push_back(std::move(c));
    }
  }
  return ranked(std::move(out));
}

rca::CulpritList SynDb::query_ecmp(sim::Time now) const {
  // Per-switch egress-port split: problem window vs baseline. The faulty
  // chooser's split skews the most. A side's imbalance is max/min over the
  // ports with at least one record on that side; 1 with fewer than two.
  struct Side {
    std::uint64_t lo = UINT64_MAX, hi = 0;
    std::size_t ports = 0;
    void add(std::uint64_t n) {
      if (n == 0) return;
      ++ports;
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    [[nodiscard]] double imbalance() const {
      return ports < 2 ? 1.0
                       : static_cast<double>(hi) / static_cast<double>(lo);
    }
  };
  const sim::Time from = now - config_.window;
  rca::CulpritList out;
  for (std::size_t sw = 0; sw < switches_.size(); ++sw) {
    Side base, prob;
    for (const auto& column : switches_[sw].egress) {
      const std::size_t i = split(column, from, &Egress::when);
      base.add(i);
      prob.add(column.size() - i);
    }
    if (base.ports + prob.ports == 0) continue;  // no egress records
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {static_cast<net::SwitchId>(sw)};
    c.cause = rca::CauseKind::kEcmpImbalance;
    c.score = prob.imbalance() / std::max(base.imbalance(), 1.0);
    out.push_back(std::move(c));
  }
  return ranked(std::move(out));
}

rca::CulpritList SynDb::ranked(rca::CulpritList out) const {
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

OverheadReport SynDb::overheads() const {
  OverheadReport report;
  report.telemetry_bytes = 0;  // no INT headers
  report.diagnosis_bytes = records_ * config_.record_bytes;
  return report;
}

}  // namespace mars::baselines

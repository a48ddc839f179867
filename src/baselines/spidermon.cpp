#include "baselines/spidermon.hpp"

#include <algorithm>

#include "sim/simulator.hpp"

namespace mars::baselines {

SpiderMon::SpiderMon(std::size_t switch_count, SpiderMonConfig config)
    : config_(config),
      switch_count_(switch_count),
      queues_(switch_count),
      in_degree_(switch_count * switch_count),
      out_degree_(switch_count * switch_count),
      switch_weight_(switch_count) {}

std::deque<SpiderMon::Run>& SpiderMon::queue(net::SwitchId sw,
                                             net::PortId port) {
  auto& ports = queues_[sw];
  if (port >= ports.size()) ports.resize(port + std::size_t{1});
  return ports[port];
}

void SpiderMon::fold(const RunEdge& edge) {
  in_degree_[edge.holder] += edge.count;
  out_degree_[edge.waiter] += edge.count;
  switch_weight_[edge.at] += edge.count;
  // Mixed-radix key (at, waiter, holder); exact while switch_count^5
  // fits in 64 bits (switch_count < 7000).
  const std::uint64_t flows = in_degree_.size();
  triples_.insert((edge.at * flows + edge.waiter) * flows + edge.holder);
}

void SpiderMon::on_enqueue(net::SwitchContext& ctx, net::Packet& pkt,
                           net::PortId out, std::uint32_t /*queue_depth*/) {
  auto& runs = queue(ctx.id, out);
  const sim::Time now = ctx.sim.now();
  const std::uint32_t waiter = dense_flow_index(pkt.flow, switch_count_);
  // The arriving packet waits for everything already queued (including its
  // own flow's packets — the self-burst blind spot).
  for (const Run& run : runs) {
    const RunEdge edge{now, waiter, run.flow, ctx.id, run.count};
    if (triggered_) {
      fold(edge);
    } else {
      pending_.push_back(edge);
    }
  }
  if (!triggered_) {
    // The trigger, when it comes, is at or after now, so an edge older
    // than now - window can never fall inside its window.
    while (!pending_.empty() && pending_.front().when < now - config_.window) {
      pending_.pop_front();
    }
  }
  if (!runs.empty() && runs.back().flow == waiter) {
    ++runs.back().count;
  } else {
    runs.push_back(Run{waiter, 1});
  }
}

void SpiderMon::on_egress(net::SwitchContext& ctx, net::Packet& pkt,
                          net::PortId out, sim::Time hop_latency) {
  auto& runs = queue(ctx.id, out);
  if (!runs.empty() && --runs.front().count == 0) runs.pop_front();
  overheads_.telemetry_bytes += config_.header_bytes;

  // Accumulate queueing delay into the packet's in-band header.
  pkt.spidermon_delay += hop_latency;
  if (!triggered_ && pkt.spidermon_delay > config_.queue_delay_threshold) {
    triggered_ = true;
    trigger_time_ = ctx.sim.now();
    const sim::Time from = trigger_time_ - config_.window;
    for (const RunEdge& edge : pending_) {
      if (edge.when >= from) fold(edge);
    }
    std::deque<RunEdge>().swap(pending_);
  }
}

rca::CulpritList SpiderMon::diagnose() {
  if (!triggered_) return {};  // nothing to collect: it never noticed

  // Candidates in ascending flow, then switch, order: the sort below is
  // not stable, so this order is part of the ranked output.
  rca::CulpritList out;
  // Flow culprits: other flows wait for the culprit, so it has a large
  // indegree and small outdegree.
  for (std::size_t f = 0; f < in_degree_.size(); ++f) {
    const std::int64_t score = in_degree_[f] - out_degree_[f];
    if (score <= 0) continue;
    rca::Culprit c;
    c.level = rca::CulpritLevel::kFlow;
    c.flow = {static_cast<net::SwitchId>(f / switch_count_),
              static_cast<net::SwitchId>(f % switch_count_)};
    c.cause = rca::CauseKind::kMicroBurst;
    c.score = static_cast<double>(score);
    out.push_back(std::move(c));
  }
  // Switch culprits: where the wait-for relations concentrate.
  for (std::size_t sw = 0; sw < switch_weight_.size(); ++sw) {
    if (switch_weight_[sw] == 0) continue;
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {static_cast<net::SwitchId>(sw)};
    c.cause = rca::CauseKind::kProcessRateDecrease;
    c.score = static_cast<double>(switch_weight_[sw]);
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const rca::Culprit& a, const rca::Culprit& b) {
              return a.score > b.score;
            });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

OverheadReport SpiderMon::overheads() const {
  OverheadReport report = overheads_;
  if (triggered_) {
    // On trigger, ALL switches upload their wait-for state. A switch
    // aggregates repeat edges into counters, so the upload is one record
    // per distinct (switch, waiter, holder) triple in the window.
    report.diagnosis_bytes += triples_.size() * config_.record_bytes;
  }
  return report;
}

}  // namespace mars::baselines

#pragma once
// SpiderMon (Wang et al., NSDI'22) — reimplementation of its
// diagnosis-relevant subset, as characterized in MARS §5.4/§6:
//
//   - every packet carries a small INT header (cumulative queueing delay,
//     4 bytes) — much lighter than IntSight's;
//   - a switch triggers when a packet's cumulative queueing delay exceeds
//     a *static* threshold; telemetry is then pulled from ALL switches
//     (including core), unlike MARS's edge-only collection;
//   - diagnosis builds a Wait-For Graph between flows that share queues in
//     the problem window and ranks by vertex degree (indegree −
//     outdegree); switch locations are ranked by wait-for concentration.
//
// Reproduced limitations: it senses only queueing anomalies, so delay and
// drop faults never trigger it; and a flow that bursts against itself has
// indegree ≈ outdegree, hiding the culprit.
//
// The wait-for graph is streamed, not logged: each queue is mirrored as
// runs of (flow, count), an arrival adds one weighted edge per run, and
// only the edges the diagnosis can still count are kept (see DESIGN.md
// "SpiderMon streaming wait-for graph").

#include <deque>
#include <unordered_set>
#include <vector>

#include "baselines/baseline.hpp"
#include "net/types.hpp"

namespace mars::baselines {

struct SpiderMonConfig {
  /// Static cumulative-queueing-delay trigger.
  sim::Time queue_delay_threshold = 5 * sim::kMillisecond;
  /// Wait-for edges older than this are ignored at diagnosis time.
  sim::Time window = 1 * sim::kSecond;
  /// Per-packet INT header bytes (cumulative latency only).
  std::uint32_t header_bytes = 4;
  /// Bytes per wait-for record a switch uploads on collection.
  std::uint32_t record_bytes = 12;
  std::size_t max_culprits = 20;
};

class SpiderMon final : public BaselineSystem {
 public:
  SpiderMon(std::size_t switch_count, SpiderMonConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "SpiderMon"; }
  [[nodiscard]] rca::CulpritList diagnose() override;
  [[nodiscard]] OverheadReport overheads() const override;
  [[nodiscard]] bool triggered() const override { return triggered_; }
  [[nodiscard]] sim::Time trigger_time() const { return trigger_time_; }

  // ---- PacketObserver ----
  void on_enqueue(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                  std::uint32_t queue_depth) override;
  /// Adds the hop latency to the packet's in-band delay header
  /// (`pkt.spidermon_delay`) and triggers when it crosses the threshold.
  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override;

 private:
  /// `count` consecutive queued packets of one flow (dense flow index).
  struct Run {
    std::uint32_t flow;
    std::uint32_t count;
  };
  /// `count` wait-for edges waiter -> holder at switch `at`, all made at
  /// `when` by one arrival queueing behind one run.
  struct RunEdge {
    sim::Time when;
    std::uint32_t waiter;
    std::uint32_t holder;
    net::SwitchId at;
    std::uint32_t count;
  };

  [[nodiscard]] std::deque<Run>& queue(net::SwitchId sw, net::PortId port);
  /// Add a run-edge to the trigger window's aggregates.
  void fold(const RunEdge& edge);

  SpiderMonConfig config_;
  std::size_t switch_count_;
  /// Run-length FIFO mirror of each queue, indexed [switch][port].
  std::vector<std::vector<std::deque<Run>>> queues_;
  /// Before the trigger: run-edges no older than `window`, oldest first.
  std::deque<RunEdge> pending_;
  /// After the trigger: wait-for degrees over edges with
  /// when >= trigger_time - window, by dense flow index and by switch.
  std::vector<std::int64_t> in_degree_, out_degree_, switch_weight_;
  /// Distinct (switch, waiter, holder) triples in the window, packed.
  std::unordered_set<std::uint64_t> triples_;
  OverheadReport overheads_;
  bool triggered_ = false;
  sim::Time trigger_time_ = 0;
};

}  // namespace mars::baselines

#include "baselines/intsight.hpp"
#include "baselines/spidermon.hpp"
#include "baselines/syndb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "control/path_registry.hpp"
#include "dataplane/mars_pipeline.hpp"
#include "mars/scenario.hpp"
#include "net/fat_tree.hpp"
#include "sim/simulator.hpp"
#include "telemetry/int_md_backend.hpp"
#include "util/rng.hpp"

namespace mars::baselines {
namespace {

using namespace mars::sim::literals;

struct Fixture {
  sim::Simulator sim;
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Network net{sim, ft.topology};

  void traffic(net::FlowId flow, std::uint32_t hash, int count,
               sim::Time gap, sim::Time start = 0) {
    for (int i = 0; i < count; ++i) {
      sim.schedule_in(start + gap * i, [this, flow, hash] {
        net.inject(flow, hash, 500);
      });
    }
  }
};

TEST(SpiderMonTest, NoTriggerOnHealthyTraffic) {
  Fixture f;
  SpiderMon sm(f.ft.topology.switch_count());
  f.net.add_observer(sm);
  f.traffic({f.ft.edge[0], f.ft.edge[1]}, 5, 100, 5_ms);
  f.sim.run();
  EXPECT_FALSE(sm.triggered());
  EXPECT_TRUE(sm.diagnose().empty());
  EXPECT_GT(sm.overheads().telemetry_bytes, 0u);  // headers always ride
  EXPECT_EQ(sm.overheads().diagnosis_bytes, 0u);  // but nothing collected
}

TEST(SpiderMonTest, QueueingDelayTriggersAndLocalizesSwitch) {
  Fixture f;
  SpiderMon sm(f.ft.topology.switch_count());
  f.net.add_observer(sm);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  // Two flows sharing the throttled queue create wait-for edges.
  f.traffic(flow, 5, 100, 2_ms);
  f.traffic(flow, 1234567, 100, 2_ms);
  f.sim.run();
  ASSERT_TRUE(sm.triggered());
  const auto culprits = sm.diagnose();
  ASSERT_FALSE(culprits.empty());
  bool found = false;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, culprits.size());
       ++i) {
    if (culprits[i].level == rca::CulpritLevel::kSwitch &&
        culprits[i].location == std::vector<net::SwitchId>{flow.source}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(sm.overheads().diagnosis_bytes, 0u);
}

TEST(SpiderMonTest, NoTriggerOnPureDelayFault) {
  Fixture f;
  SpiderMon sm(f.ft.topology.switch_count());
  f.net.add_observer(sm);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_extra_delay(out, 20_ms);  // outside the queue
  f.traffic(flow, 5, 100, 5_ms);
  f.sim.run();
  EXPECT_FALSE(sm.triggered());  // the paper's "-" cell
}

// ---- SpiderMon: recorded outcomes and the per-edge reference ------------

void expect_same_culprits(const rca::CulpritList& got,
                          const rca::CulpritList& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("culprit #" + std::to_string(i + 1));
    EXPECT_EQ(got[i].level, want[i].level);
    EXPECT_EQ(got[i].location, want[i].location);
    EXPECT_EQ(got[i].port, want[i].port);
    EXPECT_EQ(got[i].flow, want[i].flow);
    EXPECT_EQ(got[i].cause, want[i].cause);
    EXPECT_EQ(got[i].score, want[i].score);
  }
}

rca::Culprit sw(net::SwitchId id, double score) {
  rca::Culprit c;
  c.level = rca::CulpritLevel::kSwitch;
  c.location = {id};
  c.cause = rca::CauseKind::kProcessRateDecrease;
  c.score = score;
  return c;
}

rca::Culprit flow(net::SwitchId source, net::SwitchId sink, double score) {
  rca::Culprit c;
  c.level = rca::CulpritLevel::kFlow;
  c.flow = {source, sink};
  c.cause = rca::CauseKind::kMicroBurst;
  c.score = score;
  return c;
}

struct SpiderMonGolden {
  faults::FaultKind fault;
  std::uint64_t seed;
  bool triggered;
  std::uint64_t telemetry_bytes;
  std::uint64_t diagnosis_bytes;
  rca::CulpritList culprits;
};

// SpiderMon's complete outcome on Table-1 trials (default_scenario, all
// four systems deployed), recorded from the per-edge wait-for log that
// the streaming graph replaced. Equal scores (flow <7,19> and switch 15
// below) pin the candidate order fed to the ranking sort as well.
TEST(SpiderMonTest, Table1TrialsMatchRecordedOutcomes) {
  using faults::FaultKind;
  const SpiderMonGolden goldens[] = {
    {FaultKind::kMicroBurst, 1000, true, 694196, 2028,
     {sw(14, 3030101), sw(8, 1643747), flow(14, 11, 370763), sw(9, 8743),
      sw(6, 7305), sw(5, 5646), sw(12, 5440), sw(7, 4280), sw(16, 2779),
      sw(13, 2669), sw(15, 2396), sw(10, 2222), sw(1, 2162), sw(2, 2159),
      sw(3, 1603), sw(11, 1472), sw(19, 1418), sw(17, 1210), sw(18, 1136),
      sw(0, 673)}},
    {FaultKind::kEcmpImbalance, 1037, true, 983432, 3576,
     {sw(13, 140306), sw(17, 12416), sw(9, 12214), sw(7, 10309), sw(18, 9128),
      sw(10, 8081), sw(19, 7831), sw(5, 6906), sw(4, 6472), sw(6, 5712),
      sw(15, 4916), sw(11, 4271), sw(12, 4139), sw(14, 3993), sw(8, 3810),
      sw(2, 2989), sw(16, 2478), sw(0, 2119), sw(3, 1804), sw(1, 1308)}},
    {FaultKind::kProcessRateDecrease, 1074, true, 625056, 2400,
     {sw(7, 1201446), sw(13, 4781), sw(17, 4416), flow(7, 19, 3098),
      sw(15, 3098), sw(14, 2827), sw(4, 2621), sw(9, 2162), sw(5, 2044),
      sw(8, 1931), sw(12, 1816), sw(18, 1467), sw(10, 1312), sw(11, 1208),
      sw(19, 1169), sw(6, 1088), sw(0, 1064), sw(2, 725), sw(1, 689),
      sw(3, 623)}},
    {FaultKind::kDrop, 1000, false, 664980, 0, {}},  // never triggers
  };
  for (const auto& g : goldens) {
    SCOPED_TRACE(std::string(faults::to_string(g.fault)) + " seed " +
                 std::to_string(g.seed));
    const ScenarioResult result =
        run_scenario(default_scenario(g.fault, g.seed));
    const SystemOutcome& outcome = result.outcome("spidermon");
    EXPECT_EQ(outcome.triggered, g.triggered);
    EXPECT_EQ(outcome.telemetry_bytes, g.telemetry_bytes);
    EXPECT_EQ(outcome.diagnosis_bytes, g.diagnosis_bytes);
    expect_same_culprits(outcome.culprits, g.culprits);
  }
}

/// Reference SpiderMon: logs one wait-for edge per queued packet and
/// rescans the whole log on every query. Same trigger, window and ranking
/// as SpiderMon; the streaming implementation must agree with it exactly.
class EdgeLogSpiderMon {
 public:
  explicit EdgeLogSpiderMon(SpiderMonConfig config) : config_(config) {}

  void on_enqueue(net::SwitchContext& ctx, net::Packet& pkt,
                  net::PortId out) {
    auto& queue = queues_[{ctx.id, out}];
    for (const net::FlowId& holder : queue) {
      edges_.push_back(Edge{ctx.sim.now(), pkt.flow, holder, ctx.id});
    }
    queue.push_back(pkt.flow);
  }

  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) {
    auto& queue = queues_[{ctx.id, out}];
    if (!queue.empty()) queue.erase(queue.begin());
    telemetry_bytes_ += config_.header_bytes;
    sim::Time& carried = carried_delay_[pkt.id];
    carried += hop_latency;
    if (!triggered_ && carried > config_.queue_delay_threshold) {
      triggered_ = true;
      trigger_time_ = ctx.sim.now();
    }
  }

  void forget(const net::Packet& pkt) { carried_delay_.erase(pkt.id); }

  [[nodiscard]] rca::CulpritList diagnose() const {
    if (!triggered_) return {};
    const sim::Time from = trigger_time_ - config_.window;
    std::map<net::FlowId, std::int64_t> in_degree, out_degree;
    std::map<net::SwitchId, std::int64_t> switch_weight;
    for (const Edge& e : edges_) {
      if (e.when < from) continue;
      ++in_degree[e.holder];
      ++out_degree[e.waiter];
      ++switch_weight[e.at];
    }
    rca::CulpritList out;
    for (const auto& [f, in] : in_degree) {
      const std::int64_t score = in - out_degree[f];
      if (score > 0) out.push_back(flow(f.source, f.sink, score));
    }
    for (const auto& [id, weight] : switch_weight) {
      out.push_back(sw(id, static_cast<double>(weight)));
    }
    std::sort(out.begin(), out.end(),
              [](const rca::Culprit& a, const rca::Culprit& b) {
                return a.score > b.score;
              });
    if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
    return out;
  }

  [[nodiscard]] OverheadReport overheads() const {
    OverheadReport report;
    report.telemetry_bytes = telemetry_bytes_;
    if (triggered_) {
      const sim::Time from = trigger_time_ - config_.window;
      std::set<std::tuple<net::SwitchId, net::FlowId, net::FlowId>> distinct;
      for (const Edge& e : edges_) {
        if (e.when >= from) distinct.emplace(e.at, e.waiter, e.holder);
      }
      report.diagnosis_bytes = distinct.size() * config_.record_bytes;
    }
    return report;
  }

  [[nodiscard]] bool triggered() const { return triggered_; }

 private:
  struct Edge {
    sim::Time when;
    net::FlowId waiter;
    net::FlowId holder;
    net::SwitchId at;
  };

  SpiderMonConfig config_;
  std::map<std::pair<net::SwitchId, net::PortId>, std::vector<net::FlowId>>
      queues_;
  std::map<std::uint64_t, sim::Time> carried_delay_;
  std::vector<Edge> edges_;
  std::uint64_t telemetry_bytes_ = 0;
  bool triggered_ = false;
  sim::Time trigger_time_ = 0;
};

/// One observer callback, or a query of both implementations.
struct Op {
  enum class Kind { kEnqueue, kEgress, kDeliver, kDrop, kCheck };
  Kind kind;
  sim::Time at;
  net::SwitchId sw = 0;
  net::PortId port = 0;
  net::FlowId flow{};
  std::uint64_t packet = 0;
  sim::Time latency = 0;
};

/// SpiderMon's state after a replay.
struct Replayed {
  bool triggered = false;
  sim::Time trigger_time = 0;
  rca::CulpritList culprits;
  OverheadReport overheads;
};

/// Replays `ops` into SpiderMon and the reference side by side and
/// compares their diagnosis and overheads at every kCheck and at the end.
Replayed replay_both(const std::vector<Op>& ops,
                     const SpiderMonConfig& config) {
  Fixture f;
  SpiderMon streamed(f.ft.topology.switch_count(), config);
  EdgeLogSpiderMon reference(config);
  const auto compare = [&] {
    expect_same_culprits(streamed.diagnose(), reference.diagnose());
    EXPECT_EQ(streamed.overheads().telemetry_bytes,
              reference.overheads().telemetry_bytes);
    EXPECT_EQ(streamed.overheads().diagnosis_bytes,
              reference.overheads().diagnosis_bytes);
    EXPECT_EQ(streamed.triggered(), reference.triggered());
  };
  // One packet object per id, so SpiderMon's in-band delay header builds
  // up across that packet's hops; a delivered or dropped packet leaves the
  // network, and its id's next use starts a fresh packet (the reference's
  // forget()).
  std::map<std::uint64_t, net::Packet> packets;
  for (const Op& op : ops) {
    f.sim.schedule_at(op.at, [&f, &streamed, &reference, &compare, &packets,
                              &op] {
      net::SwitchContext ctx{f.sim, f.net.node(op.sw), op.sw,
                             f.ft.topology.layer(op.sw)};
      net::Packet& pkt = packets[op.packet];
      pkt.id = op.packet;
      pkt.flow = op.flow;
      switch (op.kind) {
        case Op::Kind::kEnqueue:
          streamed.on_enqueue(ctx, pkt, op.port, 0);
          reference.on_enqueue(ctx, pkt, op.port);
          break;
        case Op::Kind::kEgress:
          streamed.on_egress(ctx, pkt, op.port, op.latency);
          reference.on_egress(ctx, pkt, op.port, op.latency);
          break;
        case Op::Kind::kDeliver:
          streamed.on_deliver(ctx, pkt);
          reference.forget(pkt);
          packets.erase(op.packet);
          break;
        case Op::Kind::kDrop:
          streamed.on_drop(ctx, pkt, op.port);
          reference.forget(pkt);
          packets.erase(op.packet);
          break;
        case Op::Kind::kCheck:
          compare();
          break;
      }
    });
  }
  f.sim.run();
  compare();
  compare();  // queries are read-only: a second call must agree too
  return Replayed{streamed.triggered(), streamed.trigger_time(),
                  streamed.diagnose(), streamed.overheads()};
}

Op enqueue(sim::Time at, net::SwitchId sw, net::PortId port,
           net::FlowId flow) {
  return Op{.kind = Op::Kind::kEnqueue, .at = at, .sw = sw, .port = port,
            .flow = flow};
}

Op egress(sim::Time at, net::SwitchId sw, net::PortId port,
          std::uint64_t packet, sim::Time latency) {
  return Op{.kind = Op::Kind::kEgress, .at = at, .sw = sw, .port = port,
            .packet = packet, .latency = latency};
}

TEST(SpiderMonDifferentialTest, RandomSequencesMatchEdgeLog) {
  int triggered_runs = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    SpiderMonConfig config;
    config.window = rng.range(1, 40) * sim::kMillisecond;
    config.queue_delay_threshold = rng.range(2, 60) * sim::kMillisecond;
    config.max_culprits = rng.range(1, 30);
    std::vector<Op> ops;
    sim::Time now = 0;
    for (int i = 0; i < 1500; ++i) {
      // Many ops share a timestamp; the rest step by up to 3 ms.
      if (rng.chance(0.6)) now += rng.range(0, 3) * sim::kMillisecond / 2;
      Op op{.kind = Op::Kind::kCheck, .at = now};
      op.sw = static_cast<net::SwitchId>(rng.below(3));
      op.port = static_cast<net::PortId>(rng.below(3));  // several per switch
      op.flow = {static_cast<net::SwitchId>(rng.below(5)),
                 static_cast<net::SwitchId>(5 + rng.below(3))};
      op.packet = rng.below(24);
      op.latency = rng.range(0, 4) * sim::kMillisecond;
      const double u = rng.uniform();
      op.kind = u < 0.48   ? Op::Kind::kEnqueue
                : u < 0.90 ? Op::Kind::kEgress
                : u < 0.95 ? Op::Kind::kDeliver
                : u < 0.99 ? Op::Kind::kDrop
                           : Op::Kind::kCheck;
      ops.push_back(op);
    }
    if (replay_both(ops, config).triggered) ++triggered_runs;
  }
  // The sweep must exercise both sides of the trigger.
  EXPECT_GT(triggered_runs, 10);
  EXPECT_LT(triggered_runs, 60);
}

TEST(SpiderMonDifferentialTest, EdgeExactlyAtWindowStartCounts) {
  SpiderMonConfig config;
  config.window = 10_ms;
  config.queue_delay_threshold = 5_ms;
  const net::FlowId a{0, 5}, b{1, 6}, c{2, 7};
  const std::vector<Op> ops = {
      // Switch 1: b waits for a 1 ns before the window opens.
      enqueue(4'999'999, 1, 0, a), enqueue(4'999'999, 1, 0, b),
      // Switch 2, two ports: c waits for a exactly at the window start.
      enqueue(5_ms, 2, 0, a), enqueue(5_ms, 2, 0, c),
      enqueue(5_ms, 2, 1, b), enqueue(5_ms, 2, 1, b),
      // An arrival at the trigger instant prunes up to the boundary.
      enqueue(15_ms, 0, 0, a),
      egress(15_ms, 0, 2, 99, 6_ms),  // triggers: window = [5 ms, ...)
  };
  const Replayed r = replay_both(ops, config);
  ASSERT_TRUE(r.triggered);
  EXPECT_EQ(r.trigger_time, 15_ms);
  // Counted: c->a and b->b on switch 2. Not counted: b->a on switch 1.
  expect_same_culprits(r.culprits, {sw(2, 2), flow(0, 5, 1)});
  EXPECT_EQ(r.overheads.diagnosis_bytes, 2u * config.record_bytes);
}

TEST(SpiderMonDifferentialTest, TriggerBeforeWindowElapsed) {
  SpiderMonConfig config;  // 1 s window, trigger after 10 ms
  const net::FlowId a{0, 5}, b{1, 6};
  std::vector<Op> ops;
  for (int i = 0; i < 8; ++i) {
    const sim::Time at = i * 1_ms;
    ops.push_back(enqueue(at, 0, i % 2, i % 3 == 0 ? a : b));
    ops.push_back(enqueue(at, 0, i % 2, a));
    if (i % 2 == 1) ops.push_back(egress(at, 0, 0, i, 1_ms));
  }
  ops.push_back(egress(10_ms, 1, 0, 7, 6_ms));
  ops.push_back(enqueue(12_ms, 0, 1, b));  // folded directly after it
  EXPECT_TRUE(replay_both(ops, config).triggered);
}

TEST(SpiderMonDifferentialTest, RunThatNeverTriggers) {
  SpiderMonConfig config;
  config.window = 2_ms;
  config.queue_delay_threshold = 1_s;
  std::vector<Op> ops;
  for (int i = 0; i < 200; ++i) {
    const auto sw_id = static_cast<net::SwitchId>(i % 3);
    ops.push_back(enqueue(i * 100_us, sw_id, 0,
                          {static_cast<net::SwitchId>(i % 4), 9}));
    if (i % 3 == 0) ops.push_back(egress(i * 100_us, sw_id, 0, i, 1_ms));
  }
  const Replayed r = replay_both(ops, config);
  EXPECT_FALSE(r.triggered);
  EXPECT_TRUE(r.culprits.empty());
  EXPECT_EQ(r.overheads.diagnosis_bytes, 0u);
}

TEST(IntSightTest, SloViolationProducesFlowReports) {
  Fixture f;
  IntSightConfig cfg;
  cfg.slo = 2_ms;
  IntSight is(f.ft.topology.switch_count(), cfg);
  f.net.add_observer(is);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  f.traffic(flow, 5, 200, 2_ms);
  f.sim.run();
  EXPECT_TRUE(is.triggered());
  EXPECT_FALSE(is.reports().empty());
  const auto culprits = is.diagnose();
  EXPECT_FALSE(culprits.empty());
  EXPECT_GT(is.overheads().telemetry_bytes, 0u);
}

TEST(IntSightTest, ContentionBitmapMarksCongestedSwitch) {
  Fixture f;
  IntSightConfig cfg;
  cfg.slo = 2_ms;
  cfg.contention_threshold = 1_ms;
  IntSight is(f.ft.topology.switch_count(), cfg);
  f.net.add_observer(is);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  f.traffic(flow, 5, 200, 2_ms);
  f.sim.run();
  const auto culprits = is.diagnose();
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits[0].location, std::vector<net::SwitchId>{flow.source});
}

TEST(IntSightTest, HeaderBytesAreLarge) {
  Fixture f;
  IntSight is(f.ft.topology.switch_count());
  f.net.add_observer(is);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // 5-switch path
  f.traffic(flow, 5, 10, 1_ms);
  f.sim.run();
  // 33B per packet per traversed link (4 inter-switch hops).
  EXPECT_EQ(is.overheads().telemetry_bytes, 10u * 4u * 33u);
}

TEST(SynDbTest, RecordsEverythingAndChargesBandwidth) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 5, 50, 1_ms);
  f.sim.run();
  const auto oh = db.overheads();
  EXPECT_EQ(oh.telemetry_bytes, 0u);  // no INT headers
  // >= one ingress + one egress record per hop per packet.
  EXPECT_GE(oh.diagnosis_bytes, 50u * 5u * 40u);
}

TEST(SynDbTest, ExpertQueryLocalizesSlowSwitch) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  // Healthy baseline, then throttle.
  f.traffic(flow, 5, 200, 2_ms);
  f.sim.run(500_ms);
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  f.traffic(flow, 5, 100, 2_ms, 10_ms);
  f.sim.run();
  const auto culprits = db.diagnose_with_hint(
      faults::FaultKind::kProcessRateDecrease, f.sim.now());
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits[0].location, std::vector<net::SwitchId>{flow.source});
}

TEST(SynDbTest, ExpertQueryLocalizesDrops) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_drop_probability(out, 0.5);
  f.traffic(flow, 5, 100, 2_ms);
  f.sim.run();
  const auto culprits =
      db.diagnose_with_hint(faults::FaultKind::kDrop, f.sim.now());
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits[0].location, std::vector<net::SwitchId>{flow.source});
  EXPECT_EQ(culprits[0].cause, rca::CauseKind::kDrop);
}

TEST(SynDbTest, UnaidedDiagnosisIsEmpty) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  f.traffic({f.ft.edge[0], f.ft.edge[1]}, 5, 10, 1_ms);
  f.sim.run();
  EXPECT_TRUE(db.diagnose().empty());
}

// ---- SyNDB: the columnar store against a flat p-record log --------------

/// Reference SyNDB: one p-record per callback in a flat log, and every
/// query rescans the whole log through std::maps. Same queries, window and
/// ranking as SynDb; the columnar store must agree with it exactly.
class RecordLogSynDb {
 public:
  explicit RecordLogSynDb(SynDbConfig config) : config_(config) {}

  void on_ingress(net::SwitchContext& ctx, const net::Packet& pkt) {
    records_.push_back(
        {pkt.flow, ctx.id, 0, ctx.sim.now(), 0, PRecord::Kind::kIngress});
  }
  void on_egress(net::SwitchContext& ctx, const net::Packet& pkt,
                 net::PortId out, sim::Time hop_latency) {
    records_.push_back({pkt.flow, ctx.id, out, ctx.sim.now(), hop_latency,
                        PRecord::Kind::kEgress});
  }
  void on_drop(net::SwitchContext& ctx, const net::Packet& pkt,
               net::PortId out) {
    records_.push_back(
        {pkt.flow, ctx.id, out, ctx.sim.now(), 0, PRecord::Kind::kDrop});
  }

  [[nodiscard]] rca::CulpritList diagnose_with_hint(faults::FaultKind hint,
                                                    sim::Time now) const {
    switch (hint) {
      case faults::FaultKind::kMicroBurst:
        return query_burst(now);
      case faults::FaultKind::kEcmpImbalance:
        return query_ecmp(now);
      case faults::FaultKind::kProcessRateDecrease:
        return query_latency(now, rca::CauseKind::kProcessRateDecrease);
      case faults::FaultKind::kDelay:
        return query_latency(now, rca::CauseKind::kDelay);
      case faults::FaultKind::kDrop:
        return query_drop(now);
      default:
        ADD_FAILURE() << "hint outside the four query families";
        return {};
    }
  }

  [[nodiscard]] OverheadReport overheads() const {
    OverheadReport report;
    report.diagnosis_bytes = records_.size() * config_.record_bytes;
    return report;
  }
  [[nodiscard]] bool triggered() const { return !records_.empty(); }

 private:
  struct PRecord {
    net::FlowId flow;
    net::SwitchId sw;
    net::PortId out_port;
    sim::Time when;
    sim::Time hop_latency;
    enum class Kind { kIngress, kEgress, kDrop } kind;
  };

  static rca::Culprit at_switch(net::SwitchId id, rca::CauseKind cause,
                                double score) {
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {id};
    c.cause = cause;
    c.score = score;
    return c;
  }

  [[nodiscard]] rca::CulpritList ranked(rca::CulpritList out) const {
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.score > b.score; });
    if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
    return out;
  }

  [[nodiscard]] rca::CulpritList query_latency(sim::Time now,
                                               rca::CauseKind cause) const {
    struct Acc {
      double base_sum = 0, prob_sum = 0;
      std::uint64_t base_n = 0, prob_n = 0;
    };
    std::map<net::SwitchId, Acc> acc;
    const sim::Time from = now - config_.window;
    for (const auto& r : records_) {
      if (r.kind != PRecord::Kind::kEgress) continue;
      Acc& a = acc[r.sw];
      if (r.when >= from) {
        a.prob_sum += static_cast<double>(r.hop_latency);
        ++a.prob_n;
      } else {
        a.base_sum += static_cast<double>(r.hop_latency);
        ++a.base_n;
      }
    }
    rca::CulpritList out;
    for (const auto& [id, a] : acc) {
      if (a.prob_n == 0) continue;
      const double prob = a.prob_sum / static_cast<double>(a.prob_n);
      const double base =
          a.base_n > 0 ? a.base_sum / static_cast<double>(a.base_n) : 1.0;
      out.push_back(at_switch(id, cause, prob / std::max(base, 1.0)));
    }
    return ranked(std::move(out));
  }

  [[nodiscard]] rca::CulpritList query_drop(sim::Time now) const {
    std::map<net::SwitchId, std::uint64_t> drops;
    const sim::Time from = now - config_.window;
    for (const auto& r : records_) {
      if (r.kind == PRecord::Kind::kDrop && r.when >= from) ++drops[r.sw];
    }
    rca::CulpritList out;
    for (const auto& [id, n] : drops) {
      out.push_back(
          at_switch(id, rca::CauseKind::kDrop, static_cast<double>(n)));
    }
    return ranked(std::move(out));
  }

  [[nodiscard]] rca::CulpritList query_burst(sim::Time now) const {
    struct Acc {
      std::uint64_t base = 0, prob = 0;
    };
    std::map<net::FlowId, Acc> acc;
    const sim::Time from = now - config_.window;
    sim::Time earliest = now;
    for (const auto& r : records_) {
      if (r.kind != PRecord::Kind::kIngress || r.flow.source != r.sw) continue;
      earliest = std::min(earliest, r.when);
      ++(r.when >= from ? acc[r.flow].prob : acc[r.flow].base);
    }
    const double base_seconds =
        std::max(sim::to_seconds(from - earliest), 1e-3);
    const double prob_seconds =
        std::max(sim::to_seconds(config_.window), 1e-3);
    rca::CulpritList out;
    for (const auto& [f, a] : acc) {
      const double base_pps = static_cast<double>(a.base) / base_seconds;
      const double prob_pps = static_cast<double>(a.prob) / prob_seconds;
      out.push_back(
          flow(f.source, f.sink, prob_pps / std::max(base_pps, 1.0)));
    }
    return ranked(std::move(out));
  }

  [[nodiscard]] rca::CulpritList query_ecmp(sim::Time now) const {
    using Counts = std::map<net::PortId, std::uint64_t>;
    std::map<net::SwitchId, std::pair<Counts, Counts>> acc;  // base, prob
    const sim::Time from = now - config_.window;
    for (const auto& r : records_) {
      if (r.kind != PRecord::Kind::kEgress) continue;
      auto& [base, prob] = acc[r.sw];
      ++(r.when >= from ? prob : base)[r.out_port];
    }
    const auto imbalance = [](const Counts& counts) {
      if (counts.size() < 2) return 1.0;
      std::uint64_t lo = UINT64_MAX, hi = 0;
      for (const auto& [port, n] : counts) {
        lo = std::min(lo, n);
        hi = std::max(hi, n);
      }
      return static_cast<double>(hi) /
             static_cast<double>(std::max<std::uint64_t>(lo, 1));
    };
    rca::CulpritList out;
    for (const auto& [id, sides] : acc) {
      const double score =
          imbalance(sides.second) / std::max(imbalance(sides.first), 1.0);
      out.push_back(at_switch(id, rca::CauseKind::kEcmpImbalance, score));
    }
    return ranked(std::move(out));
  }

  SynDbConfig config_;
  std::vector<PRecord> records_;
};

/// One SyNDB observer callback, or a query of both implementations at
/// `query_now` (which may lie before or after the op's own time).
struct RecordOp {
  enum class Kind { kIngress, kEgress, kDrop, kQuery };
  Kind kind;
  sim::Time at;
  net::SwitchId sw = 0;
  net::PortId port = 0;
  net::FlowId flow{};
  sim::Time latency = 0;
  sim::Time query_now = 0;
};

constexpr faults::FaultKind kQueryHints[] = {
    faults::FaultKind::kMicroBurst, faults::FaultKind::kEcmpImbalance,
    faults::FaultKind::kProcessRateDecrease, faults::FaultKind::kDelay,
    faults::FaultKind::kDrop};

/// What a SynDb replay saw: how many query results were non-empty (so a
/// sweep can show it was not vacuous), and SynDb's answers to each of
/// kQueryHints at the last comparison.
struct SynDbReplayed {
  int nonempty = 0;
  std::vector<rca::CulpritList> last;
};

/// Replays `ops` into SynDb and the record log side by side; at every
/// kQuery, and at the end at the last op's time, compares all four
/// queries, overheads() and triggered().
SynDbReplayed replay_syndb(const std::vector<RecordOp>& ops,
                           const SynDbConfig& config) {
  Fixture f;
  SynDb columnar(config);
  RecordLogSynDb reference(config);
  SynDbReplayed replayed;
  const auto compare = [&](sim::Time now) {
    replayed.last.clear();
    for (const faults::FaultKind hint : kQueryHints) {
      SCOPED_TRACE(std::string(faults::to_string(hint)) + " at " +
                   std::to_string(now));
      replayed.last.push_back(columnar.diagnose_with_hint(hint, now));
      expect_same_culprits(replayed.last.back(),
                           reference.diagnose_with_hint(hint, now));
      if (!replayed.last.back().empty()) ++replayed.nonempty;
    }
    EXPECT_EQ(columnar.overheads().telemetry_bytes, 0u);
    EXPECT_EQ(columnar.overheads().diagnosis_bytes,
              reference.overheads().diagnosis_bytes);
    EXPECT_EQ(columnar.triggered(), reference.triggered());
  };
  for (const RecordOp& op : ops) {
    f.sim.schedule_at(op.at, [&f, &columnar, &reference, &compare, &op] {
      net::SwitchContext ctx{f.sim, f.net.node(op.sw), op.sw,
                             f.ft.topology.layer(op.sw)};
      net::Packet pkt;
      pkt.flow = op.flow;
      switch (op.kind) {
        case RecordOp::Kind::kIngress:
          columnar.on_ingress(ctx, pkt);
          reference.on_ingress(ctx, pkt);
          break;
        case RecordOp::Kind::kEgress:
          columnar.on_egress(ctx, pkt, op.port, op.latency);
          reference.on_egress(ctx, pkt, op.port, op.latency);
          break;
        case RecordOp::Kind::kDrop:
          columnar.on_drop(ctx, pkt, op.port);
          reference.on_drop(ctx, pkt, op.port);
          break;
        case RecordOp::Kind::kQuery:
          compare(op.query_now);
          break;
      }
    });
  }
  f.sim.run();
  compare(f.sim.now());
  return replayed;
}

TEST(SynDbDifferentialTest, RandomSequencesMatchRecordLog) {
  int nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    SynDbConfig config;
    // Whole milliseconds, like every timestamp below, so window starts
    // land exactly on records.
    config.window = rng.range(1, 30) * sim::kMillisecond;
    config.max_culprits = rng.range(1, 12);
    std::vector<RecordOp> ops;
    sim::Time now = 0;
    for (int i = 0; i < 1200; ++i) {
      if (rng.chance(0.4)) now += rng.range(0, 2) * sim::kMillisecond;
      RecordOp op{.kind = RecordOp::Kind::kQuery, .at = now};
      op.flow = {static_cast<net::SwitchId>(rng.below(6)),
                 static_cast<net::SwitchId>(rng.below(6))};
      // Half the ingress records are at the flow's source.
      op.sw = rng.chance(0.5) ? op.flow.source
                              : static_cast<net::SwitchId>(rng.below(8));
      op.port = static_cast<net::PortId>(rng.below(4));
      // Few distinct latencies and counts: tied scores are common.
      op.latency = rng.range(0, 3) * sim::kMillisecond;
      // Queries reach back before the newest record and a little past it.
      op.query_now = now + rng.range(-40, 5) * sim::kMillisecond;
      const double u = rng.uniform();
      op.kind = u < 0.40   ? RecordOp::Kind::kIngress
                : u < 0.85 ? RecordOp::Kind::kEgress
                : u < 0.97 ? RecordOp::Kind::kDrop
                           : RecordOp::Kind::kQuery;
      ops.push_back(op);
    }
    nonempty += replay_syndb(ops, config).nonempty;
  }
  EXPECT_GT(nonempty, 500);
}

RecordOp record(RecordOp::Kind kind, sim::Time at, net::SwitchId sw,
                net::PortId port = 0, sim::Time latency = 0) {
  return RecordOp{.kind = kind, .at = at, .sw = sw, .port = port,
                  .flow = {sw, 7}, .latency = latency};
}

RecordOp query_at(sim::Time at, sim::Time now) {
  return RecordOp{.kind = RecordOp::Kind::kQuery, .at = at, .query_now = now};
}

TEST(SynDbDifferentialTest, RecordExactlyAtWindowStartIsInTheWindow) {
  using K = RecordOp::Kind;
  SynDbConfig config;
  config.window = 10_ms;
  // Switch 1's records sit 1 ns before `from` = 5 ms, switch 2's exactly
  // at it; the query is at 15 ms.
  const std::vector<RecordOp> ops = {
      record(K::kIngress, 4'999'999, 1), record(K::kEgress, 4'999'999, 1, 0, 3),
      record(K::kDrop, 4'999'999, 1),    record(K::kIngress, 5_ms, 2),
      record(K::kEgress, 5_ms, 2, 1, 3), record(K::kDrop, 5_ms, 2),
      record(K::kEgress, 6_ms, 1, 1, 2), query_at(15_ms, 15_ms)};
  const SynDbReplayed r = replay_syndb(ops, config);
  ASSERT_EQ(r.last.size(), std::size(kQueryHints));
  const rca::CulpritList& burst = r.last[0];
  const rca::CulpritList& drops = r.last[4];
  ASSERT_EQ(burst.size(), 2u);
  EXPECT_EQ(burst[0].flow, (net::FlowId{2, 7}));  // in the window
  EXPECT_EQ(burst[0].score, 100.0);  // 1 packet / 10 ms vs no baseline
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].location, std::vector<net::SwitchId>{2});
}

TEST(SynDbDifferentialTest, QueryBeforeTheLastRecordAndEmptySides) {
  using K = RecordOp::Kind;
  SynDbConfig config;
  config.window = 4_ms;
  std::vector<RecordOp> ops;
  for (int t = 0; t < 20; ++t) {
    const sim::Time at = t * 1_ms;
    const auto sw = static_cast<net::SwitchId>(t % 3);
    ops.push_back(record(K::kIngress, at, sw));
    ops.push_back(record(K::kEgress, at, sw, t % 2, (t % 4) * 1_ms));
    if (t % 5 == 0) ops.push_back(record(K::kDrop, at, sw));
  }
  // The whole log in the window (empty baselines), a window that ends
  // mid-log, and one past every record (empty problem sides).
  for (const sim::Time now : {2_ms, 3_ms, 11_ms, 19_ms, 40_ms}) {
    ops.push_back(query_at(19_ms, now));
  }
  EXPECT_GT(replay_syndb(ops, config).nonempty, 0);
}

/// Registered after every system under test, so it sees each callback
/// last: records what each hop observed and checks the in-band fields the
/// systems carry in the packet against it.
class InBandChecker final : public net::PacketObserver {
 public:
  explicit InBandChecker(sim::Time contention_threshold)
      : contention_threshold_(contention_threshold) {}

  void on_enqueue(net::SwitchContext& /*ctx*/, net::Packet& pkt,
                  net::PortId /*out*/, std::uint32_t queue_depth) override {
    hops_[pkt.id].depth = queue_depth;
  }

  void on_egress(net::SwitchContext& ctx, net::Packet& pkt,
                 net::PortId /*out*/, sim::Time hop_latency) override {
    Truth& t = hops_[pkt.id];
    ++egress_hops;
    if (pkt.enq_qdepth != t.depth) ++depth_mismatches;
    if (pkt.enq_qdepth > 0) ++queued_hops;
    t.delay += hop_latency;
    if (hop_latency > contention_threshold_ && ctx.id < IntSight::kMaxSwitches) {
      t.mask |= 1ull << ctx.id;
    }
  }

  void on_deliver(net::SwitchContext& /*ctx*/, net::Packet& pkt) override {
    const Truth t = hops_[pkt.id];
    hops_.erase(pkt.id);
    ++delivered;
    if (t.mask != 0) ++contended;
    if (pkt.spidermon_delay != t.delay) ++delay_mismatches;
    if (pkt.intsight_mask != t.mask) ++mask_mismatches;
  }

  std::uint64_t egress_hops = 0, queued_hops = 0, delivered = 0,
                contended = 0, depth_mismatches = 0, delay_mismatches = 0,
                mask_mismatches = 0;

 private:
  struct Truth {
    std::uint32_t depth = 0;
    sim::Time delay = 0;
    std::uint64_t mask = 0;
  };
  sim::Time contention_threshold_;
  std::map<std::uint64_t, Truth> hops_;
};

TEST(InBandHeaderTest, CarriedFieldsMatchPerHopObservations) {
  // All four systems on one fabric, sharing every packet: each in-band
  // field must hold exactly what its hops observed.
  Fixture f;
  const std::size_t n = f.ft.topology.switch_count();
  SpiderMon sm(n);
  IntSightConfig is_cfg;
  IntSight is(n, is_cfg);
  SynDb db;
  control::PathRegistry registry{f.ft.topology, f.net.routing(), {}};
  dataplane::PipelineConfig mars_cfg;
  mars_cfg.backend.kind = telemetry::BackendKind::kIntMd;
  dataplane::MarsPipeline mars(n, mars_cfg,
                               [](const dataplane::Notification&) {});
  mars.set_control_mat(registry.mat());
  InBandChecker checker(is_cfg.contention_threshold);
  for (net::PacketObserver* obs :
       std::initializer_list<net::PacketObserver*>{&sm, &is, &db, &mars,
                                                   &checker}) {
    f.net.add_observer(*obs);
  }

  // A throttled source port builds a queue well past the contention
  // threshold (1000 pps offered, 400 served, below the tail-drop cap);
  // two more flows cross other pods unimpeded.
  const net::FlowId slow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(slow.source, slow.sink, 5, out));
  f.net.node(slow.source).set_max_pps(out, 400.0);
  f.traffic(slow, 5, 300, 1_ms);
  f.traffic({f.ft.edge[2], f.ft.edge[5]}, 9, 150, 1_ms);
  f.traffic({f.ft.edge[6], f.ft.edge[3]}, 13, 150, 1_ms);
  f.sim.run();

  EXPECT_EQ(checker.delivered, 600u);
  EXPECT_EQ(checker.depth_mismatches, 0u);
  EXPECT_EQ(checker.delay_mismatches, 0u);
  EXPECT_EQ(checker.mask_mismatches, 0u);
  // Not vacuous: queues built up and some packets crossed contention.
  EXPECT_GT(checker.queued_hops, 0u);
  EXPECT_GT(checker.contended, 0u);
  EXPECT_LT(checker.contended, checker.delivered);
  EXPECT_TRUE(sm.triggered());
  const auto* backend =
      dynamic_cast<const telemetry::IntMdBackend*>(&mars.backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->in_flight(), 0u) << "every stack ends at a sink";
}

}  // namespace
}  // namespace mars::baselines

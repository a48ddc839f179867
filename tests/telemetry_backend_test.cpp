// TelemetryBackend contract tests: name registry, the postcard/int-md
// differential (same seed => identical drained records), histogram wire
// accounting, and the full Table-1 fault suite running through the common
// interface under every backend.

#include "telemetry/backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "control/path_registry.hpp"
#include "dataplane/mars_pipeline.hpp"
#include "mars/scenario.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "telemetry/int_md_backend.hpp"
#include "telemetry/postcard_backend.hpp"

namespace mars::telemetry {
namespace {

using namespace mars::sim::literals;

TEST(BackendNamesTest, RoundTripAllKinds) {
  for (const auto kind :
       {BackendKind::kPostcard, BackendKind::kIntMd, BackendKind::kHistogram}) {
    const auto back = backend_from_name(to_string(kind));
    ASSERT_TRUE(back.has_value()) << to_string(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_EQ(known_backend_names().size(), 3u);
}

TEST(BackendNamesTest, UnknownNameIsRejected) {
  EXPECT_FALSE(backend_from_name("postcards").has_value());
  EXPECT_FALSE(backend_from_name("").has_value());
}

TEST(BackendNamesTest, SuggestsCloseMisspellings) {
  EXPECT_EQ(suggest_backend("histgram"), "histogram");
  EXPECT_EQ(suggest_backend("postcrd"), "postcard");
  EXPECT_EQ(suggest_backend("int_md"), "int-md");
  // Nothing within edit range: no suggestion beats a wrong one.
  EXPECT_EQ(suggest_backend("zzzzzzzzzz"), "");
}

BackendConfig backend_config(BackendKind kind, IntMdConfig int_md = {}) {
  BackendConfig backend;
  backend.kind = kind;
  backend.int_md = int_md;
  return backend;
}

/// A fat-tree with a MarsPipeline wired for one backend kind; traffic
/// schedules are identical across fixtures, which is what makes the
/// differential meaningful.
struct Fixture {
  sim::Simulator sim;
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Network net{sim, ft.topology};
  control::PathRegistry registry{ft.topology, net.routing(), {}};
  dataplane::MarsPipeline pipeline;

  explicit Fixture(BackendKind kind) : Fixture(backend_config(kind)) {}
  explicit Fixture(const BackendConfig& backend)
      : pipeline(ft.topology.switch_count(), config_for(backend),
                 [](const dataplane::Notification&) {}) {
    pipeline.set_control_mat(registry.mat());
    net.add_observer(pipeline);
  }

  static dataplane::PipelineConfig config_for(const BackendConfig& backend) {
    dataplane::PipelineConfig cfg;
    cfg.backend = backend;
    return cfg;
  }

  void traffic(net::FlowId flow, std::uint32_t hash, int count,
               sim::Time gap) {
    for (int i = 0; i < count; ++i) {
      sim.schedule_in(gap * i,
                      [this, flow, hash] { net.inject(flow, hash, 500); });
    }
  }
};

void expect_same_records(const std::vector<RtRecord>& a,
                         const std::vector<RtRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow, b[i].flow) << "record " << i;
    EXPECT_EQ(a[i].path_id, b[i].path_id) << "record " << i;
    EXPECT_EQ(a[i].epoch_id, b[i].epoch_id) << "record " << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << "record " << i;
    EXPECT_EQ(a[i].source_timestamp, b[i].source_timestamp) << "record " << i;
    EXPECT_EQ(a[i].sink_timestamp, b[i].sink_timestamp) << "record " << i;
    EXPECT_EQ(a[i].total_queue_depth, b[i].total_queue_depth)
        << "record " << i;
    EXPECT_EQ(a[i].epoch_gap, b[i].epoch_gap) << "record " << i;
  }
}

TEST(BackendDifferentialTest, PostcardAndIntMdDrainIdenticalRecords) {
  // Same topology, same traffic, same seed-free schedule: on a perfect
  // channel the postcard ring and the INT-MD sink store must expose the
  // SAME record stream — the backends differ in wire format, not in what
  // the telemetry packets measured.
  Fixture postcard(BackendKind::kPostcard);
  Fixture intmd(BackendKind::kIntMd);
  for (Fixture* f : {&postcard, &intmd}) {
    const net::FlowId intra{f->ft.edge[0], f->ft.edge[1]};
    const net::FlowId inter{f->ft.edge[0], f->ft.edge[4]};
    f->traffic(intra, 7, 40, 10_ms);
    f->traffic(inter, 99, 40, 10_ms);
    f->sim.run();
  }
  EXPECT_EQ(postcard.sim.now(), intmd.sim.now())
      << "backend choice must not move the event schedule";
  for (const net::SwitchId sink :
       {postcard.ft.edge[1], postcard.ft.edge[4]}) {
    const auto from_ring = postcard.pipeline.ring_snapshot(sink);
    const auto from_stack = intmd.pipeline.ring_snapshot(sink);
    ASSERT_FALSE(from_ring.empty());
    expect_same_records(from_ring, from_stack);
  }
}

TEST(BackendDifferentialTest, IntMdHopStacksMatchTheRecordedPath) {
  Fixture f(BackendKind::kIntMd);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // inter-pod, 5 hops
  f.traffic(flow, 99, 30, 10_ms);
  f.sim.run();
  const auto* backend =
      dynamic_cast<const IntMdBackend*>(&f.pipeline.backend());
  ASSERT_NE(backend, nullptr);
  const auto stored = backend->records_with_hops(flow.sink);
  ASSERT_FALSE(stored.empty());
  for (const auto& s : stored) {
    // The hop stack IS the PathID's switch sequence, in order — the
    // hop-exact evidence this backend pays extra in-band bytes for.
    const auto path = f.registry.lookup(s.rec.path_id);
    ASSERT_FALSE(path.empty());
    ASSERT_EQ(s.hops.size(), path.size());
    for (std::size_t h = 0; h < s.hops.size(); ++h) {
      EXPECT_EQ(s.hops[h].sw, path[h]);
    }
    EXPECT_EQ(s.hops.back().sw, flow.sink);
    EXPECT_EQ(s.hops.back().out_port, net::kHostPort);
    // Transit hop latencies are measured, and each is bounded by the
    // record's end-to-end latency.
    for (std::size_t h = 0; h + 1 < s.hops.size(); ++h) {
      EXPECT_GT(s.hops[h].hop_latency, 0);
      EXPECT_LE(s.hops[h].hop_latency, s.rec.latency);
    }
  }
}

TEST(BackendDifferentialTest, InBandByteOrderingAcrossBackends) {
  // Identical traffic, three backends: histogram must undercut postcard
  // (7B marker vs 11B header) and int-md must exceed it (per-hop stack).
  std::uint64_t inband[3] = {};
  const BackendKind kinds[] = {BackendKind::kPostcard, BackendKind::kIntMd,
                               BackendKind::kHistogram};
  for (int i = 0; i < 3; ++i) {
    Fixture f(kinds[i]);
    const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
    f.traffic(flow, 99, 60, 5_ms);
    f.sim.run();
    inband[i] = f.pipeline.backend().counters().inband_bytes;
    EXPECT_EQ(f.pipeline.overheads().telemetry_bytes, inband[i])
        << "pipeline accounting must mirror " << to_string(kinds[i]);
  }
  EXPECT_LT(inband[2], inband[0]) << "histogram must be cheapest in band";
  EXPECT_GT(inband[1], inband[0]) << "int-md must be dearest in band";
}

// ---- INT-MD backend behaviour ---------------------------------------------
// Every test paces a flow at one packet per telemetry epoch, so the
// pipeline marks every packet and each one is eligible for a hop stack.

/// Stored sink records that carry a hop stack (thinned ones carry none).
std::vector<IntMdBackend::StoredRecord> stacks_at(const Fixture& f,
                                                  net::SwitchId sink) {
  const auto& backend = dynamic_cast<const IntMdBackend&>(f.pipeline.backend());
  std::vector<IntMdBackend::StoredRecord> out;
  for (auto& s : backend.records_with_hops(sink)) {
    if (!s.hops.empty()) out.push_back(std::move(s));
  }
  return out;
}

TEST(IntMdTest, RecordsEveryHopInOrder) {
  Fixture f(BackendKind::kIntMd);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // 5-switch path
  f.traffic(flow, 77, 3, kDefaultEpochPeriod);
  f.sim.run();
  const auto stored = stacks_at(f, flow.sink);
  ASSERT_EQ(stored.size(), 3u);
  for (const auto& s : stored) {
    ASSERT_EQ(s.hops.size(), 5u);
    EXPECT_EQ(s.hops.front().sw, flow.source);
    EXPECT_EQ(s.hops.back().sw, flow.sink);
    EXPECT_EQ(s.hops.back().out_port, net::kHostPort);
    for (std::size_t h = 0; h + 1 < s.hops.size(); ++h) {
      EXPECT_GT(s.hops[h].hop_latency, 0);
      // Each hop's egress port leads to the next entry's switch and port.
      const auto& peer = f.ft.topology.peer(s.hops[h].sw, s.hops[h].out_port);
      EXPECT_EQ(peer.neighbor, s.hops[h + 1].sw);
      EXPECT_EQ(peer.neighbor_port, s.hops[h + 1].in_port);
    }
  }
}

TEST(IntMdTest, HeaderBytesGrowWithPathLength) {
  Fixture intra(BackendKind::kIntMd);
  const net::FlowId short_flow{intra.ft.edge[0], intra.ft.edge[1]};  // 3 sw
  intra.traffic(short_flow, 5, 10, kDefaultEpochPeriod);
  intra.sim.run();
  const auto short_bytes = intra.pipeline.backend().counters().inband_bytes;

  Fixture inter(BackendKind::kIntMd);
  const net::FlowId long_flow{inter.ft.edge[0], inter.ft.edge[4]};  // 5 sw
  inter.traffic(long_flow, 5, 10, kDefaultEpochPeriod);
  inter.sim.run();
  // Same packet count, longer paths: strictly more in-band bytes — the
  // Fig. 3 motivation for fixed-width PathIDs.
  EXPECT_GT(inter.pipeline.backend().counters().inband_bytes, short_bytes);
  // Exact accounting for the short path: every packet is marked and, per
  // packet, 2 links carry the PathID byte plus shim + a stack of 1 then 2
  // entries.
  ASSERT_EQ(intra.pipeline.overheads().telemetry_packets_marked, 10u);
  EXPECT_EQ(short_bytes, 10u * ((1 + 12 + 8) + (1 + 12 + 16)));
}

TEST(IntMdTest, SamplingReducesCoverageAndBytes) {
  IntMdConfig cfg;
  cfg.sample_every = 5;
  Fixture f(backend_config(BackendKind::kIntMd, cfg));
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 5, 50, kDefaultEpochPeriod);
  f.sim.run();
  ASSERT_EQ(f.pipeline.overheads().telemetry_packets_marked, 50u);
  // 1 in 5 marked packets carries a stack; the rest pay the PathID byte.
  EXPECT_EQ(stacks_at(f, flow.sink).size(), 10u);
  EXPECT_EQ(f.pipeline.backend().counters().inband_bytes,
            10u * ((1 + 12 + 8) + (1 + 12 + 16)) + 40u * 2u);
}

TEST(IntMdTest, MaxHopsCapsTheStack) {
  IntMdConfig cfg;
  cfg.max_hops = 2;
  Fixture f(backend_config(BackendKind::kIntMd, cfg));
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 5, 2, kDefaultEpochPeriod);
  f.sim.run();
  const auto stored = stacks_at(f, flow.sink);
  ASSERT_EQ(stored.size(), 2u);
  // 2 transit entries + the sink's own entry appended at delivery.
  for (const auto& s : stored) EXPECT_EQ(s.hops.size(), 3u);
}

TEST(IntMdTest, DropCleansUpInFlightState) {
  Fixture f(BackendKind::kIntMd);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  // Drop at the aggregation hop, after the source pushed its entry.
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  const net::SwitchId agg = f.ft.topology.peer(flow.source, out).neighbor;
  ASSERT_TRUE(f.net.routing().select_port(agg, flow.sink, 5, out));
  f.net.node(agg).set_drop_probability(out, 1.0);
  f.traffic(flow, 5, 10, kDefaultEpochPeriod);
  f.sim.run();
  const auto& backend = dynamic_cast<const IntMdBackend&>(f.pipeline.backend());
  EXPECT_EQ(f.pipeline.overheads().telemetry_packets_marked, 10u);
  EXPECT_TRUE(backend.records_with_hops(flow.sink).empty());
  EXPECT_EQ(backend.in_flight(), 0u) << "a dropped stack must not linger";
}

TEST(BackendSuiteTest, AllBackendsRunTheFaultSuite) {
  // The acceptance bar: every backend drives the full Table-1 fault suite
  // through the unmodified scenario runner — backends are config, not
  // code paths the runner knows about.
  const faults::FaultKind causes[] = {
      faults::FaultKind::kMicroBurst, faults::FaultKind::kEcmpImbalance,
      faults::FaultKind::kProcessRateDecrease, faults::FaultKind::kDelay,
      faults::FaultKind::kDrop};
  for (const auto kind :
       {BackendKind::kPostcard, BackendKind::kIntMd, BackendKind::kHistogram}) {
    for (const auto cause : causes) {
      ScenarioConfig cfg = default_scenario(cause, 11);
      cfg.duration = 4 * sim::kSecond;
      cfg.systems = {"mars"};
      cfg.mars.pipeline.backend.kind = kind;
      const ScenarioResult r = run_scenario(cfg);
      ASSERT_TRUE(r.fault_injected)
          << to_string(kind) << "/" << faults::to_string(cause);
      const SystemOutcome& outcome = r.outcome("mars");
      EXPECT_GT(outcome.telemetry_bytes, 0u)
          << to_string(kind) << "/" << faults::to_string(cause);
      EXPECT_FALSE(outcome.culprits.empty())
          << to_string(kind) << "/" << faults::to_string(cause);
    }
  }
}

}  // namespace
}  // namespace mars::telemetry

#pragma once
// SyNDB (Kannan et al., NSDI'21) — reimplementation of its
// diagnosis-relevant subset, as characterized in MARS §5.4:
//
//   - no INT headers: every switch records a p-record per packet
//     (packet id, switch, ingress/egress timestamps, queue depth) and
//     streams them to the control plane — enormous diagnosis bandwidth,
//     zero telemetry bandwidth (Fig. 9);
//   - diagnosis is query-based and needs EXPERT KNOWLEDGE: the operator
//     must know which failure class to query for. We model that by
//     passing the injected fault kind as the query hint, exactly the
//     concession the paper makes ("we have to assume SyNDB knows the root
//     cause at first") — its Table 1 numbers are flagged as aided.
//
// With full per-switch packet histories the right query localizes almost
// anything; the price is the bandwidth shown in Fig. 9.
//
// Every p-record is charged, but only what a query reads is kept, in
// columns per switch (see DESIGN.md "SyNDB columnar store"): egress
// (time, running hop-latency sum) per port, drop times, and the ingress
// times of the flows the switch sources. A switch's clock never goes
// back, so appends keep every column time-sorted and a query splits each
// one at the window start by binary search.

#include <cstdint>
#include <map>
#include <vector>

#include "baselines/baseline.hpp"
#include "faults/injector.hpp"
#include "net/types.hpp"

namespace mars::baselines {

struct SynDbConfig {
  /// Bytes per p-record streamed to the control plane.
  std::uint32_t record_bytes = 40;
  /// Problem window examined by queries, counted back from the end.
  sim::Time window = 1 * sim::kSecond;
  std::size_t max_culprits = 20;
};

class SynDb final : public BaselineSystem {
 public:
  explicit SynDb(SynDbConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "SyNDB"; }
  /// Un-aided diagnosis: SyNDB has no trigger of its own; without the
  /// expert hint it cannot pick a query, so this returns nothing useful.
  [[nodiscard]] rca::CulpritList diagnose() override { return {}; }
  /// Query-based diagnosis: uses the expert hint when the query carries
  /// one (the gray cells of Table 1), otherwise falls back to un-aided.
  [[nodiscard]] rca::CulpritList diagnose(
      const systems::DiagnosisQuery& query) override {
    if (!query.hint) return diagnose();
    return diagnose_with_hint(*query.hint, query.incident_end);
  }
  /// Expert-aided diagnosis (the gray cells of Table 1).
  [[nodiscard]] rca::CulpritList diagnose_with_hint(faults::FaultKind hint,
                                                    sim::Time now) const;
  [[nodiscard]] OverheadReport overheads() const override;
  [[nodiscard]] bool triggered() const override {
    // Query-based: it "triggers" only when an operator asks.
    return records_ > 0;
  }

  // ---- PacketObserver ----
  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override;
  void on_ingress(net::SwitchContext& ctx, net::Packet& pkt) override;
  void on_drop(net::SwitchContext& ctx, const net::Packet& pkt,
               net::PortId out) override;

 private:
  /// An egress p-record as the queries read it.
  struct Egress {
    sim::Time when;
    /// Hop latencies of this port's column up to and including this one.
    std::int64_t latency_sum;
  };
  /// One switch's time-sorted columns.
  struct Columns {
    std::vector<std::vector<Egress>> egress;  ///< indexed by PortId
    std::vector<sim::Time> drops;
    /// Ingress times at this switch of the flows it sources, by sink.
    std::map<net::SwitchId, std::vector<sim::Time>> sourced;
  };

  Columns& columns(net::SwitchId sw);

  rca::CulpritList query_latency_per_switch(sim::Time now,
                                            rca::CauseKind cause) const;
  rca::CulpritList query_drop(sim::Time now) const;
  rca::CulpritList query_burst(sim::Time now) const;
  rca::CulpritList query_ecmp(sim::Time now) const;
  rca::CulpritList ranked(rca::CulpritList out) const;

  SynDbConfig config_;
  std::vector<Columns> switches_;  ///< indexed by SwitchId
  std::uint64_t records_ = 0;      ///< every p-record, stored or not
};

}  // namespace mars::baselines

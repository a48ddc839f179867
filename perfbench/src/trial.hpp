#pragma once
// The benchmark's own trial runner. It makes the same public calls
// run_scenario makes, in the same order, and times each call from
// outside:
//
//   validate_scenario
//   TopologyRegistry::build, Network construction
//     (sharded: partition_topology, ShardedSimulator)
//   SystemRegistry::create, once per system
//   TrafficGenerator::add_background, start
//   FaultInjector::apply
//   Simulator::run / ShardedSimulator::run
//   TelemetrySystem::diagnose, metrics::rank_of_truth
//
// The run goes to the first fault in one call, then onward in slices no
// longer than one MARS epoch until MARS holds its first diagnosis that
// triggered at or after the fault, then to the end in one call. That
// gives the fault-to-report latency in wall time without touching src/.
// compare_with_reference() checks the composed trial against
// run_scenario on the same config.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mars/scenario.hpp"
#include "obs/tracer.hpp"
#include "sim/sharded.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double now_s();

/// Wall-clock layer spans of one traced trial. Each span is kept as
/// (layer, seconds) and recorded as a Perfetto wall span on `tracer`. A
/// timer without a tracer records nothing.
class LayerTimer {
 public:
  explicit LayerTimer(mars::obs::SpanTracer* tracer) : tracer_(tracer) {}

  /// RAII span: adds its wall time under `layer` when it ends.
  class Scope {
   public:
    Scope(LayerTimer* timer, std::string layer);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    LayerTimer* timer_;  ///< null when the timer records nothing
    std::string layer_;
    double start_ = 0.0;
    std::optional<mars::obs::SpanTracer::WallSpan> span_;
  };

  [[nodiscard]] Scope scope(std::string layer) {
    return Scope(tracer_ != nullptr ? this : nullptr, std::move(layer));
  }

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& spans()
      const {
    return spans_;
  }

 private:
  mars::obs::SpanTracer* tracer_;
  std::vector<std::pair<std::string, double>> spans_;
};

struct TrialOptions {
  /// The traced run: record per-layer spans here, and replay
  /// RootCauseAnalyzer::analyze_with_stats on every captured MARS session
  /// to compare its culprits with the captured ones. Null: neither.
  mars::obs::SpanTracer* tracer = nullptr;
  /// Attach the hop-counting packet observer.
  bool count_hops = false;
};

/// One deployed system's graded outcome and its call costs.
struct SystemRecord {
  std::string name;
  mars::rca::CulpritList culprits;
  std::vector<std::optional<std::size_t>> ranks;
  std::uint64_t telemetry_bytes = 0;
  std::uint64_t diagnosis_bytes = 0;
  bool triggered = false;
  double deploy_s = 0.0;    ///< SystemRegistry::create
  double diagnose_s = 0.0;  ///< TelemetrySystem::diagnose

  /// Rank of the first ground truth; nullopt when it is not ranked.
  [[nodiscard]] std::optional<std::size_t> truth_rank() const {
    return ranks.empty() ? std::nullopt : ranks.front();
  }
};

/// One MARS diagnosis session, read from MarsSystem::diagnoses().
struct SessionRecord {
  mars::sim::Time trigger_at = 0;
  mars::sim::Time collected_at = 0;
  std::size_t records = 0;
  /// The session's culprits include a ground truth.
  bool useful = false;
  std::size_t patterns = 0;
  std::size_t nodes_expanded = 0;
  double mine_s = 0.0;
  /// Replay (traced runs): wall time of analyze_with_stats
  /// and whether its culprits equal the captured ones.
  double replay_s = 0.0;
  bool replay_match = true;
};

struct TrialRecord {
  std::vector<mars::faults::GroundTruth> truths;
  bool fault_injected = false;
  std::vector<SystemRecord> systems;
  mars::net::NetworkStats net;
  std::uint64_t packets_injected = 0;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;  ///< egress services (count_hops only)
  mars::sim::Time fault_at = 0;
  mars::sim::Time duration = 0;
  /// MARS's first diagnosis that triggered at or after the fault.
  std::optional<mars::sim::Time> trigger_at;
  std::optional<mars::sim::Time> report_at;
  /// Wall seconds from fault onset to the end of the slice in which that
  /// diagnosis exists.
  std::optional<double> report_wall_s;
  std::vector<SessionRecord> sessions;
  mars::sim::ShardSyncStats sync;
  std::uint64_t mailbox_mail = 0;
  /// Layer spans of the trial, in call order (traced runs only).
  std::vector<std::pair<std::string, double>> layers;
  double sim_run_s = 0.0;  ///< all run() calls together
  double wall_s = 0.0;     ///< the whole trial, teardown included

  [[nodiscard]] const SystemRecord* find(const std::string& name) const {
    for (const auto& s : systems) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

/// Run one trial through the calls above. Throws std::invalid_argument when
/// validate_scenario rejects the config.
[[nodiscard]] TrialRecord run_trial(const mars::ScenarioConfig& config,
                                    const TrialOptions& options);

/// Differences between a composed trial and run_scenario on the
/// same config: events executed, packets injected, NetworkStats, and every
/// system's culprit list and ranks. Empty means equivalent.
[[nodiscard]] std::vector<std::string> compare_with_reference(
    const TrialRecord& trial, const mars::ScenarioResult& reference);

/// Differences between two composed runs of one config (the
/// determinism check between passes of the untraced run).
[[nodiscard]] std::vector<std::string> compare_trials(const TrialRecord& a,
                                                      const TrialRecord& b);

}  // namespace perfbench

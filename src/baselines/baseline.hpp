#pragma once
// The comparison systems of §5.4–5.5: SpiderMon, IntSight, and SyNDB.
// Each is a systems::TelemetrySystem (the interface MARS also implements,
// so Table 1 and Fig. 9 grade all four identically) whose data plane is a
// PacketObserver attached to every switch.

#include <cstddef>
#include <cstdint>

#include "net/observer.hpp"
#include "net/types.hpp"
#include "rca/types.hpp"
#include "systems/telemetry_system.hpp"

namespace mars::baselines {

using OverheadReport = systems::OverheadReport;

/// Dense per-flow index, source * switch_count + sink: the layout of the
/// per-flow arrays (switch_count² entries) SpiderMon and IntSight keep.
[[nodiscard]] inline std::uint32_t dense_flow_index(const net::FlowId& flow,
                                                    std::size_t switch_count) {
  return flow.source * static_cast<std::uint32_t>(switch_count) + flow.sink;
}

class BaselineSystem : public systems::TelemetrySystem,
                       public net::PacketObserver {
 public:
  /// Most baselines self-trigger and ignore the query; they implement the
  /// legacy no-argument diagnose(). SyNDB overrides the query form to use
  /// the expert hint.
  [[nodiscard]] rca::CulpritList diagnose(
      const systems::DiagnosisQuery& /*query*/) override {
    return diagnose();
  }

  /// Produce the ranked culprit list from the system's own state alone.
  [[nodiscard]] virtual rca::CulpritList diagnose() = 0;
};

}  // namespace mars::baselines

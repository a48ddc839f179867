#pragma once
// Hook interface between the forwarding substrate and monitoring systems.
//
// MARS's P4 pipeline, and each baseline's data plane, are implemented as
// PacketObservers: the switch calls them at exactly the points a real P4
// program executes (ingress parse, enqueue, egress deparse, drop, and the
// sink's host-facing delivery where INT headers are stripped).

#include <cstdint>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace mars::sim {
class Simulator;
}

namespace mars::net {

class Switch;

/// Per-callback context: which switch, and access to virtual time.
struct SwitchContext {
  sim::Simulator& sim;
  Switch& sw;
  SwitchId id;
  Layer layer;
};

class PacketObserver {
 public:
  virtual ~PacketObserver() = default;

  /// Packet entered the switch (before the forwarding decision).
  virtual void on_ingress(SwitchContext& /*ctx*/, Packet& /*pkt*/) {}

  /// Forwarding decision made; the packet is about to join the egress
  /// queue of `out`. `queue_depth` is the occupancy it sees on arrival;
  /// the switch has also stored it in `pkt.enq_qdepth` for on_egress.
  virtual void on_enqueue(SwitchContext& /*ctx*/, Packet& /*pkt*/,
                          PortId /*out*/, std::uint32_t /*queue_depth*/) {}

  /// Packet finished service at egress port `out`.
  /// `hop_latency` = departure − ingress arrival at this switch;
  /// `pkt.enq_qdepth` still holds this hop's enqueue depth.
  virtual void on_egress(SwitchContext& /*ctx*/, Packet& /*pkt*/,
                         PortId /*out*/, sim::Time /*hop_latency*/) {}

  /// Packet was dropped at this switch (tail drop or fault).
  virtual void on_drop(SwitchContext& /*ctx*/, const Packet& /*pkt*/,
                       PortId /*out*/) {}

  /// Packet reached its sink switch and leaves the network. The observer
  /// may read/strip telemetry here (paper: "All INT headers will be removed
  /// at the end of the sink switch").
  virtual void on_deliver(SwitchContext& /*ctx*/, Packet& /*pkt*/) {}
};

}  // namespace mars::net

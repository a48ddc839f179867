#include "telemetry/int_md_backend.hpp"

namespace mars::telemetry {

IntMdBackend::IntMdBackend(IntMdConfig config, std::size_t switch_count,
                           std::size_t ring_capacity)
    : config_(config), ring_capacity_(ring_capacity) {
  state_.reserve(switch_count);
  for (std::size_t i = 0; i < switch_count; ++i) {
    state_.emplace_back(ring_capacity);
  }
}

void IntMdBackend::on_marked(net::SwitchContext& /*ctx*/,
                             const net::Packet& pkt) {
  // Optionally thin the pipeline's marking further (classic INT deploys
  // sample every packet; sample_every > 1 models a lighter config).
  if (config_.sample_every > 1 &&
      (sample_counter_++ % config_.sample_every) != 0) {
    return;
  }
  in_flight_.try_emplace(pkt.id);
}

std::uint32_t IntMdBackend::on_hop_egress(net::SwitchContext& ctx,
                                          const net::Packet& pkt,
                                          net::PortId out,
                                          sim::Time hop_latency) {
  // Every MARS packet still carries the PathID byte; stack-bearing packets
  // add shim + one entry per recorded hop across this link.
  std::uint32_t bytes = pkt.has_path_id ? 1u : 0u;
  // Only marked packets can have a stack: on_marked runs after the
  // pipeline sets the header, and the sink or a drop erases the entry.
  const auto it =
      pkt.telemetry ? in_flight_.find(pkt.id) : in_flight_.end();
  if (it != in_flight_.end()) {
    std::vector<IntMdHop>& hops = it->second;
    if (hops.size() < config_.max_hops) {
      hops.push_back(IntMdHop{ctx.id, pkt.ingress_port, out, hop_latency,
                              pkt.enq_qdepth});
    }
    bytes += config_.shim_bytes +
             static_cast<std::uint32_t>(hops.size()) * IntMdHop::kWireBytes;
  }
  state_[ctx.id].counters.inband_bytes += bytes;
  return bytes;
}

void IntMdBackend::on_drop(net::SwitchContext& /*ctx*/,
                           const net::Packet& pkt) {
  if (pkt.telemetry) in_flight_.erase(pkt.id);
}

void IntMdBackend::on_sink_record(net::SwitchContext& ctx,
                                  const net::Packet& pkt,
                                  const RtRecord& rec) {
  SwitchSlice& st = state_[ctx.id];
  StoredRecord stored;
  stored.rec = rec;
  if (const auto it = in_flight_.find(pkt.id); it != in_flight_.end()) {
    stored.hops = std::move(it->second);
    // The sink's own (queue-less) hop, as the spec's sink behavior.
    stored.hops.push_back(
        IntMdHop{ctx.id, pkt.ingress_port, net::kHostPort, 0, 0});
    in_flight_.erase(it);
  }
  st.ring.push(std::move(stored));
  ++st.counters.records;
}

void IntMdBackend::on_epoch_rollover(net::SwitchId sw, EpochId /*epoch*/,
                                     sim::Time /*now*/) {
  ++state_[sw].counters.epochs;
}

std::vector<RtRecord> IntMdBackend::drain(net::SwitchId sw) const {
  std::vector<RtRecord> out;
  const auto& ring = state_[sw].ring;
  out.reserve(ring.size());
  ring.for_each([&](const StoredRecord& s) { out.push_back(s.rec); });
  return out;
}

std::size_t IntMdBackend::store_size(net::SwitchId sw) const {
  return state_[sw].ring.size();
}

BackendCounters IntMdBackend::counters() const {
  BackendCounters total;
  for (const SwitchSlice& st : state_) {
    total.inband_bytes += st.counters.inband_bytes;
    total.records += st.counters.records;
    total.epochs += st.counters.epochs;
    total.triggers += st.counters.triggers;
  }
  return total;
}

}  // namespace mars::telemetry

#pragma once
// Control-plane PathID registry (paper §4.1, §5.5).
//
// The control plane enumerates every shortest edge-to-edge path, replays
// the data plane's per-hop PathID hash for each, and resolves hash
// conflicts by installing MAT entries that override the control word at
// the first hop where the colliding paths diverge. The result is
//   (a) the PathID -> switch-sequence map used to decompress diagnosis
//       reports, and
//   (b) the conflict MAT the data plane needs, whose entry count is the
//       switch-memory cost compared against IntSight in §5.5.
//
// Paths are stored flat (switch ids, hop records, offsets, ids) and
// enumerated per source edge switch on the `src/parallel` thread pool;
// one sorted (id, path) index counts collisions and decompresses ids.
// The hard contract is that the MAT, the path order, and every collision
// count are bit-identical at every thread count — the sequential build
// is just the 1-thread special case.
//
// A registry that fails to resolve every collision is a *diagnosed*
// condition, not a silent one: ambiguous PathIDs decompress to nothing
// (never to an arbitrary first-wins path), the PathAuditReport carries
// the residual counts, and scenario validation rejects the configuration.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "telemetry/path_id.hpp"

namespace mars::obs {
class EventLog;
}

namespace mars::parallel {
class ThreadPool;
}

namespace mars::control {

/// One registered path: its switch sequence, its hop coordinates and its
/// final PathID. The spans view the registry's flat arrays and live as
/// long as the registry.
struct RegisteredPath {
  struct Hop {
    net::SwitchId sw;
    net::PortId in_port;
    net::PortId out_port;
  };
  std::span<const net::SwitchId> switches;
  std::span<const Hop> hops;
  std::uint32_t path_id = 0;
};

/// Everything scenario validation, the CLI `--path-audit` view, and the
/// collision-rate bench need to judge a built registry. All counts are
/// deterministic; `build_seconds` is the one wall-clock field.
struct PathAuditReport {
  telemetry::PathIdConfig config;
  std::size_t path_count = 0;
  std::size_t hop_count = 0;
  std::size_t id_space = 0;  ///< 2^width_bits (distinct PathID values)
  std::size_t initial_collisions = 0;
  std::size_t residual_collisions = 0;  ///< 0 iff conflict_free
  std::size_t ambiguous_ids = 0;  ///< PathIDs shared by >1 path after build
  std::size_t mat_entries = 0;
  std::size_t mat_overwrites = 0;  ///< last-resort clobbers (expected 0)
  int rounds = 0;                  ///< resolution rounds actually run
  /// More paths than PathID values: resolution is skipped because no MAT
  /// can make the mapping injective (pigeonhole).
  bool pigeonhole_infeasible = false;
  bool conflict_free = false;
  std::size_t mars_memory_bytes = 0;
  std::size_t intsight_memory_bytes = 0;
  std::size_t build_threads = 1;
  double build_seconds = 0.0;  ///< wall clock; nondeterministic
};

class PathRegistry {
 public:
  /// Enumerates all shortest edge-to-edge paths and resolves conflicts.
  /// `threads`: 1 = sequential (the default, and the reference the
  /// parallel build must reproduce bit-for-bit), 0 = hardware
  /// concurrency capped at one thread per 16 source edge switches (so
  /// k=4 builds inline), N = a private N-thread pool for the build only.
  PathRegistry(const net::Topology& topology, const net::RoutingTable& routing,
               telemetry::PathIdConfig config, std::size_t threads = 1);

  /// Decompress a PathID into its switch sequence. Empty if unknown *or
  /// ambiguous* — an ambiguous id (only possible when the registry is not
  /// conflict_free()) must never decompress to an arbitrary survivor, so
  /// it counts in ambiguous_lookups() and returns nothing.
  [[nodiscard]] std::span<const net::SwitchId> lookup(
      std::uint32_t path_id) const;

  /// True when `path_id` is shared by more than one registered path.
  [[nodiscard]] bool is_ambiguous(std::uint32_t path_id) const;
  /// How many lookup() calls hit an ambiguous id (thread-safe counter).
  [[nodiscard]] std::uint64_t ambiguous_lookups() const {
    return ambiguous_lookups_.load(std::memory_order_relaxed);
  }

  /// The conflict-resolution MAT to install in the data plane.
  [[nodiscard]] const telemetry::ControlMat& mat() const { return mat_; }
  [[nodiscard]] std::size_t mat_entry_count() const { return mat_.size(); }

  [[nodiscard]] std::size_t path_count() const { return ids_.size(); }
  /// Path `i` (0 <= i < path_count()), in enumeration order.
  [[nodiscard]] RegisteredPath path(std::size_t i) const;
  /// Collisions seen before any MAT entry was installed.
  [[nodiscard]] std::size_t initial_collisions() const {
    return audit_.initial_collisions;
  }
  /// True if every registered path maps to a distinct PathID.
  [[nodiscard]] bool conflict_free() const { return audit_.conflict_free; }

  /// The full construction audit (counts are deterministic).
  [[nodiscard]] const PathAuditReport& audit() const { return audit_; }

  /// Emit the audit as structured events: one info summary, plus an error
  /// event when collisions survived resolution.
  void log_audit(obs::EventLog& log, sim::Time at) const;

  // ---- §5.5 switch-memory accounting ----
  /// MARS: one ~10-byte MAT entry per unresolved hash conflict.
  [[nodiscard]] std::size_t mars_memory_bytes() const {
    return mat_.size() * kMarsMatEntryBytes;
  }
  /// IntSight: one ~7-byte MAT entry per hop of every path.
  [[nodiscard]] std::size_t intsight_memory_bytes() const {
    return hops_.size() * kIntSightMatEntryBytes;
  }

  static constexpr std::size_t kMarsMatEntryBytes = 10;
  static constexpr std::size_t kIntSightMatEntryBytes = 7;

 private:
  void enumerate(const net::RoutingTable& routing, parallel::ThreadPool* pool);
  [[nodiscard]] std::uint32_t replay(std::size_t path) const;
  [[nodiscard]] std::size_t index_ids();
  void resolve_conflicts(parallel::ThreadPool* pool);
  void separate_collisions();
  void separate(std::size_t a, std::size_t b);

  const net::Topology* topology_;
  telemetry::PathIdConfig config_;
  // Paths back to back: path i is switches_/hops_ [offsets_[i],
  // offsets_[i + 1]) with PathID ids_[i].
  std::vector<net::SwitchId> switches_;
  std::vector<RegisteredPath::Hop> hops_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> ids_;
  /// (PathID << 32 | path index) of every path, sorted.
  std::vector<std::uint64_t> index_;
  telemetry::ControlMat mat_;
  mutable std::atomic<std::uint64_t> ambiguous_lookups_{0};
  PathAuditReport audit_;
  std::uint32_t next_control_ = 1;
};

}  // namespace mars::control

#include "control/path_registry.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/event_log.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace mars::control {

namespace {

using Hop = RegisteredPath::Hop;

[[nodiscard]] std::uint32_t id_of(std::uint64_t entry) {
  return static_cast<std::uint32_t>(entry >> 32);
}
[[nodiscard]] std::size_t path_of(std::uint64_t entry) {
  return static_cast<std::size_t>(entry & 0xFFFFFFFFu);
}

/// Fewest source edge switches per build thread when the thread count is
/// chosen automatically.
constexpr std::size_t kRootsPerThread = 16;

/// Run fn(i) for i in [0, n): on the pool when there is one.
template <typename Fn>
void for_each_index(parallel::ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr && n > 1) {
    parallel::parallel_for(*pool, 0, n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

PathRegistry::PathRegistry(const net::Topology& topology,
                           const net::RoutingTable& routing,
                           telemetry::PathIdConfig config, std::size_t threads)
    : topology_(&topology), config_(config) {
  const auto start = std::chrono::steady_clock::now();
  if (threads == 0) {
    // Hardware concurrency, but no more threads than the source-edge roots
    // can keep busy: a small fabric (k=4: 8 roots) builds inline instead
    // of paying for a pool it cannot use.
    const std::size_t roots =
        topology.switches_in_layer(net::Layer::kEdge).size();
    const std::size_t hardware =
        std::max(1u, std::thread::hardware_concurrency());
    threads = std::clamp<std::size_t>(roots / kRootsPerThread, 1, hardware);
  }
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<parallel::ThreadPool>(threads);

  enumerate(routing, pool.get());
  resolve_conflicts(pool.get());

  audit_.config = config_;
  audit_.path_count = path_count();
  audit_.hop_count = hops_.size();
  audit_.id_space = static_cast<std::size_t>(config_.mask()) + 1;
  audit_.mat_entries = mat_.size();
  audit_.mars_memory_bytes = mars_memory_bytes();
  audit_.intsight_memory_bytes = intsight_memory_bytes();
  audit_.build_threads = threads;
  audit_.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void PathRegistry::enumerate(const net::RoutingTable& routing,
                             parallel::ThreadPool* pool) {
  // Per-root task splitting (fsm::Engine's pattern): every source edge
  // switch runs RoutingTable::enumerate_paths' DFS to every other edge
  // switch, destinations in layer order, and the roots' paths follow each
  // other in source order, so the path table is identical at every thread
  // count. Each root writes straight into its own slice of the flat
  // arrays: all shortest paths to one destination have the same length,
  // and their number is a sum over the shortest-path DAG, so every
  // slice's size is known before any DFS runs. The DFS carries each
  // prefix's running PathID, which gives round 0's ids (empty MAT).
  const auto edges = topology_->switches_in_layer(net::Layer::kEdge);
  std::vector<std::size_t> first_path(edges.size() + 1, 0);
  std::vector<std::size_t> first_hop(edges.size() + 1, 0);
  std::vector<std::size_t> paths_to(topology_->switch_count());
  for (const net::SwitchId dst : edges) {
    std::fill(paths_to.begin(), paths_to.end(), 0);
    const auto count = [&](const auto& self, net::SwitchId cur) {
      std::size_t& n = paths_to[cur];
      if (cur == dst) n = 1;
      if (n != 0) return n;
      const int d = routing.distance(cur, dst);
      for (net::PortId p = 0; p < topology_->port_count(cur); ++p) {
        const net::SwitchId nb = topology_->peer(cur, p).neighbor;
        if (routing.distance(nb, dst) == d - 1) n += self(self, nb);
      }
      return n;
    };
    for (std::size_t r = 0; r < edges.size(); ++r) {
      const int d = routing.distance(edges[r], dst);
      if (edges[r] == dst || d < 0) continue;
      const std::size_t n = count(count, edges[r]);
      first_path[r + 1] += n;
      first_hop[r + 1] += n * static_cast<std::size_t>(d + 1);
    }
  }
  std::partial_sum(first_path.begin(), first_path.end(), first_path.begin());
  std::partial_sum(first_hop.begin(), first_hop.end(), first_hop.begin());
  if (first_path.back() > 0xFFFFFFFFu) {  // index_ packs paths in 32 bits
    throw std::length_error("PathRegistry: more than 2^32 paths");
  }
  switches_.resize(first_hop.back());
  hops_.resize(first_hop.back());
  offsets_.resize(first_path.back() + 1);
  ids_.resize(first_path.back());

  for_each_index(pool, edges.size(), [&](std::size_t r) {
    std::size_t path = first_path[r], hop = first_hop[r];
    std::vector<Hop> stack;
    for (const net::SwitchId dst : edges) {
      if (dst == edges[r] || routing.distance(edges[r], dst) < 0) continue;
      const auto dfs = [&](const auto& self, net::SwitchId cur,
                           net::PortId in_port, std::uint32_t id) -> void {
        const int d = routing.distance(cur, dst);
        if (d == 0) {
          stack.push_back({cur, in_port, net::kHostPort});
          for (const Hop& h : stack) {
            switches_[hop] = h.sw;
            hops_[hop++] = h;
          }
          offsets_[path + 1] = hop;
          ids_[path++] = telemetry::update_path_id(
              config_, id, cur, in_port, net::kHostPort, 0);
          stack.pop_back();
          return;
        }
        for (net::PortId p = 0; p < topology_->port_count(cur); ++p) {
          const net::SwitchId nb = topology_->peer(cur, p).neighbor;
          if (routing.distance(nb, dst) != d - 1) continue;
          // The first port facing the neighbour (port_towards), which is
          // not p itself only on parallel links.
          const net::PortId out_port = *topology_->port_towards(cur, nb);
          stack.push_back({cur, in_port, out_port});
          self(self, nb, *topology_->port_towards(nb, cur),
               telemetry::update_path_id(config_, id, cur, in_port, out_port,
                                         0));
          stack.pop_back();
        }
      };
      dfs(dfs, edges[r], net::kHostPort, 0);
    }
  });
}

RegisteredPath PathRegistry::path(std::size_t i) const {
  const std::size_t begin = offsets_[i];
  const std::size_t size = offsets_[i + 1] - begin;
  return {{switches_.data() + begin, size},
          {hops_.data() + begin, size},
          ids_[i]};
}

std::uint32_t PathRegistry::replay(std::size_t path) const {
  std::uint32_t id = 0;
  for (const Hop& hop : this->path(path).hops) {
    id = telemetry::update_path_id_with_mat(config_, mat_, id, hop.sw,
                                            hop.in_port, hop.out_port);
  }
  return id;
}

std::size_t PathRegistry::index_ids() {
  // Sorting (id, path) pairs groups every PathID's paths together in path
  // order; the collision count is the number of paths beyond the first
  // for each id, i.e. n minus the distinct ids. Also sets ambiguous_ids.
  const std::size_t n = path_count();
  index_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    index_[i] = std::uint64_t{ids_[i]} << 32 | i;
  }
  std::sort(index_.begin(), index_.end());
  std::size_t distinct = 0;
  audit_.ambiguous_ids = 0;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && id_of(index_[j]) == id_of(index_[i])) ++j;
    ++distinct;
    if (j - i > 1) ++audit_.ambiguous_ids;
    i = j;
  }
  return n - distinct;
}

void PathRegistry::resolve_conflicts(parallel::ThreadPool* pool) {
  // Iteratively: recompute all ids; for every group of paths sharing an
  // id, keep the first and pin a fresh control value for each of the
  // others at the first hop where their running keys diverge from the
  // keeper's. Fixing whole groups per round shrinks the conflict count
  // geometrically, so even dense tables (K=8: ~15k paths in 16 bits)
  // settle in a handful of rounds. Round 0's ids come from enumerate().
  constexpr int kMaxRounds = 64;
  // Pigeonhole: with more paths than PathID values no MAT assignment can
  // be injective, so 64 rounds of separation would only churn. Record the
  // raw collision census and stop — validation rejects the config.
  const bool pigeonhole =
      path_count() > static_cast<std::size_t>(config_.mask()) + 1;
  for (int round = 0;; ++round) {
    if (round > 0) {
      // Each path's id depends only on its own hops and the (frozen) MAT,
      // so the replays write disjoint slots.
      for_each_index(pool, path_count(),
                     [&](std::size_t i) { ids_[i] = replay(i); });
    }
    const std::size_t conflicts = index_ids();
    if (round == 0) audit_.initial_collisions = conflicts;
    if (pigeonhole || conflicts == 0 || round + 1 == kMaxRounds) {
      // Stop *with the index consistent*: the ids reflect the final MAT
      // (no separation whose effect was never re-checked), and the
      // residual census is what validation reports.
      audit_.pigeonhole_infeasible = pigeonhole;
      audit_.conflict_free = conflicts == 0;
      audit_.residual_collisions = conflicts;
      audit_.rounds = pigeonhole ? 0 : round + 1;
      break;
    }
    separate_collisions();
  }
}

void PathRegistry::separate_collisions() {
  // The control values are handed out in this map's iteration order,
  // which depends on the sequence of inserted ids, so the map is always
  // built one way: every path inserted sequentially in index order. Same
  // insertions, same bucket state, same iteration order, same MAT. Only a
  // round with collisions pays for it.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < path_count(); ++i) {
    groups[ids_[i]].push_back(i);
  }
  for (const auto& [id, members] : groups) {
    for (std::size_t m = 1; m < members.size(); ++m) {
      separate(members.front(), members[m]);
    }
  }
}

void PathRegistry::separate(std::size_t a, std::size_t b) {
  // Pin a fresh control value for `b` at the LAST hop whose running key
  // differs from `a`'s and has no MAT entry yet. Early hops' keys are
  // shared by every sibling path through the same prefix (e.g. all paths
  // leaving the source via one port), so rewriting them re-hashes large
  // path families and thrashes; the deepest key is the most specific.
  const std::span<const Hop> hops_a = path(a).hops;
  const std::span<const Hop> hops_b = path(b).hops;
  std::uint32_t id_a = 0, id_b = 0;
  std::optional<telemetry::HopKey> target;
  std::vector<telemetry::HopKey> keys;
  keys.reserve(hops_b.size());
  for (std::size_t h = 0; h < hops_b.size(); ++h) {
    const Hop& hb = hops_b[h];
    const telemetry::HopKey kb{id_b, hb.sw, hb.in_port, hb.out_port};
    keys.push_back(kb);
    bool differs = true;
    if (h < hops_a.size()) {
      const Hop& ha = hops_a[h];
      const telemetry::HopKey ka{id_a, ha.sw, ha.in_port, ha.out_port};
      differs = !(ka == kb);
      id_a = telemetry::update_path_id_with_mat(config_, mat_, id_a, ha.sw,
                                                ha.in_port, ha.out_port);
    }
    if (differs && mat_.find(kb) == mat_.end()) target = kb;
    id_b = telemetry::update_path_id_with_mat(config_, mat_, id_b, hb.sw,
                                              hb.in_port, hb.out_port);
  }
  if (target) {
    mat_.emplace(*target, next_control_++);
    return;
  }
  // No differing MAT-free hop. Re-rolling ANY hop of b re-hashes it (a
  // shares the key, so a re-rolls identically up to the fresh control's
  // avalanche), so take the deepest hop whose key is still free rather
  // than clobber an installed entry — overwriting un-resolves whichever
  // previously separated pair that entry was pinned for.
  for (std::size_t h = keys.size(); h-- > 0;) {
    if (mat_.find(keys[h]) == mat_.end()) {
      mat_.emplace(keys[h], next_control_++);
      return;
    }
  }
  // Every hop of b already carries an entry. Overwriting one would
  // un-resolve whichever previously separated pair that entry was pinned
  // for — the silent-clobber bug this pass exists to prevent — so leave b
  // alone this round. Other separations re-hash the table, which usually
  // frees a key by the next round; if not, the give-up path records b in
  // the residual census and validation rejects the config.
}

std::span<const net::SwitchId> PathRegistry::lookup(
    std::uint32_t path_id) const {
  const auto [lo, hi] = std::ranges::equal_range(index_, path_id, {}, id_of);
  if (hi - lo > 1) {
    // Decompressing an ambiguous id to an arbitrary survivor would feed
    // the analyzer a wrong switch sequence; refuse and count instead.
    ambiguous_lookups_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  if (lo == hi) return {};
  return path(path_of(*lo)).switches;
}

bool PathRegistry::is_ambiguous(std::uint32_t path_id) const {
  const auto [lo, hi] = std::ranges::equal_range(index_, path_id, {}, id_of);
  return hi - lo > 1;
}

void PathRegistry::log_audit(obs::EventLog& log, sim::Time at) const {
  log.log(obs::LogLevel::kInfo, at, "pathid", "audit",
          {{"paths", std::uint64_t{audit_.path_count}},
           {"hops", std::uint64_t{audit_.hop_count}},
           {"hash", telemetry::hash_name(config_.hash)},
           {"width_bits", std::uint64_t{config_.width_bits}},
           {"initial_collisions", std::uint64_t{audit_.initial_collisions}},
           {"mat_entries", std::uint64_t{audit_.mat_entries}},
           {"rounds", std::uint64_t{static_cast<std::uint64_t>(audit_.rounds)}},
           {"build_threads", std::uint64_t{audit_.build_threads}},
           {"conflict_free", std::uint64_t{audit_.conflict_free ? 1u : 0u}}});
  if (!audit_.conflict_free) {
    log.log(obs::LogLevel::kError, at, "pathid", "unresolved_collisions",
            {{"residual_collisions",
              std::uint64_t{audit_.residual_collisions}},
             {"ambiguous_ids", std::uint64_t{audit_.ambiguous_ids}},
             {"pigeonhole_infeasible",
              std::uint64_t{audit_.pigeonhole_infeasible ? 1u : 0u}},
             {"rounds",
              std::uint64_t{static_cast<std::uint64_t>(audit_.rounds)}}});
  }
}

}  // namespace mars::control

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "control/path_registry.hpp"
#include "net/fat_tree.hpp"
#include "net/leaf_spine.hpp"

namespace mars::control {
namespace {

/// Reference registry: one heap vector of switches and one of hops per
/// path, ids grouped by inserting every path into an unordered_map in
/// index order, decompression through an id -> path map plus an
/// ambiguous-id set. Same enumeration, replay, separation and audit rules
/// as PathRegistry; the flat registry must agree with it exactly.
class PerPathRegistry {
 public:
  struct Path {
    net::SwitchPath switches;
    std::uint32_t path_id = 0;
    std::vector<RegisteredPath::Hop> hops;
  };

  PerPathRegistry(const net::Topology& topology,
                  const net::RoutingTable& routing,
                  telemetry::PathIdConfig config)
      : topology_(&topology), config_(config) {
    for (auto& switches : routing.enumerate_edge_paths()) {
      Path path;
      path.switches = std::move(switches);
      build_hops(path);
      paths_.push_back(std::move(path));
    }
    const Groups groups = resolve_conflicts();
    for (const auto& [id, members] : groups) {
      if (members.size() == 1) {
        id_to_path_.emplace(id, members.front());
      } else {
        ambiguous_.insert(id);
      }
    }
    audit_.config = config_;
    audit_.path_count = paths_.size();
    for (const Path& p : paths_) audit_.hop_count += p.hops.size();
    audit_.id_space = static_cast<std::size_t>(config_.mask()) + 1;
    audit_.ambiguous_ids = ambiguous_.size();
    audit_.mat_entries = mat_.size();
    audit_.mars_memory_bytes = mat_.size() * PathRegistry::kMarsMatEntryBytes;
    audit_.intsight_memory_bytes =
        audit_.hop_count * PathRegistry::kIntSightMatEntryBytes;
  }

  const net::SwitchPath* lookup(std::uint32_t path_id) const {
    if (ambiguous_.count(path_id) > 0) {
      ++ambiguous_lookups_;
      return nullptr;
    }
    const auto it = id_to_path_.find(path_id);
    return it == id_to_path_.end() ? nullptr : &paths_[it->second].switches;
  }
  bool is_ambiguous(std::uint32_t path_id) const {
    return ambiguous_.count(path_id) > 0;
  }
  std::uint64_t ambiguous_lookups() const { return ambiguous_lookups_; }
  const std::vector<Path>& paths() const { return paths_; }
  const telemetry::ControlMat& mat() const { return mat_; }
  const PathAuditReport& audit() const { return audit_; }

 private:
  using Groups = std::unordered_map<std::uint32_t, std::vector<std::size_t>>;

  void build_hops(Path& path) const {
    const auto& sws = path.switches;
    for (std::size_t i = 0; i < sws.size(); ++i) {
      RegisteredPath::Hop hop{sws[i], net::kHostPort, net::kHostPort};
      if (i > 0) hop.in_port = *topology_->port_towards(sws[i], sws[i - 1]);
      if (i + 1 < sws.size()) {
        hop.out_port = *topology_->port_towards(sws[i], sws[i + 1]);
      }
      path.hops.push_back(hop);
    }
  }

  Groups replay_and_group() {
    Groups groups;
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      std::uint32_t id = 0;
      for (const auto& hop : paths_[i].hops) {
        id = telemetry::update_path_id_with_mat(config_, mat_, id, hop.sw,
                                                hop.in_port, hop.out_port);
      }
      paths_[i].path_id = id;
      groups[id].push_back(i);
    }
    return groups;
  }

  static std::size_t count_conflicts(const Groups& groups) {
    std::size_t conflicts = 0;
    for (const auto& [id, members] : groups) conflicts += members.size() - 1;
    return conflicts;
  }

  Groups resolve_conflicts() {
    constexpr int kMaxRounds = 64;
    if (paths_.size() > static_cast<std::size_t>(config_.mask()) + 1) {
      Groups groups = replay_and_group();
      audit_.initial_collisions = count_conflicts(groups);
      audit_.residual_collisions = audit_.initial_collisions;
      audit_.pigeonhole_infeasible = true;
      return groups;
    }
    for (int round = 0;; ++round) {
      Groups groups = replay_and_group();
      const std::size_t conflicts = count_conflicts(groups);
      if (round == 0) audit_.initial_collisions = conflicts;
      if (conflicts == 0 || round + 1 == kMaxRounds) {
        audit_.conflict_free = conflicts == 0;
        audit_.residual_collisions = conflicts;
        audit_.rounds = round + 1;
        return groups;
      }
      for (const auto& [id, members] : groups) {
        for (std::size_t m = 1; m < members.size(); ++m) {
          separate(paths_[members.front()], paths_[members[m]]);
        }
      }
    }
  }

  void separate(const Path& a, const Path& b) {
    std::uint32_t id_a = 0, id_b = 0;
    std::optional<telemetry::HopKey> target;
    std::vector<telemetry::HopKey> keys;
    for (std::size_t h = 0; h < b.hops.size(); ++h) {
      const auto& hb = b.hops[h];
      const telemetry::HopKey kb{id_b, hb.sw, hb.in_port, hb.out_port};
      keys.push_back(kb);
      bool differs = true;
      if (h < a.hops.size()) {
        const auto& ha = a.hops[h];
        differs = !(telemetry::HopKey{id_a, ha.sw, ha.in_port, ha.out_port} ==
                    kb);
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
    for (std::size_t h = keys.size(); h-- > 0;) {
      if (mat_.find(keys[h]) == mat_.end()) {
        mat_.emplace(keys[h], next_control_++);
        return;
      }
    }
  }

  const net::Topology* topology_;
  telemetry::PathIdConfig config_;
  std::vector<Path> paths_;
  telemetry::ControlMat mat_;
  std::unordered_map<std::uint32_t, std::size_t> id_to_path_;
  std::unordered_set<std::uint32_t> ambiguous_;
  mutable std::uint64_t ambiguous_lookups_ = 0;
  PathAuditReport audit_;
  std::uint32_t next_control_ = 1;
};

void expect_same_audit(const PathAuditReport& got,
                       const PathAuditReport& want) {
  EXPECT_EQ(got.config.hash, want.config.hash);
  EXPECT_EQ(got.config.width_bits, want.config.width_bits);
  EXPECT_EQ(got.path_count, want.path_count);
  EXPECT_EQ(got.hop_count, want.hop_count);
  EXPECT_EQ(got.id_space, want.id_space);
  EXPECT_EQ(got.initial_collisions, want.initial_collisions);
  EXPECT_EQ(got.residual_collisions, want.residual_collisions);
  EXPECT_EQ(got.ambiguous_ids, want.ambiguous_ids);
  EXPECT_EQ(got.mat_entries, want.mat_entries);
  EXPECT_EQ(got.mat_overwrites, want.mat_overwrites);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.pigeonhole_infeasible, want.pigeonhole_infeasible);
  EXPECT_EQ(got.conflict_free, want.conflict_free);
  EXPECT_EQ(got.mars_memory_bytes, want.mars_memory_bytes);
  EXPECT_EQ(got.intsight_memory_bytes, want.intsight_memory_bytes);
}

/// Build both registries for one shape and compare everything they expose.
void expect_matches_reference(const net::Topology& topology,
                              telemetry::PathIdConfig config,
                              std::size_t threads) {
  SCOPED_TRACE(std::string(telemetry::hash_name(config.hash)) + "/" +
               std::to_string(config.width_bits) + " threads " +
               std::to_string(threads));
  const net::RoutingTable routing(topology);
  const PerPathRegistry want(topology, routing, config);
  const PathRegistry got(topology, routing, config, threads);

  // Path order, switch sequences, hop ports and ids.
  ASSERT_EQ(got.path_count(), want.paths().size());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < got.path_count(); ++i) {
    const RegisteredPath g = got.path(i);
    const PerPathRegistry::Path& w = want.paths()[i];
    bool same = std::ranges::equal(g.switches, w.switches) &&
                g.path_id == w.path_id && g.hops.size() == w.hops.size();
    for (std::size_t h = 0; same && h < g.hops.size(); ++h) {
      same = g.hops[h].sw == w.hops[h].sw &&
             g.hops[h].in_port == w.hops[h].in_port &&
             g.hops[h].out_port == w.hops[h].out_port;
    }
    if (!same && mismatched++ == 0) ADD_FAILURE() << "path " << i << " differs";
  }
  EXPECT_EQ(mismatched, 0u);

  // MAT keys and control values, and the whole audit.
  EXPECT_TRUE(got.mat() == want.mat());
  expect_same_audit(got.audit(), want.audit());
  EXPECT_EQ(got.audit().build_threads, threads);
  EXPECT_EQ(got.intsight_memory_bytes(), want.audit().intsight_memory_bytes);
  EXPECT_EQ(got.mars_memory_bytes(), want.audit().mars_memory_bytes);

  // Decompression of every registered id, then of probe ids covering the
  // low id space: unknown and ambiguous ids must agree too.
  const auto same_lookup = [&](std::uint32_t id) {
    const auto g = got.lookup(id);
    const net::SwitchPath* w = want.lookup(id);
    const bool agree = w == nullptr ? g.empty() : std::ranges::equal(g, *w);
    return agree && got.is_ambiguous(id) == want.is_ambiguous(id);
  };
  mismatched = 0;
  for (const auto& p : want.paths()) {
    if (!same_lookup(p.path_id) && mismatched++ == 0) {
      ADD_FAILURE() << "lookup of registered id " << p.path_id << " differs";
    }
  }
  const std::uint64_t probes = std::uint64_t{1}
                               << std::min<std::uint32_t>(config.width_bits,
                                                          16);
  for (std::uint64_t id = 0; id < probes; ++id) {
    if (!same_lookup(static_cast<std::uint32_t>(id)) && mismatched++ == 0) {
      ADD_FAILURE() << "lookup of probe id " << id << " differs";
    }
  }
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(got.ambiguous_lookups(), want.ambiguous_lookups());
}

TEST(PathRegistryDifferentialTest, PathIdAuditGridMatchesPerPathReference) {
  // The BENCH_pathid_audit.json grid: conflict-free, capped-at-64-rounds
  // and pigeonhole shapes alike.
  for (const int k : {4, 6, 8}) {
    const net::FatTree ft = net::build_fat_tree({.k = k});
    for (const std::uint32_t width : {10u, 12u, 14u, 16u}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      for (const std::size_t threads : {1u, 4u}) {
        expect_matches_reference(ft.topology,
                                 {telemetry::HashKind::kCrc16, width}, threads);
      }
    }
  }
}

TEST(PathRegistryDifferentialTest, LeafSpineMatchesPerPathReference) {
  const net::LeafSpine ls = net::build_leaf_spine({.leaves = 12, .spines = 6});
  for (const std::uint32_t width : {8u, 12u, 16u}) {
    expect_matches_reference(ls.topology, {telemetry::HashKind::kCrc16, width},
                             4);
  }
}

TEST(PathRegistryDifferentialTest, DatacenterScaleCrc32MatchesReference) {
  // 990,208 paths, conflict-free at crc32/32 (datacenter_scale.json).
  const net::FatTree ft = net::build_fat_tree({.k = 16});
  expect_matches_reference(ft.topology, {telemetry::HashKind::kCrc32, 32}, 4);
}

TEST(PathRegistryDifferentialTest, DatacenterScaleCrc16PigeonholeMatches) {
  // The paper's default crc16/16 has fewer ids than k=16 has paths.
  const net::FatTree ft = net::build_fat_tree({.k = 16});
  expect_matches_reference(ft.topology, {telemetry::HashKind::kCrc16, 16}, 4);
}

}  // namespace
}  // namespace mars::control

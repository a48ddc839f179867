#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "control/path_registry.hpp"
#include "control/path_registry_cache.hpp"
#include "net/fat_tree.hpp"
#include "net/leaf_spine.hpp"

namespace mars::control {
namespace {

// The parallel build promises bit-identity with the sequential one: same
// MAT (keys AND assigned control values), same path table (switch lists,
// hops, replayed ids), same audit census. These tests pin that promise at
// every thread count the CI matrix exercises.

[[nodiscard]] bool same_registry(const PathRegistry& a,
                                 const PathRegistry& b) {
  if (a.path_count() != b.path_count()) return false;
  for (std::size_t i = 0; i < a.path_count(); ++i) {
    const RegisteredPath pa = a.path(i);
    const RegisteredPath pb = b.path(i);
    if (!std::ranges::equal(pa.switches, pb.switches)) return false;
    if (pa.path_id != pb.path_id) return false;
    if (pa.hops.size() != pb.hops.size()) return false;
    for (std::size_t h = 0; h < pa.hops.size(); ++h) {
      if (pa.hops[h].sw != pb.hops[h].sw) return false;
      if (pa.hops[h].in_port != pb.hops[h].in_port) return false;
      if (pa.hops[h].out_port != pb.hops[h].out_port) return false;
    }
  }
  if (a.mat() != b.mat()) return false;
  const auto& ra = a.audit();
  const auto& rb = b.audit();
  return ra.initial_collisions == rb.initial_collisions &&
         ra.residual_collisions == rb.residual_collisions &&
         ra.ambiguous_ids == rb.ambiguous_ids &&
         ra.mat_entries == rb.mat_entries &&
         ra.mat_overwrites == rb.mat_overwrites &&
         ra.rounds == rb.rounds && ra.conflict_free == rb.conflict_free;
}

TEST(PathRegistryParallelTest, FatTreeBitIdenticalAcrossThreadCounts) {
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable routing{ft.topology};
  for (const telemetry::PathIdConfig cfg :
       {telemetry::PathIdConfig{telemetry::HashKind::kCrc16, 16},
        telemetry::PathIdConfig{telemetry::HashKind::kCrc16, 10}}) {
    const PathRegistry seq(ft.topology, routing, cfg, 1);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      const PathRegistry par(ft.topology, routing, cfg, threads);
      EXPECT_TRUE(same_registry(seq, par))
          << "width " << cfg.width_bits << " threads " << threads;
      EXPECT_EQ(par.audit().build_threads, threads);
    }
  }
}

TEST(PathRegistryParallelTest, LeafSpineBitIdenticalAcrossThreadCounts) {
  const net::LeafSpine ls = net::build_leaf_spine({.leaves = 12, .spines = 6});
  const net::RoutingTable routing{ls.topology};
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16, 12};
  const PathRegistry seq(ls.topology, routing, cfg, 1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const PathRegistry par(ls.topology, routing, cfg, threads);
    EXPECT_TRUE(same_registry(seq, par)) << "threads " << threads;
  }
}

TEST(PathRegistryParallelTest, RandomizedDifferentialSequentialVsParallel) {
  std::mt19937_64 rng(0xA11D5EEDull);
  std::uniform_int_distribution<int> leaves(4, 14);
  std::uniform_int_distribution<int> spines(2, 6);
  std::uniform_int_distribution<std::uint32_t> width(8, 20);
  for (int trial = 0; trial < 6; ++trial) {
    const net::LeafSpine ls =
        net::build_leaf_spine({.leaves = leaves(rng), .spines = spines(rng)});
    const net::RoutingTable routing{ls.topology};
    const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16,
                                      width(rng)};
    const PathRegistry seq(ls.topology, routing, cfg, 1);
    const PathRegistry par(ls.topology, routing, cfg, 4);
    EXPECT_TRUE(same_registry(seq, par))
        << "trial " << trial << ": " << ls.leaf.size() << " leaves, "
        << ls.spine.size() << " spines, width " << cfg.width_bits;
  }
}

TEST(PathRegistryParallelTest, ThreadsZeroMeansHardwareConcurrency) {
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable routing{ft.topology};
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16, 16};
  const PathRegistry seq(ft.topology, routing, cfg, 1);
  const PathRegistry autod(ft.topology, routing, cfg, 0);
  EXPECT_TRUE(same_registry(seq, autod));
  // Eight source edge switches are too few roots to share: built inline.
  EXPECT_EQ(autod.audit().build_threads, 1u);
}

TEST(PathRegistryParallelTest, AutoThreadsFollowTheRootCount) {
  // 64 leaves are 64 root tasks: one thread per 16, up to the hardware.
  const net::LeafSpine ls = net::build_leaf_spine({.leaves = 64, .spines = 2});
  const net::RoutingTable routing{ls.topology};
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16, 16};
  const PathRegistry seq(ls.topology, routing, cfg, 1);
  const PathRegistry autod(ls.topology, routing, cfg, 0);
  EXPECT_TRUE(same_registry(seq, autod));
  const std::size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(autod.audit().build_threads, std::min<std::size_t>(4, hardware));
}

TEST(PathRegistryCacheTest, HitReturnsSameRegistryAsColdBuild) {
  auto& cache = PathRegistryCache::instance();
  cache.clear();
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable routing{ft.topology};
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16, 16};

  const auto first = cache.get_or_build(ft.topology, routing, cfg);
  const auto second = cache.get_or_build(ft.topology, routing, cfg);
  EXPECT_EQ(first.get(), second.get());  // hit: the very same object
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A cached registry must be indistinguishable from a direct cold build.
  const PathRegistry cold(ft.topology, routing, cfg, 1);
  EXPECT_TRUE(same_registry(cold, *first));
  cache.clear();
}

TEST(PathRegistryCacheTest, KeyDistinguishesConfigAndTopology) {
  auto& cache = PathRegistryCache::instance();
  cache.clear();
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable ft_routing{ft.topology};
  const net::LeafSpine ls = net::build_leaf_spine({.leaves = 6, .spines = 3});
  const net::RoutingTable ls_routing{ls.topology};

  const auto a = cache.get_or_build(ft.topology, ft_routing,
                                    {telemetry::HashKind::kCrc16, 16});
  const auto b = cache.get_or_build(ft.topology, ft_routing,
                                    {telemetry::HashKind::kCrc16, 12});
  const auto c = cache.get_or_build(ft.topology, ft_routing,
                                    {telemetry::HashKind::kCrc32, 16});
  const auto d = cache.get_or_build(ls.topology, ls_routing,
                                    {telemetry::HashKind::kCrc16, 16});
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.clear();
}

TEST(PathRegistryCacheTest, ConcurrentGetOrBuildBuildsOnce) {
  auto& cache = PathRegistryCache::instance();
  cache.clear();
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable routing{ft.topology};
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16, 16};

  std::vector<std::shared_ptr<const PathRegistry>> got(8);
  std::vector<std::thread> workers;
  workers.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    workers.emplace_back([&, i] {
      got[i] = cache.get_or_build(ft.topology, routing, cfg, /*threads=*/1);
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& r : got) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), got[0].get());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, got.size() - 1);
  cache.clear();
}

}  // namespace
}  // namespace mars::control

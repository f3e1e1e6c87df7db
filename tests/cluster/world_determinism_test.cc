/**
 * @file
 * The sharded world's central contract: a run's digest is a pure
 * function of the configuration -- never of the worker-thread count.
 * Exercises 2-shard and 4-shard worlds against the single-threaded
 * reference interleaving -- balanced and packed placements, short
 * run() steps, crashed and frozen hosts -- plus the executor pool's
 * claim order and lifetime and basic sanity of the digest itself.
 */

#include "cluster/world.hh"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace iat::cluster {
namespace {

ClusterConfig
makeConfig(unsigned shards, unsigned threads, std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.batch_tenants = 2;
    cfg.scheduler.policy = PlacePolicy::LoadAware;
    cfg.shard.containers = 1;
    cfg.shard.batch_slots = 2;
    cfg.shard.batch_ws_bytes = 1u << 20;
    cfg.shard.rate_pps = 4e5;
    cfg.shard.flows = 8;
    cfg.shard.ring_entries = 128;
    cfg.shard.remote_rate_pps = 2e5;
    cfg.shard.seed = seed;
    return cfg;
}

std::string
runDigest(const ClusterConfig &cfg, std::uint64_t epochs)
{
    ClusterWorld world(cfg);
    world.run(static_cast<double>(epochs) * cfg.epoch_seconds);
    EXPECT_EQ(world.epochs(), epochs);
    return world.digest();
}

TEST(WorldDeterminism, TwoShardsOneVsTwoThreads)
{
    for (const std::uint64_t seed : {1ull, 7ull}) {
        const auto ref = runDigest(makeConfig(2, 1, seed), 12);
        const auto par = runDigest(makeConfig(2, 2, seed), 12);
        EXPECT_EQ(par, ref) << "seed " << seed;
    }
}

TEST(WorldDeterminism, FourShardsVsSerialReference)
{
    const auto ref = runDigest(makeConfig(4, 1, 3), 8);
    const auto par = runDigest(makeConfig(4, 4, 3), 8);
    EXPECT_EQ(par, ref);
    // Oversubscribed (more workers than cores on most CI machines)
    // and unbalanced (3 workers, 4 shards) splits must also match.
    const auto odd = runDigest(makeConfig(4, 3, 3), 8);
    EXPECT_EQ(odd, ref);
}

TEST(WorldDeterminism, SameSeedReproduces)
{
    const auto a = runDigest(makeConfig(2, 1, 5), 6);
    const auto b = runDigest(makeConfig(2, 1, 5), 6);
    EXPECT_EQ(a, b);
}

TEST(WorldDeterminism, DigestSeesTheSeed)
{
    const auto a = runDigest(makeConfig(2, 1, 5), 6);
    const auto b = runDigest(makeConfig(2, 1, 6), 6);
    EXPECT_NE(a, b);
}

/** Run @p epochs epochs, move batch tenants 2 and 3 to shard 2,
 *  and run @p epochs more. */
std::string
runPackedDigest(const ClusterConfig &cfg, std::uint64_t epochs)
{
    ClusterWorld world(cfg);
    const double span = static_cast<double>(epochs) * cfg.epoch_seconds;
    world.run(span);
    // Static first-fit put tenants 0,1 on shard 0 and 2,3 on shard
    // 1; moving 2,3 to shard 2 packs every tenant on even shards.
    EXPECT_TRUE(world.requestMigration(2, 2));
    EXPECT_TRUE(world.requestMigration(3, 2));
    world.run(span);
    EXPECT_EQ(world.scheduler().shardOf(2), 2u);
    EXPECT_EQ(world.scheduler().shardOf(3), 2u);
    EXPECT_EQ(world.migrationArrivals(), 2u);
    return world.digest();
}

TEST(WorldDeterminism, PackedOnEvenShardsTwoThreads)
{
    // The split an i % T assignment balances worst: both loaded hosts
    // would share one executor at T = 2.
    ClusterConfig cfg = makeConfig(4, 1, 11);
    cfg.batch_tenants = 4;
    cfg.scheduler.policy = PlacePolicy::Static;
    cfg.shard.batch_ws_bytes = 8u << 20;
    cfg.migration_epochs = 1;
    const auto ref = runPackedDigest(cfg, 4);
    cfg.threads = 2;
    EXPECT_EQ(runPackedDigest(cfg, 4), ref);
}

TEST(WorldDeterminism, ManyShortRunsMatchOneRun)
{
    const ClusterConfig ref_cfg = makeConfig(4, 1, 2);
    const auto ref = runDigest(ref_cfg, 10);
    for (const unsigned threads : {1u, 2u, 3u}) {
        ClusterConfig cfg = makeConfig(4, threads, 2);
        ClusterWorld world(cfg);
        world.run(0.0);
        EXPECT_EQ(world.epochs(), 0u);
        for (int e = 0; e < 10; ++e) {
            world.run(cfg.epoch_seconds);
            world.run(0.0);
        }
        EXPECT_EQ(world.epochs(), 10u);
        EXPECT_EQ(world.digest(), ref) << "threads " << threads;
    }
}

TEST(WorldDeterminism, DestroysWithoutRunning)
{
    for (const unsigned threads : {2u, 4u}) {
        ClusterWorld world(makeConfig(4, threads, 1));
        EXPECT_EQ(world.workerThreads(), threads);
    }
}

TEST(WorldDeterminism, DestroysRightAfterRunning)
{
    for (const unsigned threads : {2u, 4u}) {
        ClusterWorld world(makeConfig(4, threads, 1));
        world.run(world.config().epoch_seconds);
        EXPECT_EQ(world.epochs(), 1u);
    }
}

TEST(WorldDeterminism, SkippedShardsMatchSerialReference)
{
    // Shard 1 is down for epochs 2-5 and shard 2 runs one epoch in
    // three from epoch 1, so some epochs leave shards unclaimed.
    auto faulted = [](unsigned threads) {
        ClusterConfig cfg = makeConfig(4, threads, 4);
        cfg.fault.crash_host = 1;
        cfg.fault.crash_epoch = 2;
        cfg.fault.crash_recovery = 4;
        cfg.fault.slow_host = 2;
        cfg.fault.slow_epoch = 1;
        cfg.fault.slow_duration = 9;
        cfg.fault.slow_factor = 3;
        return cfg;
    };
    const ClusterConfig ref_cfg = faulted(1);
    ClusterWorld ref(ref_cfg);
    ref.run(10 * ref_cfg.epoch_seconds);
    ASSERT_NE(ref.injector(), nullptr);
    EXPECT_GT(ref.injector()->hostEpochsSkipped(), 4u);
    for (const unsigned threads : {2u, 3u}) {
        const ClusterConfig cfg = faulted(threads);
        ClusterWorld world(cfg);
        // Stop inside the crash window: shard 1 ran no last epoch.
        world.run(4 * cfg.epoch_seconds);
        EXPECT_EQ(world.shardCosts()[1], 0.0);
        EXPECT_GT(world.shardCosts()[0], 0.0);
        world.run(6 * cfg.epoch_seconds);
        EXPECT_EQ(world.digest(), ref.digest()) << "threads " << threads;
    }
}

TEST(WorldDeterminism, HostTimesStayOutOfTheDigest)
{
    ClusterWorld world(makeConfig(2, 2, 1));
    world.run(4 * world.config().epoch_seconds);
    EXPECT_GT(world.parallelSeconds(), 0.0);
    EXPECT_GT(world.serialSeconds(), 0.0);
    ASSERT_EQ(world.shardCosts().size(), 2u);
    for (const double cost : world.shardCosts())
        EXPECT_GT(cost, 0.0);
    EXPECT_EQ(world.digest(), runDigest(makeConfig(2, 1, 1), 4));
}

TEST(ClaimOrder, LongestFirstTiesByShardId)
{
    const std::vector<char> all(5, 1);
    EXPECT_EQ(claimOrder({1.0, 3.0, 2.0, 3.0, 0.5}, all),
              (std::vector<unsigned>{1, 3, 2, 0, 4}));
    // No history yet (every cost 0): plain id order.
    EXPECT_EQ(claimOrder({0.0, 0.0, 0.0, 0.0, 0.0}, all),
              (std::vector<unsigned>{0, 1, 2, 3, 4}));
    EXPECT_EQ(claimOrder({2.0, 2.0, 2.0, 1.0, 2.0}, all),
              (std::vector<unsigned>{0, 1, 2, 4, 3}));
}

TEST(ClaimOrder, ListsOnlyShardsThatRun)
{
    EXPECT_EQ(claimOrder({1.0, 3.0, 2.0, 4.0}, {1, 0, 1, 0}),
              (std::vector<unsigned>{2, 0}));
    EXPECT_TRUE(claimOrder({1.0, 2.0}, {0, 0}).empty());
}

TEST(EpochPool, RunsEveryClaimOnceEachGeneration)
{
    for (const unsigned executors : {2u, 3u}) {
        EpochPool pool(executors);
        std::vector<int> calls(6, 0);
        const std::function<void(unsigned)> job = [&](unsigned id) {
            ++calls[id];
        };
        for (int gen = 0; gen < 50; ++gen)
            pool.run({5, 0, 3, 1, 4, 2}, job);
        pool.run({}, job);
        pool.run({2}, job);
        EXPECT_EQ(calls, (std::vector<int>{50, 50, 51, 50, 50, 50}));
    }
}

TEST(EpochPool, ForwardsTheFirstThrowAfterEveryCallReturns)
{
    EpochPool pool(3);
    std::vector<int> calls(4, 0);
    const std::function<void(unsigned)> job = [&](unsigned id) {
        ++calls[id];
        if (id == 1)
            throw std::runtime_error("shard 1");
    };
    EXPECT_THROW(pool.run({0, 1, 2, 3}, job), std::runtime_error);
    EXPECT_EQ(calls, (std::vector<int>{1, 1, 1, 1}));
    // The pool stays usable for the next generation.
    pool.run({0, 2, 3}, job);
    EXPECT_EQ(calls, (std::vector<int>{2, 1, 2, 2}));
}

TEST(WorldDeterminism, ThreadCountClampsToShards)
{
    ClusterConfig cfg = makeConfig(2, 16, 1);
    ClusterWorld world(cfg);
    EXPECT_LE(world.workerThreads(), 2u);
}

} // namespace
} // namespace iat::cluster

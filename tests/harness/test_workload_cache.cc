/** @file Workload-cache keying and sharing: equal (app, params)
 * share one compiled workload, differing params do not, and the
 * counters surface exactly what the sweep JSON reports. */

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/workload_cache.hh"
#include "testutil.hh"

using namespace mspdsm;

namespace
{

AppParams
params(std::uint64_t seed = 42)
{
    AppParams p;
    p.scale = 0.25;
    p.iterations = 2;
    p.seed = seed;
    return p;
}

struct CacheTest : ::testing::Test
{
    void SetUp() override { WorkloadCache::clear(); }
    void TearDown() override { WorkloadCache::clear(); }
};

} // namespace

TEST_F(CacheTest, EqualKeysShareOneInstance)
{
    const auto a = WorkloadCache::get("em3d", params());
    const auto b = WorkloadCache::get("em3d", params());
    EXPECT_EQ(a.get(), b.get()); // same object, not an equal copy
    const WorkloadCacheStats s = WorkloadCache::stats();
    EXPECT_EQ(s.generations, 1u);
    EXPECT_EQ(s.hits, 1u);
}

TEST_F(CacheTest, DifferingSeedGeneratesSeparately)
{
    const auto a = WorkloadCache::get("em3d", params(42));
    const auto b = WorkloadCache::get("em3d", params(43));
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(WorkloadCache::stats().generations, 2u);
    EXPECT_EQ(WorkloadCache::stats().hits, 0u);
}

TEST_F(CacheTest, DifferingAppOrScaleGeneratesSeparately)
{
    const auto a = WorkloadCache::get("em3d", params());
    const auto b = WorkloadCache::get("barnes", params());
    AppParams big = params();
    big.scale = 0.5;
    const auto c = WorkloadCache::get("em3d", big);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(WorkloadCache::stats().generations, 3u);
}

TEST_F(CacheTest, NonFiniteScaleIsRejected)
{
    // scale is keyed by bit pattern in an ordered map; a NaN would
    // break the strict weak ordering, so the cache must refuse it
    // before it reaches the key.
    AppParams p = params();
    p.scale = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(WorkloadCache::get("em3d", p), "scale");
    p.scale = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(WorkloadCache::get("em3d", p), "scale");
}

TEST_F(CacheTest, ConcurrentRequestsGenerateOnce)
{
    constexpr int n = 8;
    std::vector<std::shared_ptr<const CompiledWorkload>> got(n);
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([&got, i] {
            got[i] = WorkloadCache::get("ocean", params());
        });
    }
    for (auto &t : threads)
        t.join();
    for (int i = 1; i < n; ++i)
        EXPECT_EQ(got[0].get(), got[i].get());
    const WorkloadCacheStats s = WorkloadCache::stats();
    EXPECT_EQ(s.generations, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(n - 1));
}

TEST_F(CacheTest, ExperimentRunsShareTheCachedWorkload)
{
    // Two accuracy depths and a spec mode over one (app, params):
    // exactly one generation, and results identical to fresh runs.
    ExperimentConfig ec;
    ec.scale = 0.25;
    ec.iterations = 2;
    const RunResult r1 = runAccuracy("em3d", 1, ec);
    const RunResult r2 = runAccuracy("em3d", 2, ec);
    const RunResult r3 = runSpec("em3d", SpecMode::SwiFirstRead, ec);
    EXPECT_EQ(WorkloadCache::stats().generations, 1u);
    EXPECT_EQ(WorkloadCache::stats().hits, 2u);
    EXPECT_TRUE(r1.completed());
    EXPECT_TRUE(r2.completed());
    EXPECT_TRUE(r3.completed());
    // The golden-pinned values still hold through the cache (the
    // full set lives in tests/integration/test_golden.cc).
    EXPECT_EQ(r1.execTicks, test::goldenEm3dAccuracyTicks);
    EXPECT_EQ(r1.messages, 2208u);
    EXPECT_EQ(r3.messages, 1984u);
}

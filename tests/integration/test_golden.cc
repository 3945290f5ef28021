/** @file Golden-value determinism: fixed-seed runs must stay
 * bit-identical across data-structure and event-kernel rewrites.
 *
 * The constants below were captured from the original seed
 * implementation (std::function binary-heap event queue, node-based
 * std::unordered_map predictor tables) and verified unchanged after
 * the timing-wheel / flat-table rewrite. Any future change to event
 * ordering, tie-breaking, or predictor learning that perturbs these
 * numbers is a behavioral change, not a refactor, and must be
 * justified (and these constants re-captured) explicitly.
 *
 * The em3d execTicks pins live once in tests/testutil.hh and are the
 * seed kernel's values again, now that every message and directory
 * action is its own event, as in the seed.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "testutil.hh"

using namespace mspdsm;

namespace
{

ExperimentConfig
tiny()
{
    ExperimentConfig ec;
    ec.scale = 0.25;
    ec.iterations = 2;
    return ec;
}

} // namespace

TEST(Golden, Em3dAccuracyRunMatchesSeedKernel)
{
    const RunResult r = runAccuracy("em3d", 1, tiny());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, test::goldenEm3dAccuracyTicks);
    EXPECT_EQ(r.messages, 2208u);
    ASSERT_EQ(r.observers.size(), 3u);
    // Cosmos, MSP, VMSP at depth 1, in harness order.
    EXPECT_EQ(r.observers[0].stats.predicted.value(), 336u);
    EXPECT_EQ(r.observers[0].stats.correct.value(), 240u);
    EXPECT_EQ(r.observers[0].storage.pteTotal, 672u);
    EXPECT_EQ(r.observers[1].stats.predicted.value(), 240u);
    EXPECT_EQ(r.observers[1].stats.correct.value(), 240u);
    EXPECT_EQ(r.observers[1].storage.pteTotal, 336u);
    EXPECT_EQ(r.observers[2].stats.predicted.value(), 240u);
    EXPECT_EQ(r.observers[2].stats.correct.value(), 240u);
    EXPECT_EQ(r.observers[2].storage.pteTotal, 192u);
}

TEST(Golden, Em3dSpeculativeRunMatchesSeedKernel)
{
    const RunResult r = runSpec("em3d", SpecMode::SwiFirstRead, tiny());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, test::goldenEm3dSwiFrTicks);
    EXPECT_EQ(r.messages, 1984u);
    EXPECT_EQ(r.swiSent, 80u);
    EXPECT_EQ(r.specSentSwi, 192u);
    EXPECT_EQ(r.specServedSwi, 192u);
    EXPECT_EQ(r.specServedFr, 32u);
    EXPECT_EQ(r.storage.pteTotal, 192u);
}

TEST(Golden, BarnesDeepHistoryRunMatchesSeedKernel)
{
    // Depth-2 history with jittered ack reordering: exercises the
    // multi-slot HistoryKey path end to end.
    const RunResult r = runAccuracy("barnes", 2, tiny());
    EXPECT_EQ(r.status, RunStatus::Completed);
    EXPECT_EQ(r.execTicks, 446220u);
    EXPECT_EQ(r.messages, 1210u);
    ASSERT_EQ(r.observers.size(), 3u);
    EXPECT_EQ(r.observers[0].stats.predicted.value(), 53u);
    EXPECT_EQ(r.observers[0].stats.correct.value(), 46u);
    EXPECT_EQ(r.observers[0].storage.pteTotal, 452u);
    EXPECT_EQ(r.observers[1].stats.predicted.value(), 56u);
    EXPECT_EQ(r.observers[1].stats.correct.value(), 48u);
    EXPECT_EQ(r.observers[1].storage.pteTotal, 215u);
    EXPECT_EQ(r.observers[2].stats.predicted.value(), 0u);
    EXPECT_EQ(r.observers[2].stats.correct.value(), 0u);
    EXPECT_EQ(r.observers[2].storage.pteTotal, 50u);
}

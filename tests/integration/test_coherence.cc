/** @file Coherence invariants under randomized full-system load.
 *
 * These are the safety properties the protocol must uphold with and
 * without speculation: a single writer at a time, directory state
 * consistent with cache states, no stuck transactions.
 */

#include <gtest/gtest.h>

#include <set>

#include "testutil.hh"
#include "workload/suite.hh"

using namespace mspdsm;
using namespace mspdsm::test;

namespace
{

/**
 * Random mixed workload over a handful of blocks, designed to
 * maximize conflicts.
 */
std::vector<Trace>
randomTraffic(const ProtoConfig &proto, unsigned nodes,
              unsigned blocks, int ops_per_proc, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Trace> ts(nodes);
    for (unsigned q = 0; q < nodes; ++q) {
        for (int i = 0; i < ops_per_proc; ++i) {
            const Addr a = blockOn(
                proto,
                NodeId(rng.uniform(0, nodes - 1)),
                static_cast<unsigned>(rng.uniform(0, blocks - 1)));
            if (rng.chance(0.3))
                ts[q].push_back(TraceOp::write(a));
            else
                ts[q].push_back(TraceOp::read(a));
            if (rng.chance(0.5))
                ts[q].push_back(
                    TraceOp::compute(rng.uniform(1, 300)));
            if (rng.chance(0.05))
                for (unsigned all = 0; all < nodes; ++all)
                    ts[all].push_back(TraceOp::barrier());
        }
    }
    return ts;
}

/** All blocks the workload touches. */
std::set<BlockId>
touchedBlocks(const ProtoConfig &proto, const std::vector<Trace> &ts)
{
    std::set<BlockId> blocks;
    for (const Trace &t : ts)
        for (const TraceOp &op : t)
            if (op.kind == OpKind::Read || op.kind == OpKind::Write)
                blocks.insert(proto.blockOf(op.addr));
    return blocks;
}

/** Verify end-state invariants for every touched block. */
void
checkInvariants(DsmSystem &sys, const ProtoConfig &proto,
                const std::set<BlockId> &blocks)
{
    for (BlockId blk : blocks) {
        const NodeId home = proto.homeOf(blk);
        Directory &dir = sys.directory(home);
        const DirState ds = dir.blockState(blk);
        // 1. No transaction left hanging.
        EXPECT_TRUE(ds == DirState::Idle || ds == DirState::Shared ||
                    ds == DirState::Excl)
            << "block " << blk << " stuck in transient state";

        int modified = 0, shared = 0;
        for (NodeId q = 0; q < proto.numNodes; ++q) {
            const LineState ls = sys.cache(q).lineState(blk);
            modified += ls == LineState::Modified;
            shared += ls == LineState::Shared;
            // 2. Single-writer: a modified copy excludes all others.
            if (ls == LineState::Modified) {
                EXPECT_EQ(dir.ownerOf(blk), q);
                EXPECT_EQ(ds, DirState::Excl);
            }
            // 3. Every valid cache copy is known to the directory.
            if (ls == LineState::Shared) {
                EXPECT_TRUE(dir.sharersOf(blk).contains(q))
                    << "stale copy of " << blk << " at " << q;
            }
        }
        EXPECT_LE(modified, 1) << "two writers for block " << blk;
        if (modified == 1) {
            EXPECT_EQ(shared, 0)
                << "reader coexists with writer for " << blk;
        }
    }
}

} // namespace

class CoherenceFuzz
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(CoherenceFuzz, InvariantsHoldUnderRandomTraffic)
{
    const auto [mode_int, seed] = GetParam();
    DsmConfig cfg = smallConfig(8);
    cfg.proto.netJitter = 24; // stress re-ordering
    cfg.spec = static_cast<SpecMode>(mode_int);
    if (cfg.spec != SpecMode::None) {
        cfg.pred = PredKind::Vmsp;
        cfg.historyDepth = 1;
    }
    DsmSystem sys(cfg);
    const auto ts = randomTraffic(cfg.proto, 8, 6, 120, seed);
    sys.run(ts); // panics internally on protocol violations/deadlock
    checkInvariants(sys, cfg.proto, touchedBlocks(cfg.proto, ts));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, CoherenceFuzz,
    ::testing::Combine(::testing::Values(0, 1, 2), // None/FR/SWI+FR
                       ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                         98765ull)));

TEST(Coherence, HotBlockAllModes)
{
    // Everyone hammers one block with no compute padding at all.
    for (int mode = 0; mode < 3; ++mode) {
        DsmConfig cfg = smallConfig(8);
        cfg.proto.netJitter = 16;
        cfg.spec = static_cast<SpecMode>(mode);
        if (cfg.spec != SpecMode::None) {
            cfg.pred = PredKind::Vmsp;
            cfg.historyDepth = 1;
        }
        DsmSystem sys(cfg);
        const Addr a = blockOn(cfg.proto, 0);
        std::vector<Trace> ts(8);
        for (unsigned q = 0; q < 8; ++q)
            for (int i = 0; i < 40; ++i)
                ts[q].push_back(i % 4 == int(q % 4)
                                    ? TraceOp::write(a)
                                    : TraceOp::read(a));
        sys.run(ts);
        checkInvariants(sys, cfg.proto,
                        {cfg.proto.blockOf(a)});
    }
}

TEST(Coherence, FullAppSuiteRunsCleanBase)
{
    // Every generated application completes on the base system.
    for (const AppInfo &info : appSuite()) {
        AppParams p;
        p.scale = 0.25;
        p.iterations = 2;
        const Workload w = info.make(p);
        DsmConfig cfg;
        cfg.proto.netJitter = w.netJitter;
        DsmSystem sys(cfg);
        const RunResult r = sys.run(w);
        EXPECT_GT(r.execTicks, 0u) << info.name;
        EXPECT_GT(r.reads, 0u) << info.name;
    }
}

TEST(Coherence, FullAppSuiteRunsCleanSwi)
{
    for (const AppInfo &info : appSuite()) {
        AppParams p;
        p.scale = 0.25;
        p.iterations = 2;
        const Workload w = info.make(p);
        DsmConfig cfg;
        cfg.proto.netJitter = w.netJitter;
        cfg.pred = PredKind::Vmsp;
        cfg.historyDepth = 1;
        cfg.spec = SpecMode::SwiFirstRead;
        DsmSystem sys(cfg);
        const RunResult r = sys.run(w);
        EXPECT_GT(r.execTicks, 0u) << info.name;
    }
}

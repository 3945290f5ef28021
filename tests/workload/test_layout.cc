/** @file Tests for Layout / Region / PhaseSchedule / TraceBuilder. */

#include <gtest/gtest.h>

#include "workload/compiled_trace.hh"
#include "workload/layout.hh"

using namespace mspdsm;

TEST(Layout, AllocAtPlacesRegionOnRequestedHome)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    for (NodeId home : {NodeId(0), NodeId(5), NodeId(15), NodeId(3)}) {
        const Region r = layout.allocAt(home, 16);
        for (unsigned i = 0; i < r.blocks; ++i)
            EXPECT_EQ(cfg.homeOf(cfg.blockOf(r.addr(i))), home);
    }
}

TEST(Layout, RegionsNeverOverlap)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    const Region a = layout.allocAt(2, 8);
    const Region b = layout.allocAt(2, 8);
    EXPECT_GE(b.base, a.base + cfg.pageSize);
}

TEST(Layout, AddressesAreBlockAligned)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    const Region r = layout.allocAt(1, 4);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(r.addr(i) % cfg.blockSize, 0u);
        EXPECT_EQ(cfg.blockOf(r.addr(i)),
                  cfg.blockOf(r.addr(0)) + i);
    }
}

TEST(Layout, AllocSpreadsWithoutConstraint)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    const Region r = layout.alloc(cfg.blocksPerPage() * 3);
    EXPECT_EQ(r.blocks, cfg.blocksPerPage() * 3);
    // Spans three pages and therefore three homes.
    EXPECT_NE(cfg.homeOf(cfg.blockOf(r.addr(0))),
              cfg.homeOf(cfg.blockOf(
                  r.addr(cfg.blocksPerPage()))));
}

TEST(LayoutDeathTest, RefusesMultiPageHomedRegion)
{
    ProtoConfig cfg;
    Layout layout(cfg);
    EXPECT_DEATH(layout.allocAt(0, cfg.blocksPerPage() + 1), "spans");
}

TEST(TraceBuilder, PacksOpsWithTheLayoutGeometry)
{
    ProtoConfig cfg;
    const Layout layout(cfg);
    std::vector<TraceBuilder> tb = layout.builders(2);
    ASSERT_EQ(tb.size(), 2u);
    tb[1].compute(10).read(0x100).write(0x200).barrier();
    EXPECT_EQ(tb[0].size(), 0u);
    const PackedTrace t = tb[1].take();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0], CompiledOp::make(OpKind::Compute, 10));
    EXPECT_EQ(t[1], CompiledOp::make(OpKind::Read,
                                     cfg.blockOf(0x100)));
    EXPECT_EQ(t[2], CompiledOp::make(OpKind::Write,
                                     cfg.blockOf(0x200)));
    EXPECT_EQ(t[3], CompiledOp::make(OpKind::Barrier, 0));
}

TEST(TraceBuilder, ZeroComputeIsElidedAndDelaysFuse)
{
    TraceBuilder tb(AddrMap(ProtoConfig{}));
    tb.compute(0).read(0x40).compute(6).compute(0).compute(500);
    ASSERT_EQ(tb.size(), 2u);
    // The fused delay still counts as the two ops it was built from;
    // the zero delays count as nothing.
    EXPECT_EQ(tb.sourceOps(), 3u);
    EXPECT_EQ(tb.take()[1], CompiledOp::make(OpKind::Compute, 506));
}

TEST(Layout, FinishCollectsBuildersIntoAWorkload)
{
    ProtoConfig cfg;
    cfg.blockSize = 64;
    const Layout layout(cfg);
    std::vector<TraceBuilder> tb = layout.builders(3);
    tb[0].compute(4).compute(4).barrier();
    tb[2].write(0x80);
    const Workload w = layout.finish("toy", 12, tb);
    EXPECT_EQ(w.name, "toy");
    EXPECT_EQ(w.netJitter, 12u);
    EXPECT_EQ(w.blockSize, 64u);
    EXPECT_EQ(w.sourceOps, 4u);
    ASSERT_EQ(w.traces.size(), 3u);
    EXPECT_EQ(w.traces[0].size(), 2u);
    EXPECT_TRUE(w.traces[1].empty());
    EXPECT_EQ(w.traces[2][0], CompiledOp::make(OpKind::Write, 2));
}

namespace
{

/** Drain @p sched into a fresh builder and decode the result. */
Trace
emitted(PhaseSchedule &sched, const AddrMap &map)
{
    TraceBuilder tb(map);
    sched.emit(tb);
    const PackedTrace ops = tb.take();
    return decodeTrace(CompiledTrace{ops.data(), ops.size()},
                       map.blockSizeBytes());
}

} // namespace

TEST(PhaseSchedule, EmitsInTimeOrderWithGaps)
{
    const AddrMap map((ProtoConfig{}));
    PhaseSchedule sched(map);
    sched.at(100, TraceOp::read(0x40));
    sched.at(20, TraceOp::write(0x80));
    const Trace t = emitted(sched, map);
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].kind, OpKind::Compute);
    EXPECT_EQ(t[0].cycles, 20u);
    EXPECT_EQ(t[1].kind, OpKind::Write);
    EXPECT_EQ(t[2].kind, OpKind::Compute);
    EXPECT_EQ(t[2].cycles, 80u);
    EXPECT_EQ(t[3].kind, OpKind::Read);
}

TEST(PhaseSchedule, StableForEqualTimes)
{
    const AddrMap map((ProtoConfig{}));
    PhaseSchedule sched(map);
    sched.at(50, TraceOp::read(0x1 * 32));
    sched.at(50, TraceOp::read(0x2 * 32));
    sched.at(50, TraceOp::read(0x3 * 32));
    const Trace t = emitted(sched, map);
    ASSERT_EQ(t.size(), 4u); // compute + three reads
    EXPECT_EQ(t[1].addr, 0x1u * 32);
    EXPECT_EQ(t[2].addr, 0x2u * 32);
    EXPECT_EQ(t[3].addr, 0x3u * 32);
}

TEST(PhaseSchedule, EmitResetsForReuse)
{
    const AddrMap map((ProtoConfig{}));
    PhaseSchedule sched(map);
    sched.at(10, TraceOp::read(0x40));
    TraceBuilder tb(map);
    sched.emit(tb);
    sched.at(5, TraceOp::write(0x80));
    sched.emit(tb);
    const PackedTrace t = tb.take();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[3].kind(), OpKind::Write);
}

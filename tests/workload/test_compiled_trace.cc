/** @file Trace compilation: packed-op round trips across the whole
 * app suite, compute fusion, geometry checks, and the packed layout
 * itself. */

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/compiled_trace.hh"
#include "workload/suite.hh"

using namespace mspdsm;

namespace
{

AppParams
params(double scale, unsigned iters = 2)
{
    AppParams p;
    p.scale = scale;
    p.iterations = iters;
    return p;
}

} // namespace

TEST(CompiledOp, PackedLayoutRoundTripsFields)
{
    const CompiledOp c = CompiledOp::make(OpKind::Compute, 52000);
    EXPECT_EQ(c.kind(), OpKind::Compute);
    EXPECT_EQ(c.payload(), 52000u);

    const CompiledOp r = CompiledOp::make(OpKind::Read, 0x1234567);
    EXPECT_EQ(r.kind(), OpKind::Read);
    EXPECT_EQ(r.payload(), 0x1234567u);

    const CompiledOp b = CompiledOp::make(OpKind::Barrier, 0);
    EXPECT_EQ(b.kind(), OpKind::Barrier);

    // The payload field holds the largest block id / fused delay the
    // compiler accepts.
    const CompiledOp m =
        CompiledOp::make(OpKind::Write, CompiledOp::payloadMax);
    EXPECT_EQ(m.payload(), CompiledOp::payloadMax);
    EXPECT_EQ(m.kind(), OpKind::Write);
}

TEST(CompiledTrace, ComputeFusionMergesRuns)
{
    const AddrMap map((ProtoConfig{}));
    Trace t{TraceOp::compute(8),  TraceOp::compute(150),
            TraceOp::read(32),    TraceOp::compute(6),
            TraceOp::compute(0), // dropped: timing no-op
            TraceOp::compute(500), TraceOp::barrier()};
    std::vector<CompiledOp> out;
    const std::size_t n = compileTrace(t, map, out);
    ASSERT_EQ(n, 4u);
    EXPECT_EQ(out[0].kind(), OpKind::Compute);
    EXPECT_EQ(out[0].payload(), 158u);
    EXPECT_EQ(out[1].kind(), OpKind::Read);
    EXPECT_EQ(out[2].kind(), OpKind::Compute);
    EXPECT_EQ(out[2].payload(), 506u);
    EXPECT_EQ(out[3].kind(), OpKind::Barrier);
}

TEST(CompiledTrace, OversizedComputeDelaysPanicEvenWhenFused)
{
    // Regression: the fused branch used to sum payloads before the
    // range check, so a near-2^64 delay following a small one wrapped
    // the uint64 sum below payloadMax and compiled silently into a
    // tiny delay. Every compute operand must be validated first.
    const AddrMap map((ProtoConfig{}));
    const Tick huge = ~Tick{0} - 60; // wraps to 39 if summed with 100
    std::vector<CompiledOp> out;
    Trace first{TraceOp::compute(huge)};
    EXPECT_DEATH(compileTrace(first, map, out), "overflow");
    Trace fused{TraceOp::compute(100), TraceOp::compute(huge)};
    EXPECT_DEATH(compileTrace(fused, map, out), "overflow");
}

/**
 * The generators pack through the same builder compileTrace feeds,
 * so decoding a generated stream and compiling it again must give it
 * back op for op: decode loses nothing the packer keeps, and the
 * packer finds nothing left to fuse, drop or re-map.
 */
TEST(CompiledTrace, RoundTripAcrossAppSuiteAtTwoScales)
{
    for (const double scale : {0.5, 1.0}) {
        AppParams p;
        p.scale = scale;
        const AddrMap map(p.proto);
        for (const AppInfo &info : appSuite()) {
            const CompiledWorkload cw(makeApp(info.name, p), map);
            ASSERT_EQ(cw.numTraces(), p.numProcs) << info.name;
            for (std::size_t i = 0; i < cw.numTraces(); ++i) {
                const CompiledTrace packed = cw.trace(i);
                std::vector<CompiledOp> again;
                compileTrace(decodeTrace(packed, cw.blockSize()), map,
                             again);
                ASSERT_TRUE(std::equal(again.begin(), again.end(),
                                       packed.begin(), packed.end()))
                    << info.name << " proc " << i << " scale " << scale;
            }
        }
    }
}

TEST(CompiledTraceDeathTest, RejectsAWorkloadPackedForOtherBlocks)
{
    // Block ids are fixed when the generator packs them; laying the
    // stream out for another block size would silently name other
    // blocks, so it must be refused with both sizes named.
    const AppParams p = params(0.25);
    const Workload w = makeEm3d(p);
    ProtoConfig other = p.proto;
    other.blockSize = 64;
    EXPECT_EXIT({ const CompiledWorkload cw(w, AddrMap(other)); },
                ::testing::ExitedWithCode(1),
                "packed for 32-byte blocks, the run maps 64-byte");
}

TEST(CompiledTrace, ArenaIsPackedAndSpansPartitionIt)
{
    const AppParams p = params(0.25);
    const Workload w = makeEm3d(p);
    const CompiledWorkload cw(w, AddrMap(p.proto));
    // Compute fusion only ever shrinks the stream.
    EXPECT_LE(cw.totalOps(), cw.sourceOps());
    EXPECT_GT(cw.totalOps(), 0u);
    std::size_t sum = 0;
    for (std::size_t i = 0; i < cw.numTraces(); ++i) {
        const CompiledTrace t = cw.trace(i);
        // Spans tile the arena contiguously in processor order.
        if (i > 0) {
            EXPECT_EQ(t.begin(),
                      cw.trace(i - 1).end());
        }
        sum += t.size();
    }
    EXPECT_EQ(sum, cw.totalOps());
}

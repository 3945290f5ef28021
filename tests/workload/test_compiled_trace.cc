/** @file Trace compilation: packed-op round trips across the whole
 * app suite, compute fusion, and the packed layout itself. */

#include <gtest/gtest.h>

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
 * The satellite round-trip guarantee: decode(compile(t)) equals the
 * canonical form of t for every generator in the suite, and for the
 * repo's generators (block-aligned addresses, no zero delays) the
 * canonical form is operation-for-operation timing-identical to the
 * original: same op sequence with compute runs merged, identical
 * total compute cycles, identical memory/barrier ops.
 */
TEST(CompiledTrace, RoundTripAcrossAppSuiteAtTwoScales)
{
    for (const double scale : {0.25, 1.0}) {
        const AppParams p = params(scale);
        for (const AppInfo &info : appSuite()) {
            const Workload w = info.make([&] {
                AppParams q = p;
                q.iterations = info.defaultIters >= 2 ? 2 : 1;
                return q;
            }());
            const AddrMap map(p.proto);
            const CompiledWorkload cw(w, map);
            ASSERT_EQ(cw.numTraces(), w.traces.size()) << info.name;
            for (std::size_t i = 0; i < w.traces.size(); ++i) {
                const Trace decoded =
                    decodeTrace(cw.trace(i), cw.blockSize());
                const Trace canon = canonicalTrace(w.traces[i], map);
                ASSERT_EQ(decoded, canon)
                    << info.name << " proc " << i << " scale " << scale;

                // Timing equivalence of canonicalization itself:
                // cycles and op multiset are preserved.
                Tick cyc_orig = 0, cyc_canon = 0;
                std::size_t mem_orig = 0, mem_canon = 0;
                for (const TraceOp &op : w.traces[i]) {
                    cyc_orig += op.cycles;
                    mem_orig += op.kind == OpKind::Read ||
                                op.kind == OpKind::Write;
                }
                for (const TraceOp &op : canon) {
                    cyc_canon += op.cycles;
                    mem_canon += op.kind == OpKind::Read ||
                                 op.kind == OpKind::Write;
                }
                EXPECT_EQ(cyc_orig, cyc_canon) << info.name;
                EXPECT_EQ(mem_orig, mem_canon) << info.name;
            }
        }
    }
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

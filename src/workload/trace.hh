/**
 * @file
 * Per-processor memory operation traces.
 *
 * The simulator's processors are trace-driven, blocking and in-order:
 * each executes a sequence of compute delays, shared-memory reads and
 * writes, and global barriers. This is the standard methodology for
 * coherence studies (the paper's own WWT2 runs real binaries, but the
 * predictors only ever see the per-block coherence request stream that
 * such traces induce).
 *
 * Two formats exist. The generators write packed 8-byte CompiledOps
 * straight into a Workload (through TraceBuilder, layout.hh), so a
 * generated trace is never materialized in any other form. The
 * 24-byte TraceOp is the readable spelling for hand-written traces
 * and test expectations; compileTrace (compiled_trace.hh) packs it
 * through the same builder.
 */

#ifndef MSPDSM_WORKLOAD_TRACE_HH
#define MSPDSM_WORKLOAD_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace mspdsm
{

/** Kinds of trace operations. */
enum class OpKind : std::uint8_t
{
    Compute, //!< spin for `cycles` processor cycles
    Read,    //!< shared-memory read of `addr`
    Write,   //!< shared-memory write of `addr`
    Barrier, //!< global barrier across all processors
};

/** One trace operation, by byte address. */
struct TraceOp
{
    OpKind kind = OpKind::Compute;
    Addr addr = 0;   //!< byte address (Read/Write)
    Tick cycles = 0; //!< delay (Compute)

    bool operator==(const TraceOp &) const = default;

    static TraceOp
    compute(Tick c)
    {
        TraceOp op;
        op.kind = OpKind::Compute;
        op.cycles = c;
        return op;
    }

    static TraceOp
    read(Addr a)
    {
        TraceOp op;
        op.kind = OpKind::Read;
        op.addr = a;
        return op;
    }

    static TraceOp
    write(Addr a)
    {
        TraceOp op;
        op.kind = OpKind::Write;
        op.addr = a;
        return op;
    }

    static TraceOp
    barrier()
    {
        TraceOp op;
        op.kind = OpKind::Barrier;
        return op;
    }
};

/** A full hand-written per-processor trace. */
using Trace = std::vector<TraceOp>;

/**
 * One packed trace operation: 2 bits of kind, 62 bits of payload
 * (BlockId for memory ops, fused cycle count for Compute, 0 for
 * Barrier). The processors stream billions of these, so the layout
 * is a single word: one load, a mask, and a shift per decoded field.
 */
struct CompiledOp
{
    std::uint64_t bits = 0;

    static constexpr unsigned kindBits = 2;
    static constexpr unsigned payloadShift = kindBits;
    static constexpr std::uint64_t kindMask = (1u << kindBits) - 1;
    static constexpr std::uint64_t payloadMax =
        ~std::uint64_t{0} >> payloadShift;

    static CompiledOp
    make(OpKind k, std::uint64_t payload)
    {
        CompiledOp op;
        op.bits = static_cast<std::uint64_t>(k) | (payload << payloadShift);
        return op;
    }

    OpKind kind() const { return static_cast<OpKind>(bits & kindMask); }

    /** BlockId (Read/Write) or fused delay in cycles (Compute). */
    std::uint64_t payload() const { return bits >> payloadShift; }

    bool operator==(const CompiledOp &) const = default;
};

static_assert(sizeof(CompiledOp) == 8,
              "packed compiled op is streamed once per executed trace "
              "operation; keep it one word");

/** One processor's packed ops. */
using PackedTrace = std::vector<CompiledOp>;

/**
 * A complete generated workload: one packed trace per processor plus
 * identification used by the harness and reports. The block ids in
 * `traces` are only meaningful for `blockSize`.
 */
struct Workload
{
    std::string name;                //!< e.g. "em3d"
    std::vector<PackedTrace> traces; //!< one per processor
    unsigned blockSize = 0;          //!< geometry the ops were packed for
    std::size_t sourceOps = 0;       //!< ops emitted, before fusion
    Tick netJitter = 8;              //!< per-app queueing/contention level
};

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_TRACE_HH

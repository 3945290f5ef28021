/**
 * @file
 * The compiled workload: the packed op streams the processors execute.
 *
 * Generators pack as they go (TraceBuilder, layout.hh), so a
 * Workload already holds 8-byte CompiledOps:
 *
 *  - the BlockId is precomputed from the layout's AddrMap, so the
 *    per-access address-to-block mapping is absent from the hot
 *    loop (a memory op's payload IS its block);
 *  - consecutive Compute ops are fused into a single delay -- a pure
 *    timing transformation, since back-to-back delays touch no state
 *    the rest of the machine can observe between them.
 *
 * A CompiledWorkload lays those per-processor streams into one flat
 * arena that any number of runs can share. Hand-written TraceOp
 * traces reach the same format through compileTrace, which feeds the
 * generators' own builder; decodeTrace turns a packed span back into
 * TraceOps, and compileTrace(decodeTrace(s)) == s for every stream.
 */

#ifndef MSPDSM_WORKLOAD_COMPILED_TRACE_HH
#define MSPDSM_WORKLOAD_COMPILED_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "proto/config.hh"
#include "workload/trace.hh"

namespace mspdsm
{

/**
 * A per-processor view into the compiled arena: pointer + length,
 * nothing owned. Spans stay valid for the lifetime of the
 * CompiledWorkload they came from.
 */
struct CompiledTrace
{
    const CompiledOp *ops = nullptr;
    std::size_t count = 0;

    const CompiledOp *begin() const { return ops; }
    const CompiledOp *end() const { return ops + count; }
    std::size_t size() const { return count; }
    const CompiledOp &operator[](std::size_t i) const { return ops[i]; }
};

/**
 * A fully compiled workload: one flat arena of packed ops for all
 * processors plus per-processor spans. Immutable after compilation,
 * so one instance can be shared by any number of concurrent runs
 * (the harness workload cache relies on this).
 */
class CompiledWorkload
{
  public:
    /**
     * Lay out @p w for a run with address mapping @p map. Fatal if
     * @p w was packed for another block size: its block ids would
     * name the wrong blocks.
     */
    CompiledWorkload(const Workload &w, const AddrMap &map);

    /** Compile bare traces (no name/jitter; tests and direct runs). */
    CompiledWorkload(const std::vector<Trace> &traces,
                     const AddrMap &map);

    /** Workload name (e.g. "em3d"). */
    const std::string &name() const { return name_; }

    /** Per-app network queueing/contention level. */
    Tick netJitter() const { return netJitter_; }

    /** Number of per-processor traces. */
    std::size_t numTraces() const { return spans_.size(); }

    /** Processor @p i's compiled op span. */
    CompiledTrace
    trace(std::size_t i) const
    {
        const Span &s = spans_[i];
        return CompiledTrace{arena_.data() + s.offset, s.count};
    }

    /** Total packed ops across all processors. */
    std::size_t totalOps() const { return arena_.size(); }

    /** Ops the workload was packed from (compile ratio diagnostics). */
    std::size_t sourceOps() const { return sourceOps_; }

    /** Geometry the block ids were computed with. */
    unsigned blockSize() const { return blockSize_; }

  private:
    struct Span
    {
        std::uint64_t offset = 0;
        std::uint64_t count = 0;
    };

    std::string name_;
    Tick netJitter_ = 0;
    unsigned blockSize_ = 0;
    std::size_t sourceOps_ = 0;
    std::vector<CompiledOp> arena_;
    std::vector<Span> spans_;
};

/**
 * Pack one hand-written trace through TraceBuilder; appends to
 * @p out and returns the number of ops emitted.
 */
std::size_t compileTrace(const Trace &t, const AddrMap &map,
                         std::vector<CompiledOp> &out);

/**
 * Decode a compiled span back into TraceOps. Addresses come back
 * block-aligned (blk * blockSize); fused computes stay fused.
 */
Trace decodeTrace(const CompiledTrace &t, unsigned blockSize);

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_COMPILED_TRACE_HH

#include "workload/compiled_trace.hh"

#include "base/logging.hh"

namespace mspdsm
{

std::size_t
compileTrace(const Trace &t, const AddrMap &map,
             std::vector<CompiledOp> &out)
{
    const std::size_t start = out.size();
    out.reserve(start + t.size());

    for (const TraceOp &op : t) {
        switch (op.kind) {
          case OpKind::Compute: {
            if (op.cycles == 0)
                break; // timing no-op; drop it
            // Validate the operand before any fusion arithmetic:
            // with both addends capped at payloadMax (2^62-1) the
            // uint64 sum below cannot wrap, so the fused check is
            // exact.
            panic_if(op.cycles > CompiledOp::payloadMax,
                     "compute delay overflows the packed op");
            if (out.size() > start &&
                out.back().kind() == OpKind::Compute) {
                // Fuse into the previous delay: two back-to-back
                // delays are indistinguishable from their sum to
                // every other component (nothing observes the
                // processor between them).
                const std::uint64_t fused =
                    out.back().payload() + op.cycles;
                panic_if(fused > CompiledOp::payloadMax,
                         "fused compute delay overflows the packed op");
                out.back() = CompiledOp::make(OpKind::Compute, fused);
                break;
            }
            out.push_back(CompiledOp::make(OpKind::Compute, op.cycles));
            break;
          }
          case OpKind::Read:
          case OpKind::Write: {
            const BlockId blk = map.blockOf(op.addr);
            panic_if(blk > CompiledOp::payloadMax,
                     "block id overflows the packed op");
            out.push_back(CompiledOp::make(op.kind, blk));
            break;
          }
          case OpKind::Barrier:
            out.push_back(CompiledOp::make(OpKind::Barrier, 0));
            break;
        }
    }
    return out.size() - start;
}

CompiledWorkload::CompiledWorkload(const Workload &w, const AddrMap &map)
    : CompiledWorkload(w.traces, map)
{
    name_ = w.name;
    netJitter_ = w.netJitter;
}

CompiledWorkload::CompiledWorkload(const std::vector<Trace> &traces,
                                   const AddrMap &map)
    : blockSize_(map.blockSizeBytes())
{
    std::size_t total = 0;
    for (const Trace &t : traces)
        total += t.size();
    sourceOps_ = total;
    arena_.reserve(total);
    spans_.reserve(traces.size());
    for (const Trace &t : traces) {
        Span s;
        s.offset = arena_.size();
        s.count = compileTrace(t, map, arena_);
        spans_.push_back(s);
    }
}

Trace
decodeTrace(const CompiledTrace &t, unsigned blockSize)
{
    Trace out;
    out.reserve(t.size());
    for (const CompiledOp &op : t) {
        switch (op.kind()) {
          case OpKind::Compute:
            out.push_back(TraceOp::compute(op.payload()));
            break;
          case OpKind::Read:
            out.push_back(TraceOp::read(op.payload() * blockSize));
            break;
          case OpKind::Write:
            out.push_back(TraceOp::write(op.payload() * blockSize));
            break;
          case OpKind::Barrier:
            out.push_back(TraceOp::barrier());
            break;
        }
    }
    return out;
}

Trace
canonicalTrace(const Trace &t, const AddrMap &map)
{
    Trace out;
    out.reserve(t.size());
    const Addr blockSize = map.blockSizeBytes();
    for (const TraceOp &op : t) {
        switch (op.kind) {
          case OpKind::Compute:
            if (op.cycles == 0)
                break;
            if (!out.empty() && out.back().kind == OpKind::Compute) {
                out.back().cycles += op.cycles;
                break;
            }
            out.push_back(op);
            break;
          case OpKind::Read:
          case OpKind::Write: {
            TraceOp aligned = op;
            aligned.addr = map.blockOf(op.addr) * blockSize;
            out.push_back(aligned);
            break;
          }
          case OpKind::Barrier:
            out.push_back(op);
            break;
        }
    }
    return out;
}

} // namespace mspdsm

#include "workload/compiled_trace.hh"

#include "base/logging.hh"
#include "workload/layout.hh"

namespace mspdsm
{

namespace
{

/** @p t packed for @p map. */
TraceBuilder
pack(const Trace &t, const AddrMap &map)
{
    TraceBuilder b(map);
    b.reserve(t.size());
    for (const TraceOp &op : t)
        b.add(op);
    return b;
}

/** Bare traces as an anonymous workload packed for @p map. */
Workload
packTraces(const std::vector<Trace> &traces, const AddrMap &map)
{
    Workload w;
    w.netJitter = 0;
    w.blockSize = map.blockSizeBytes();
    for (const Trace &t : traces) {
        TraceBuilder b = pack(t, map);
        w.sourceOps += b.sourceOps();
        w.traces.push_back(b.take());
    }
    return w;
}

} // namespace

std::size_t
compileTrace(const Trace &t, const AddrMap &map,
             std::vector<CompiledOp> &out)
{
    const PackedTrace ops = pack(t, map).take();
    out.insert(out.end(), ops.begin(), ops.end());
    return ops.size();
}

CompiledWorkload::CompiledWorkload(const Workload &w, const AddrMap &map)
    : name_(w.name), netJitter_(w.netJitter), blockSize_(w.blockSize),
      sourceOps_(w.sourceOps)
{
    fatal_if(w.blockSize != map.blockSizeBytes(), "workload '", w.name,
             "' was packed for ", w.blockSize,
             "-byte blocks, the run maps ", map.blockSizeBytes(),
             "-byte blocks");
    std::size_t total = 0;
    for (const PackedTrace &t : w.traces)
        total += t.size();
    arena_.reserve(total);
    spans_.reserve(w.traces.size());
    for (const PackedTrace &t : w.traces) {
        spans_.push_back(Span{arena_.size(), t.size()});
        arena_.insert(arena_.end(), t.begin(), t.end());
    }
}

CompiledWorkload::CompiledWorkload(const std::vector<Trace> &traces,
                                   const AddrMap &map)
    : CompiledWorkload(packTraces(traces, map), map)
{}

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

} // namespace mspdsm

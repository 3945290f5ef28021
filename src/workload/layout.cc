#include "workload/layout.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mspdsm
{

Region
Layout::allocAt(NodeId home, unsigned nblocks)
{
    fatal_if(home >= cfg_.numNodes, "allocAt: bad home ", home);
    fatal_if(nblocks == 0, "allocAt: empty region");
    while (nextPage_ % cfg_.numNodes != home)
        ++nextPage_;

    Region r;
    r.base = nextPage_ * static_cast<Addr>(cfg_.pageSize);
    r.blocks = nblocks;
    r.blockSize = cfg_.blockSize;

    const unsigned bpp = cfg_.blocksPerPage();
    const std::uint64_t pages = (nblocks + bpp - 1) / bpp;
    // Multi-page regions keep a single home only if consecutive pages
    // land on the same node, which page interleaving forbids; jump by
    // the full node stride instead so every page has the same home.
    if (pages == 1) {
        ++nextPage_;
    } else {
        // Allocate page k at nextPage_ + k*numNodes; the region is
        // then not byte-contiguous, so refuse and ask callers to
        // split. All generators allocate <= one page per region.
        fatal_if(pages > 1, "region of ", nblocks,
                 " blocks spans pages; allocate per-page regions");
    }
    return r;
}

void
PhaseSchedule::emit(TraceBuilder &trace)
{
    panic_if(trace.map().blockSizeBytes() != map_.blockSizeBytes(),
             "phase schedule packed for ", map_.blockSizeBytes(),
             "-byte blocks, builder for ", trace.map().blockSizeBytes());
    // stable_sort keeps insertion order among equal offsets.
    std::stable_sort(items_.begin(), items_.end(),
                     [](const Item &a, const Item &b) {
                         return a.t < b.t;
                     });
    Tick now = 0;
    for (const Item &it : items_) {
        if (it.t > now) {
            trace.compute(it.t - now);
            now = it.t;
        }
        trace.append(it.op);
        if (it.op.kind() == OpKind::Compute)
            now += it.op.payload();
    }
    items_.clear();
}

Workload
Layout::finish(std::string name, Tick netJitter,
               std::vector<TraceBuilder> &tb) const
{
    Workload w;
    w.name = std::move(name);
    w.netJitter = netJitter;
    w.blockSize = map_.blockSizeBytes();
    w.traces.reserve(tb.size());
    for (TraceBuilder &b : tb) {
        panic_if(b.map().blockSizeBytes() != w.blockSize,
                 "trace builder packed for ", b.map().blockSizeBytes(),
                 "-byte blocks, layout uses ", w.blockSize);
        w.sourceOps += b.sourceOps();
        w.traces.push_back(b.take());
    }
    return w;
}

Region
Layout::alloc(unsigned nblocks)
{
    fatal_if(nblocks == 0, "alloc: empty region");
    Region r;
    r.base = nextPage_ * static_cast<Addr>(cfg_.pageSize);
    r.blocks = nblocks;
    r.blockSize = cfg_.blockSize;
    const unsigned bpp = cfg_.blocksPerPage();
    nextPage_ += (nblocks + bpp - 1) / bpp;
    return r;
}

} // namespace mspdsm

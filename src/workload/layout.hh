/**
 * @file
 * Shared-address-space layout and the generators' trace packer.
 *
 * Home assignment is page-interleaved (ProtoConfig::homeOf), so a
 * generator that wants a region homed at a particular node allocates
 * it on pages belonging to that node. Keeping one producer's output
 * blocks on its own pages matters for the SWI heuristic: the
 * early-write-invalidate table is per home node, so consecutive
 * writes by a producer only trigger SWI when they reach the same
 * home, exactly as in a hardware implementation.
 *
 * The Layout also hands out the TraceBuilders and PhaseSchedules a
 * generator writes through, carrying its block geometry: each op is
 * packed into an 8-byte CompiledOp as it is emitted (block id
 * precomputed, compute delays fused), so generation is the only pass
 * between a generator and the stream the processors execute.
 * TraceBuilder is the one home of the packing rules; compileTrace
 * feeds hand-written traces through it too.
 */

#ifndef MSPDSM_WORKLOAD_LAYOUT_HH
#define MSPDSM_WORKLOAD_LAYOUT_HH

#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "proto/config.hh"
#include "workload/trace.hh"

namespace mspdsm
{

/** A contiguous run of coherence blocks. */
struct Region
{
    Addr base = 0;          //!< byte address of the first block
    unsigned blocks = 0;    //!< number of blocks
    unsigned blockSize = 0; //!< bytes per block

    /** Byte address of block @p i within the region. */
    Addr
    addr(unsigned i) const
    {
        return base + static_cast<Addr>(i) * blockSize;
    }
};

/**
 * Pack one op for @p map, without fusion: a memory op's address
 * becomes its AddrMap::blockOf block id, and every payload is range
 * checked before it is shifted into place. A zero delay packs as is;
 * TraceBuilder::append drops it.
 */
inline CompiledOp
packOp(const TraceOp &op, const AddrMap &map)
{
    switch (op.kind) {
      case OpKind::Compute:
        // Validating the operand here keeps the fused sum in
        // TraceBuilder::append exact: with both addends capped at
        // payloadMax (2^62-1) the uint64 sum cannot wrap.
        panic_if(op.cycles > CompiledOp::payloadMax,
                 "compute delay overflows the packed op");
        return CompiledOp::make(OpKind::Compute, op.cycles);
      case OpKind::Read:
      case OpKind::Write: {
        const BlockId blk = map.blockOf(op.addr);
        panic_if(blk > CompiledOp::payloadMax,
                 "block id overflows the packed op");
        return CompiledOp::make(op.kind, blk);
      }
      case OpKind::Barrier:
        break;
    }
    return CompiledOp::make(OpKind::Barrier, 0);
}

/**
 * Builder of one processor's packed trace. Zero delays are dropped
 * and adjacent delays fused into one -- a pure timing transformation,
 * since nothing observes the processor between two back-to-back
 * delays.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(const AddrMap &map)
        : map_(map)
    {}

    TraceBuilder &compute(Tick c) { return add(TraceOp::compute(c)); }
    TraceBuilder &read(Addr a) { return add(TraceOp::read(a)); }
    TraceBuilder &write(Addr a) { return add(TraceOp::write(a)); }
    TraceBuilder &barrier() { return add(TraceOp::barrier()); }

    /** Pack and append one op. */
    TraceBuilder &add(const TraceOp &op) { return append(packOp(op, map_)); }

    /** Append an op already packed for this builder's geometry. */
    TraceBuilder &
    append(CompiledOp op)
    {
        if (op.kind() == OpKind::Compute) {
            if (op.payload() == 0)
                return *this; // timing no-op
            if (!ops_.empty() && ops_.back().kind() == OpKind::Compute) {
                const std::uint64_t fused =
                    ops_.back().payload() + op.payload();
                panic_if(fused > CompiledOp::payloadMax,
                         "fused compute delay overflows the packed op");
                ops_.back() = CompiledOp::make(OpKind::Compute, fused);
                ++sourceOps_;
                return *this;
            }
        }
        ops_.push_back(op);
        ++sourceOps_;
        return *this;
    }

    /** Reserve room for @p n packed operations. */
    void reserve(std::size_t n) { ops_.reserve(n); }

    /** Move the packed operations out. */
    PackedTrace take() { return std::move(ops_); }

    /** Packed operations so far. */
    std::size_t size() const { return ops_.size(); }

    /** Ops appended so far, counting each fused delay and no zero one. */
    std::size_t sourceOps() const { return sourceOps_; }

    /** The geometry this builder packs for. */
    const AddrMap &map() const { return map_; }

  private:
    AddrMap map_;
    PackedTrace ops_;
    std::size_t sourceOps_ = 0;
};

/**
 * Intended-time scheduler for one processor within one phase.
 *
 * Generators that need cross-processor orderings (staggered consumer
 * ranks, migratory hand-off sequences) register operations at
 * intended offsets from the phase start; emit() sorts them and
 * inserts compute gaps reproducing the offsets. Since memory
 * operations themselves take time, actual issue times slip late;
 * order-critical schedules must therefore space operations by more
 * than the worst-case operation latency (about 1.1k cycles for a
 * three-hop miss under contention).
 */
class PhaseSchedule
{
  public:
    explicit PhaseSchedule(const AddrMap &map)
        : map_(map)
    {}

    /** Register @p op at offset @p t from the phase start. */
    void
    at(Tick t, const TraceOp &op)
    {
        items_.push_back(Item{t, packOp(op, map_)});
    }

    /** Sort by offset (stable) and append to @p trace. */
    void emit(TraceBuilder &trace);

  private:
    struct Item
    {
        Tick t;
        CompiledOp op;
    };

    AddrMap map_;
    std::vector<Item> items_;
};

/**
 * Page-granular allocator over the simulated address space, and the
 * source of the builders that pack for its geometry.
 */
class Layout
{
  public:
    explicit Layout(const ProtoConfig &cfg)
        : cfg_(cfg), map_(cfg)
    {}

    /**
     * Allocate @p nblocks contiguous blocks starting on the next page
     * whose home is @p home. Pages are never shared between regions.
     */
    Region allocAt(NodeId home, unsigned nblocks);

    /** Allocate without a home constraint (spread over nodes). */
    Region alloc(unsigned nblocks);

    /** Pages consumed so far. */
    std::uint64_t pagesUsed() const { return nextPage_; }

    /** @p n empty trace builders, one per processor. */
    std::vector<TraceBuilder>
    builders(unsigned n) const
    {
        return std::vector<TraceBuilder>(n, TraceBuilder(map_));
    }

    /** @p n empty phase schedules, one per processor. */
    std::vector<PhaseSchedule>
    schedules(unsigned n) const
    {
        return std::vector<PhaseSchedule>(n, PhaseSchedule(map_));
    }

    /** Collect @p tb (one builder per processor) into a workload. */
    Workload finish(std::string name, Tick netJitter,
                    std::vector<TraceBuilder> &tb) const;

  private:
    const ProtoConfig &cfg_;
    AddrMap map_;
    std::uint64_t nextPage_ = 0;
};

} // namespace mspdsm

#endif // MSPDSM_WORKLOAD_LAYOUT_HH

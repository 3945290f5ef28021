/** @file Shared helpers for simulator-level tests. */

#ifndef MSPDSM_TESTS_TESTUTIL_HH
#define MSPDSM_TESTS_TESTUTIL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "dsm/system.hh"
#include "workload/layout.hh"

namespace mspdsm::test
{

/**
 * An intrusive event that runs a callable: the pooled-component event
 * pattern reduced to one object, for tests that need ad-hoc handlers.
 * Like any Event it may be rescheduled once it has fired.
 */
template <typename F>
struct CallEvent final : Event
{
    explicit CallEvent(F f) : fn(std::move(f)) {}

    void process() override { fn(); }

    F fn;
};

/**
 * Pinned execTicks of the two em3d golden runs at scale 0.25 and two
 * iterations: the depth-1 accuracy run and the SWI+FR speculative
 * run. tests/integration/test_golden.cc pins the rest of each run.
 */
inline constexpr Tick goldenEm3dAccuracyTicks = 124549;
inline constexpr Tick goldenEm3dSwiFrTicks = 119987;

/**
 * FNV-1a over a compiled workload's packed stream: each processor's
 * op count, then its ops' words.
 */
inline std::uint64_t
packedChecksum(const CompiledWorkload &cw)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (std::size_t t = 0; t < cw.numTraces(); ++t) {
        const CompiledTrace tr = cw.trace(t);
        mix(tr.size());
        for (const CompiledOp &op : tr)
            mix(op.bits);
    }
    return h;
}

/** One generator's pinned output: seed 42, 16 procs, default iters. */
struct PackedStreamPin
{
    const char *app;
    double scale;
    std::uint64_t checksum;  //!< packedChecksum of the stream
    std::size_t sourceOps;   //!< CompiledWorkload::sourceOps
    std::size_t packedOps;   //!< CompiledWorkload::totalOps
};

/**
 * Every app's packed stream at scale 1 and 0.5, captured from the
 * generators that still built TraceOp vectors and compiled them in a
 * second pass. Every full-scale record is a function of these
 * streams, so a generator or packer change that moves one moves
 * records.
 */
inline constexpr PackedStreamPin packedStreamPins[] = {
    {"appbt", 1.0, 0x60e49c949e03f4a5ull, 75664, 68368},
    {"barnes", 1.0, 0x252d2a02e03982a7ull, 19765, 19765},
    {"em3d", 1.0, 0x9eeba0bdf9197d05ull, 56016, 54416},
    {"moldyn", 1.0, 0xfff8bc7c30f17fa5ull, 44896, 43936},
    {"ocean", 1.0, 0x6a5de97c2be0a941ull, 35584, 34656},
    {"tomcatv", 1.0, 0x12100cc725dab725ull, 36624, 35680},
    {"unstructured", 1.0, 0x8e3832823e033072ull, 42811, 42651},
    {"appbt", 0.5, 0x653bbab7f3f3b325ull, 37648, 34576},
    {"barnes", 0.5, 0xfddf0622c933d6a1ull, 10168, 10168},
    {"em3d", 0.5, 0x8f3c93b532a2a325ull, 29136, 27536},
    {"moldyn", 0.5, 0xd0200708b1dedb25ull, 21376, 20416},
    {"ocean", 0.5, 0xe0879f409ca15561ull, 18656, 17728},
    {"tomcatv", 0.5, 0x9cf86a36381404e5ull, 18960, 18016},
    {"unstructured", 0.5, 0x979815b101253be3ull, 21757, 21597},
};

/** A default small config: 4 nodes unless overridden. */
inline DsmConfig
smallConfig(unsigned nodes = 4)
{
    DsmConfig cfg;
    cfg.proto.numNodes = nodes;
    cfg.proto.netJitter = 0;
    return cfg;
}

/** Empty traces for all processors. */
inline std::vector<Trace>
idleTraces(unsigned nodes)
{
    return std::vector<Trace>(nodes);
}

/**
 * Byte address of the i-th block on the first page homed at @p home
 * (given page-interleaved assignment).
 */
inline Addr
blockOn(const ProtoConfig &cfg, NodeId home, unsigned i = 0)
{
    return static_cast<Addr>(home) * cfg.pageSize +
           static_cast<Addr>(i) * cfg.blockSize;
}

/** Traces where only processor @p who runs @p t. */
inline std::vector<Trace>
soloTrace(unsigned nodes, NodeId who, Trace t)
{
    std::vector<Trace> ts(nodes);
    ts[who] = std::move(t);
    return ts;
}

} // namespace mspdsm::test

#endif // MSPDSM_TESTS_TESTUTIL_HH

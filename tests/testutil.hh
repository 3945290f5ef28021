/** @file Shared helpers for simulator-level tests. */

#ifndef MSPDSM_TESTS_TESTUTIL_HH
#define MSPDSM_TESTS_TESTUTIL_HH

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

/**
 * @file
 * Topology-parameterized interconnect with per-node network
 * interfaces.
 *
 * Contention is modelled at the network interfaces (the paper's
 * Section 6) and, on the link topologies, at the links themselves. We
 * model each node's NI as two serial resources (egress and ingress):
 * a message occupies the NI for niControl or niData cycles depending
 * on whether it carries a block. Flight time comes from the
 * ProtoConfig-selected Topology (src/topo/): the default crossbar
 * gives every pair a dedicated netLatency-cycle path -- exactly the
 * paper's constant-latency switched network -- while ring/mesh2d/
 * torus2d route each message over a deterministic sequence of links,
 * each a serial resource with per-hop wire latency, so flight time is
 * hop-composed and shared links queue. A bounded uniform jitter
 * representing residual switch/controller queueing tops off every
 * remote flight; jitter is what lets concurrently issued invalidation
 * acks arrive re-ordered.
 *
 * Local messages (src == dst, e.g. a processor accessing its own home
 * directory) bypass the NIs and the fabric and are delivered after a
 * single bus cycle.
 */

#ifndef MSPDSM_NET_NETWORK_HH
#define MSPDSM_NET_NETWORK_HH

#include <deque>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "proto/config.hh"
#include "proto/msg.hh"
#include "sim/eventq.hh"
#include "topo/topology.hh"

namespace mspdsm
{

class CacheCtrl;
class Directory;
class FaultManager;
class ObsManager;
struct LinkLossRule;

/**
 * The interconnect. Owns no protocol state; it only moves CohMsg
 * values between nodes with appropriate delays.
 *
 * Every message rides one pooled event in two stages (the paper's
 * Section 6 NI model): at its arrival tick it books the destination's
 * ingress NI -- so messages contend in arrival order -- and at its
 * delivery tick, one NI occupancy later, it is handed to the sink.
 * Local (src == dst) messages skip the NIs and deliver one bus cycle
 * after the send.
 *
 * Delivery is statically dispatched: a node attaches its concrete
 * cache controller and home directory, and the network routes each
 * delivered message by type (routesToDirectory()) with two direct
 * calls resolved at link time -- no std::function, no virtual call.
 * Tests and tools that are not a full node attach a raw function
 * pointer plus context instead.
 */
class Network
{
  public:
    /** Raw delivery hook (tests/tools): fn(ctx, msg) at delivery. */
    using RawDeliver = void (*)(void *ctx, const CohMsg &msg);

    /**
     * @param eq event queue driving the simulation
     * @param cfg machine configuration (latencies, node count)
     * @param rng dedicated random stream for jitter
     */
    Network(EventQueue &eq, const ProtoConfig &cfg, Rng rng);

    /**
     * Attach node @p n's protocol agents. Every node must be attached
     * (either overload) before the first send.
     */
    void attach(NodeId n, CacheCtrl &cache, Directory &dir);

    /** Attach a raw delivery hook for node @p n (tests/tools). */
    void attach(NodeId n, RawDeliver fn, void *ctx);

    /** Inject @p msg at its source NI at the current tick. */
    void send(CohMsg msg) { sendImpl(msg, 0); }

    /** Messages sent so far. */
    std::uint64_t messagesSent() const { return sent_.value(); }

    /** Total cycles messages spent queued behind busy NIs. */
    std::uint64_t queueingCycles() const { return queued_.value(); }

    /** Total cycles message heads spent queued behind busy links
     * (always 0 on the crossbar, which has no shared links). */
    std::uint64_t linkQueueingCycles() const { return linkQueued_.value(); }

    /** The routing geometry in force (tests, experiments). */
    const Topology &topology() const { return topo_; }

    /**
     * Attach the fault layer (null in fault-free runs, the default).
     * With it attached, every send is stamped with its source's
     * restart epoch and every delivery is screened: stale-epoch
     * messages are dropped, messages to a dead node are dropped or
     * (for requests) bounced back as a Nack.
     */
    void setFaults(FaultManager *f) { faults_ = f; }

    /**
     * Configure deterministic link loss plus the transport recovery
     * layer that makes it survivable (fault runs only; the rules come
     * from FaultPlan::linkLoss). Each rule drops every Nth message
     * head crossing one directed link inside a tick window; a dropped
     * transmission is re-injected at its source after @p delay cycles
     * and re-pays the full egress/link/ingress path. A message that
     * exceeds @p budget transmissions is fatal -- the schedule is a
     * test input, not weather, so exhaustion means the experiment is
     * misconfigured. Never call this on a fault-free run: the member
     * stays null and every send takes the unchecked path.
     */
    void setLinkLoss(const std::vector<LinkLossRule> &rules,
                     unsigned budget, Tick delay);

    /** Transmissions dropped by the loss schedule (0 when inert). */
    std::uint64_t linkDrops() const;

    /** Re-injections performed by the transport layer. */
    std::uint64_t retransmits() const;

    /**
     * Attach the observability layer (null in untraced runs, the
     * default). With it attached, every transmission that reaches its
     * destination's ingress reports its (send, arrival) pair, and
     * every delivery reports its tick -- the tracer pairs the two
     * into flow arrows. Dropped transmissions never report a
     * send, so the pairing survives lossy links.
     */
    void setObs(ObsManager *o) { obs_ = o; }

  private:
    /**
     * Per-node delivery sink: either a (cache, directory) pair routed
     * by message type, or a raw hook. Resolved once at attach time.
     */
    struct Sink
    {
        CacheCtrl *cache = nullptr;
        Directory *dir = nullptr;
        RawDeliver fn = nullptr;
        void *ctx = nullptr;

        bool attached() const { return cache || fn; }
    };

    /**
     * One in-flight message, pooled and reused so sends allocate
     * nothing in steady state. A remote message fires first at its
     * arrival tick, books the destination's ingress NI, and rides the
     * same event on to its delivery tick; a local one is scheduled
     * straight at its delivery tick with `arrived` already set.
     */
    struct MsgEvent final : public Event
    {
        explicit MsgEvent(Network *n) : net(n) {}

        void process() override { net->msgFired(*this); }

        Network *net;
        CohMsg msg;
        bool arrived = false; //!< past the ingress-arrival stage
    };

    /** Stage dispatch for a pooled MsgEvent. */
    void msgFired(MsgEvent &e);

    /** Hand @p msg to its destination sink at the current tick. */
    void deliver(const CohMsg &msg);

    /**
     * One scheduled re-injection of a dropped transmission. Pooled
     * (with a free list) like the local-delivery events: loss runs
     * reach a steady state where the pool stops growing.
     */
    struct RetransmitEvent final : public Event
    {
        void process() override;

        Network *net = nullptr;
        CohMsg msg{};
        unsigned attempt = 0; //!< transmissions already burned
        RetransmitEvent *nextFree = nullptr;
    };

    /**
     * The loss schedule and the transport state recovering from it.
     * Allocated only by setLinkLoss; the null pointer is the
     * fault-free inertness guarantee (one branch per hop, no
     * arithmetic change).
     */
    struct LossState
    {
        /** A LinkLossRule plus its live crossing counter. */
        struct Rule
        {
            Tick from;
            Tick to;
            std::uint32_t link;
            unsigned everyNth;
            std::uint64_t crossings = 0; //!< matched heads so far
        };

        std::vector<Rule> rules;
        unsigned budget = 8; //!< max transmissions per message
        Tick delay = 400;    //!< drop-to-reinjection latency
        std::deque<RetransmitEvent> pool;
        RetransmitEvent *freeList = nullptr;
        Counter drops;
        Counter resends;
    };

    /**
     * The shared send body. @p attempt counts transmissions already
     * burned on this message: 0 from send(), >= 1 from the retransmit
     * path. Every transmission re-pays egress and link occupancy and
     * counts toward messagesSent() -- retries are real traffic.
     */
    void sendImpl(CohMsg msg, unsigned attempt);

    /**
     * Does the loss schedule claim the head crossing @p link at
     * @p start? Walks every matching rule (advancing each crossing
     * counter) so overlapping rules stay deterministic regardless of
     * which one fires.
     */
    bool lossDropped(std::uint32_t link, Tick start);

    /**
     * Account a drop at @p when and schedule the re-injection, or die
     * if the budget is spent. The links reserved up to and including
     * the drop point stay booked -- the transmission occupied them.
     */
    void dropTransmission(const CohMsg &msg, unsigned attempt, Tick when);

    /** Re-inject a dropped message from its source NI. */
    void retransmitFired(RetransmitEvent &ev);

    EventQueue &eq_;
    const ProtoConfig &cfg_;
    Rng rng_;
    BoundedDraw jitter_; //!< [0, netJitter] draw, threshold hoisted
    Topology topo_;      //!< immutable per-pair routes
    std::vector<Sink> sinks_;
    std::vector<Tick> egressFree_; //!< next free tick per source NI
    std::vector<Tick> ingressFree_; //!< next free tick per dest NI
    std::vector<Tick> linkFree_; //!< next free tick per fabric link
    std::vector<Tick> pairLast_; //!< last arrival per (src,dst) pair
    EventPool<MsgEvent> pool_; //!< in-flight messages
    FaultManager *faults_ = nullptr; //!< fault layer; null = fault-free
    ObsManager *obs_ = nullptr; //!< observability; null = untraced
    std::unique_ptr<LossState> loss_; //!< null = lossless (the default)
    Counter sent_;
    Counter queued_;
    Counter linkQueued_;
};

} // namespace mspdsm

#endif // MSPDSM_NET_NETWORK_HH

/**
 * @file
 * Benchmark driver: one pass of a named workload, run through the
 * simulator's public API, reported as JSON lines on stdout.
 *
 * A pass is the workload's run list fanned out through SweepRunner
 * (a closed loop: a run starts when a worker is free), followed by
 * SweepRunner::writeJson. Each run prints a "start" line before it
 * begins and a "run" line with its host timings and every simulated
 * statistic when it ends, so a run that aborts the whole process is
 * still attributable: run.py counts it as failed and resumes the pass
 * in a fresh process with --skip.
 *
 * The driver times each layer from outside, around the calls into its
 * public functions: WorkloadCache::get, the DsmSystem constructor,
 * DsmSystem::run and SweepRunner::results/writeJson; --probe instead
 * times makeApp and the CompiledWorkload constructor. With --trace
 * those calls are also recorded as spans (name, id, parent, start,
 * end, thread), kept in memory and printed with the record of the
 * run or pass they belong to.
 *
 * Usage:
 *   perfbench_driver --info
 *   perfbench_driver --workload NAME --seed N [--jobs J]
 *       [--variant none|no-pred|no-fault|no-sampler] [--skip I,J,...]
 *       [--trace] [--probe] [--sweep-json FILE]
 */

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/system.hh"
#include "harness/sweep.hh"
#include "harness/workload_cache.hh"
#include "topo/topology.hh"
#include "workload/compiled_trace.hh"
#include "workload/suite.hh"

using namespace mspdsm;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point epoch = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

/** CPU time of the calling thread, seconds. */
double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

bool tracing = false;
std::atomic<std::uint64_t> lastSpanId{0};

struct Span
{
    const char *name;
    std::uint64_t id, parent; //!< parent 0 = root
    std::int64_t t0, t1;      //!< ns since driver start
    unsigned tid;
};

/**
 * RAII span around one layer call, appended to @p log when it ends;
 * free when tracing is off. Each log belongs to one thread.
 */
class Scope
{
  public:
    Scope(std::vector<Span> &log, const char *name, std::uint64_t parent,
          unsigned tid)
        : log_(log), name_(name), parent_(parent), tid_(tid)
    {
        if (tracing) {
            id_ = ++lastSpanId;
            t0_ = nowNs();
        }
    }

    ~Scope()
    {
        if (tracing)
            log_.push_back({name_, id_, parent_, t0_, nowNs(), tid_});
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    std::vector<Span> &log_;
    const char *name_;
    std::uint64_t parent_;
    unsigned tid_;
    std::uint64_t id_ = 0;
    std::int64_t t0_ = 0;
};

std::string
spansJson(const std::vector<Span> &spans)
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out += (i ? ", [\"" : "[\"") + std::string(s.name) + "\", " +
               std::to_string(s.id) + ", " + std::to_string(s.parent) +
               ", " + std::to_string(s.t0) + ", " +
               std::to_string(s.t1) + ", " + std::to_string(s.tid) + "]";
    }
    return out + "]";
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

std::mutex outMutex;

/** Print one line on stdout and flush it (a later abort keeps it). */
void
emit(const std::string &line)
{
    std::lock_guard<std::mutex> g(outMutex);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

/** Minimal ordered JSON object writer. */
class Obj
{
  public:
    Obj &
    raw(const char *k, const std::string &v)
    {
        s_ += (s_.size() > 1 ? ", \"" : "\"");
        s_ += k;
        s_ += "\": ";
        s_ += v;
        return *this;
    }

    Obj &
    str(const char *k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }

    Obj &
    num(const char *k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }

    Obj &
    num(const char *k, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(k, buf);
    }

    std::string done() { return s_ + "}"; }

  private:
    std::string s_ = "{";
};

std::string
histJson(const Histogram &h)
{
    std::string s = "[" + std::to_string(h.count()) + ", " +
                    std::to_string(h.sum()) + ", [";
    bool first = true;
    for (unsigned i = 0; i < Histogram::numBuckets; ++i) {
        if (!h.bucket(i))
            continue;
        s += (first ? "[" : ", [") + std::to_string(i) + ", " +
             std::to_string(h.bucket(i)) + "]";
        first = false;
    }
    return s + "]]";
}

std::string
predJson(const PredStats &p, const StorageReport &st)
{
    return Obj()
        .num("observed", p.observed.value())
        .num("predicted", p.predicted.value())
        .num("correct", p.correct.value())
        .num("blocks", st.blocksAllocated)
        .num("pte_total", st.pteTotal)
        .num("avg_pte", st.avgPte)
        .num("bytes_per_block", st.avgBytesPerBlock)
        .done();
}

/** Every simulated statistic of one run (no host timings). */
std::string
statsJson(const RunResult &r)
{
    std::string observers = "[";
    for (std::size_t i = 0; i < r.observers.size(); ++i) {
        const ObserverResult &o = r.observers[i];
        observers += (i ? ", " : "") +
                     Obj()
                         .str("name", o.name)
                         .num("depth", std::uint64_t{o.depth})
                         .raw("pred", predJson(o.stats, o.storage))
                         .done();
    }
    observers += "]";

    const FaultOutcome &f = r.fault;
    const std::string fault =
        Obj()
            .num("faulted", std::uint64_t{f.faulted})
            .num("kill_tick", f.killTick)
            .num("restart_tick", f.restartTick)
            .num("recovered_tick", f.recoveredTick)
            .num("ops_at_kill", f.opsAtKill)
            .num("ops_at_restart", f.opsAtRestart)
            .num("ops_at_end", f.opsAtEnd)
            .num("stale_dropped", f.staleDropped)
            .num("dead_dropped", f.deadDropped)
            .num("nacks_sent", f.nacksSent)
            .num("rehome_syncs", f.rehomeSyncs)
            .num("ckpt_snapshots", f.ckptSnapshots)
            .num("ckpt_messages", f.ckptMessages)
            .num("pred_losses", f.predLosses)
            .num("shard_deltas", f.shardDeltas)
            .num("shard_syncs", f.shardSyncs)
            .num("failbacks", f.failbacks)
            .num("misrouted_dropped", f.misroutedDropped)
            .num("link_drops", f.linkDrops)
            .num("retransmits", f.retransmits)
            .num("retries", f.retries)
            .num("nacks_seen", f.nacksSeen)
            .num("timeouts", f.timeouts)
            .num("stale_fills", f.staleFills)
            .num("dir_aborts", f.dirAborts)
            .done();

    std::string series = "[";
    for (std::size_t i = 0; i < r.series.size(); ++i) {
        const IntervalSample &s = r.series[i];
        series += (i ? ", [" : "[") + std::to_string(s.tick) + ", " +
                  std::to_string(s.ops) + ", " +
                  std::to_string(s.messages) + ", " +
                  std::to_string(s.eventsDispatched) + ", " +
                  std::to_string(s.predLookups) + ", " +
                  std::to_string(s.predHits) + ", " +
                  std::to_string(s.outstandingMisses) + ", " +
                  std::to_string(s.retransmitsInFlight) + "]";
    }
    series += "]";

    return Obj()
        .num("completed", std::uint64_t{r.completed()})
        .num("exec_ticks", r.execTicks)
        .num("avg_request_wait", r.avgRequestWait)
        .num("avg_mem_wait", r.avgMemWait)
        .num("reads", r.reads)
        .num("writes", r.writes)
        .raw("pred", predJson(r.pred, r.storage))
        .raw("observers", observers)
        .num("spec_sent_fr", r.specSentFr)
        .num("spec_sent_swi", r.specSentSwi)
        .num("spec_miss_fr", r.specMissFr)
        .num("spec_miss_swi", r.specMissSwi)
        .num("spec_served_fr", r.specServedFr)
        .num("spec_served_swi", r.specServedSwi)
        .num("spec_dropped", r.specDropped)
        .num("swi_sent", r.swiSent)
        .num("swi_premature", r.swiPremature)
        .num("swi_suppressed", r.swiSuppressed)
        .num("messages", r.messages)
        .num("events", r.eventsDispatched)
        .num("barriers", r.barrierEpisodes)
        .num("ni_queue_cycles", r.queueingCycles)
        .num("link_queue_cycles", r.linkQueueingCycles)
        .raw("fault", fault)
        .raw("miss_lat", histJson(r.missLat))
        .raw("swi_lat", histJson(r.swiLat))
        .raw("spec_use_dist", histJson(r.specUseDist))
        .raw("retry_depth", histJson(r.retryDepth))
        .num("miss_lat_p50", r.missLatP50)
        .num("miss_lat_p90", r.missLatP90)
        .num("miss_lat_p99", r.missLatP99)
        .num("series_interval", r.seriesInterval)
        .raw("series", series)
        .done();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

constexpr unsigned numProcs = 16;

/** Scale-1 inputs at the paper's Table 2 iteration count. */
AppParams
appParams(const std::string &app, std::uint64_t seed)
{
    AppParams p;
    p.numProcs = numProcs;
    p.scale = 1.0;
    p.seed = seed;
    p.proto.numNodes = numProcs;
    for (const AppInfo &info : appSuite())
        if (info.name == app)
            p.iterations = info.paperIters;
    return p;
}

DsmConfig
machine(std::uint64_t seed, TopoKind topo, Tick linkLatency)
{
    DsmConfig cfg;
    cfg.proto.numNodes = numProcs;
    cfg.proto.seed = seed;
    cfg.proto.topo.kind = topo;
    cfg.proto.topo.linkLatency = linkLatency;
    return cfg;
}

struct RunSpec
{
    std::string label;
    std::string app;
    DsmConfig cfg; //!< netJitter is filled from the workload
};

/**
 * mesh-faults' fault plan, shaped like fig11's: Base-DSM em3d on a
 * 16-node mesh/torus with 20-cycle links runs 4.4M-4.8M ticks fault
 * free, so node 3 dies about a quarter in and fails back before the
 * half.
 */
constexpr Tick killTick = 1100000;
constexpr Tick restartTick = 1800000;

FaultPlan
meshFaultPlan()
{
    FaultPlan plan;
    plan.events = {{killTick, 3, FaultKind::Kill},
                   {restartTick, 3, FaultKind::Restart}};
    plan.warmRestart = true;
    plan.ckptInterval = killTick / 4;
    plan.replicateShards = true;
    plan.linkLoss = {{0, maxTick, 0, 7},
                     {killTick / 2, restartTick + killTick, 5, 5}};
    return plan;
}

std::vector<RunSpec>
runList(const std::string &workload, std::uint64_t seed)
{
    std::vector<RunSpec> runs;
    if (workload == "suite-spec") {
        for (const AppInfo &info : appSuite()) {
            for (SpecMode m : {SpecMode::None, SpecMode::FirstRead,
                               SpecMode::SwiFirstRead}) {
                RunSpec r;
                r.label = info.name + " " + specModeName(m);
                r.app = info.name;
                r.cfg = machine(seed, TopoKind::Crossbar, 0);
                r.cfg.pred = PredKind::Vmsp;
                r.cfg.historyDepth = 1;
                r.cfg.spec = m;
                runs.push_back(std::move(r));
            }
        }
    } else if (workload == "predictor-deep") {
        for (const AppInfo &info : appSuite()) {
            for (std::size_t depth : {1, 2, 4}) {
                RunSpec r;
                r.label = info.name + " acc d=" + std::to_string(depth);
                r.app = info.name;
                r.cfg = machine(seed, TopoKind::Crossbar, 0);
                r.cfg.observers = {{PredKind::Cosmos, depth},
                                   {PredKind::Msp, depth},
                                   {PredKind::Vmsp, depth}};
                runs.push_back(std::move(r));
            }
        }
    } else if (workload == "mesh-faults") {
        for (TopoKind topo : {TopoKind::Mesh2D, TopoKind::Torus2D}) {
            for (SpecMode m : {SpecMode::None, SpecMode::SwiFirstRead}) {
                for (bool faulted : {false, true}) {
                    RunSpec r;
                    r.label = std::string("em3d @") +
                              topoKindName(topo) + " " +
                              specModeName(m) +
                              (faulted ? " faulted" : " fault-free");
                    r.app = "em3d";
                    r.cfg = machine(seed, topo, 20);
                    r.cfg.pred = PredKind::Vmsp;
                    r.cfg.historyDepth = 1;
                    r.cfg.spec = m;
                    if (faulted) {
                        r.cfg.faults = meshFaultPlan();
                        r.cfg.obs.sampleInterval = killTick / 8;
                    }
                    runs.push_back(std::move(r));
                }
            }
        }
    }
    return runs;
}

/**
 * The same configurations with one layer taken out through its
 * public configuration; only the runs the layer touches are kept,
 * under their original labels, so run.py can pair them.
 */
std::vector<RunSpec>
applyVariant(std::vector<RunSpec> runs, const std::string &variant)
{
    std::vector<RunSpec> out;
    for (RunSpec &r : runs) {
        if (variant == "no-pred") {
            if (r.cfg.spec != SpecMode::None)
                continue;
            r.cfg.pred = PredKind::None;
            r.cfg.observers.clear();
        } else if (variant == "no-fault") {
            if (r.cfg.faults.empty())
                continue;
            r.cfg.faults = FaultPlan{};
        } else if (variant == "no-sampler") {
            if (r.cfg.obs.sampleInterval == 0)
                continue;
            r.cfg.obs.sampleInterval = 0;
        }
        out.push_back(std::move(r));
    }
    return out;
}

/** Read/Write trace ops of a compiled workload. */
std::uint64_t
countRefs(const CompiledWorkload &cw)
{
    std::uint64_t n = 0;
    for (std::size_t t = 0; t < cw.numTraces(); ++t)
        for (const CompiledOp &op : cw.trace(t))
            n += op.kind() == OpKind::Read || op.kind() == OpKind::Write;
    return n;
}

/**
 * Split of workload set-up into generation and compilation, timed on
 * direct calls to makeApp and the CompiledWorkload constructor, once
 * per distinct app of the run list.
 */
void
probeSetup(const std::vector<RunSpec> &runs, std::uint64_t seed)
{
    std::set<std::string> apps;
    for (const RunSpec &r : runs)
        apps.insert(r.app);
    for (const std::string &app : apps) {
        const AppParams p = appParams(app, seed);
        std::vector<Span> spans;
        double genS = 0, compileS = 0;
        std::optional<CompiledWorkload> cw;
        {
            Scope root(spans, "bench.probe", 0, 0);
            const auto t0 = Clock::now();
            std::optional<Workload> w;
            {
                Scope s(spans, "workload.makeApp", root.id(), 0);
                w.emplace(makeApp(app, p));
            }
            const auto t1 = Clock::now();
            {
                Scope s(spans, "workload.compile", root.id(), 0);
                cw.emplace(*w, AddrMap(p.proto));
            }
            genS = std::chrono::duration<double>(t1 - t0).count();
            compileS = std::chrono::duration<double>(Clock::now() - t1)
                           .count();
        }
        emit(Obj()
                 .str("ev", "probe")
                 .str("app", app)
                 .num("gen_s", genS)
                 .num("compile_s", compileS)
                 .num("source_ops", std::uint64_t{cw->sourceOps()})
                 .num("packed_ops", std::uint64_t{cw->totalOps()})
                 .num("refs", countRefs(*cw))
                 .raw("spans", spansJson(spans))
                 .done());
    }
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --info"
                 " | --workload NAME --seed N [--jobs J] [--variant V]"
                 " [--skip I,J,...] [--trace] [--probe]"
                 " [--sweep-json FILE]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, variant = "none", sweepJson;
    std::uint64_t seed = 0;
    bool haveSeed = false, probe = false;
    unsigned jobs = 1;
    std::set<std::size_t> skip;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--info") {
            emit(Obj()
                     .str("build_type", PERFBENCH_BUILD_TYPE)
                     .str("flags", PERFBENCH_FLAGS)
                     .str("lto", PERFBENCH_LTO)
                     .str("compiler", std::string("gcc-compatible ") +
                                          __VERSION__)
                     .done());
            return 0;
        } else if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            seed = std::strtoull(value().c_str(), nullptr, 10);
            haveSeed = true;
        } else if (a == "--jobs") {
            jobs = static_cast<unsigned>(std::atoi(value().c_str()));
        } else if (a == "--variant") {
            variant = value();
        } else if (a == "--skip") {
            std::stringstream ss(value());
            std::string tok;
            while (std::getline(ss, tok, ','))
                if (!tok.empty())
                    skip.insert(std::strtoull(tok.c_str(), nullptr, 10));
        } else if (a == "--trace") {
            tracing = true;
        } else if (a == "--probe") {
            probe = true;
        } else if (a == "--sweep-json") {
            sweepJson = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveSeed)
        usage("--seed is required");
    if (variant != "none" && variant != "no-pred" &&
        variant != "no-fault" && variant != "no-sampler")
        usage(("unknown variant " + variant).c_str());
    const std::vector<RunSpec> runs =
        applyVariant(runList(workload, seed), variant);
    if (runs.empty() && variant == "none")
        usage(("unknown workload " + workload).c_str());
    if (probe) {
        probeSetup(runs, seed);
        return 0;
    }

    emit(Obj()
             .str("ev", "begin")
             .num("runs", std::uint64_t{runs.size()})
             .done());
    std::map<const CompiledWorkload *, std::uint64_t> refsMemo;
    std::mutex refsMutex;
    std::vector<Span> spans; // this thread's: pass, results, serialize
    Clock::time_point resultsT0;
    std::uint64_t resultsSpanId = 0;

    std::optional<Scope> passSpan(std::in_place, spans, "bench.pass", 0, 0);
    SweepRunner sweep(SweepOptions{jobs});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (skip.count(i))
            continue;
        sweep.add(
            runs[i].label,
            [&, i] {
                const RunSpec &spec = runs[i];
                static std::atomic<unsigned> nextTid{1};
                static thread_local const unsigned tid = nextTid++;
                emit(Obj()
                         .str("ev", "start")
                         .num("i", std::uint64_t{i})
                         .str("label", spec.label)
                         .done());
                std::vector<Span> jobSpans;
                std::shared_ptr<const CompiledWorkload> cw;
                RunResult r;
                double buildS = 0, runS = 0, runCpuS = 0;
                const auto j0 = Clock::now();
                {
                    Scope job(jobSpans, "harness.job", resultsSpanId, tid);
                    {
                        Scope s(jobSpans, "harness.cache_get", job.id(),
                                tid);
                        cw = WorkloadCache::get(spec.app,
                                                appParams(spec.app, seed));
                    }
                    DsmConfig cfg = spec.cfg;
                    cfg.proto.netJitter = cw->netJitter();
                    std::optional<DsmSystem> sys;
                    const auto t0 = Clock::now();
                    {
                        Scope s(jobSpans, "dsm.build", job.id(), tid);
                        sys.emplace(cfg);
                    }
                    const auto t1 = Clock::now();
                    const double c1 = threadCpuS();
                    {
                        Scope s(jobSpans, "dsm.run", job.id(), tid);
                        r = sys->run(*cw);
                    }
                    runCpuS = threadCpuS() - c1;
                    const auto t2 = Clock::now();
                    buildS = std::chrono::duration<double>(t1 - t0).count();
                    runS = std::chrono::duration<double>(t2 - t1).count();
                }
                const auto j1 = Clock::now();
                std::uint64_t refs = 0;
                {
                    std::lock_guard<std::mutex> g(refsMutex);
                    auto [it, fresh] = refsMemo.try_emplace(cw.get(), 0);
                    if (fresh)
                        it->second = countRefs(*cw);
                    refs = it->second;
                }
                const WorkloadCacheStats wc = WorkloadCache::stats();
                emit(Obj()
                         .str("ev", "run")
                         .num("i", std::uint64_t{i})
                         .str("label", spec.label)
                         .str("app", spec.app)
                         .num("build_s", buildS)
                         .num("run_s", runS)
                         .num("run_cpu_s", runCpuS)
                         .num("job_s",
                              std::chrono::duration<double>(j1 - j0).count())
                         .num("t_end_s", std::chrono::duration<double>(
                                             j1 - resultsT0)
                                             .count())
                         .num("refs", refs)
                         .num("gen_s_cum", wc.genSeconds)
                         .num("generations_cum", wc.generations)
                         .num("hits_cum", wc.hits)
                         .raw("spans", spansJson(jobSpans))
                         .raw("stats", statsJson(r))
                         .done());
                return r;
            },
            topoKindName(runs[i].cfg.proto.topo.kind));
    }

    double resultsS = 0;
    std::string sweepText;
    {
        Scope s(spans, "harness.results", passSpan->id(), 0);
        resultsSpanId = s.id();
        resultsT0 = Clock::now();
        sweep.results();
        resultsS = std::chrono::duration<double>(Clock::now() - resultsT0)
                       .count();
    }
    {
        Scope s(spans, "harness.serialize", passSpan->id(), 0);
        std::ostringstream os;
        sweep.writeJson(os, "perfbench");
        sweepText = os.str();
    }
    passSpan.reset();

    const WorkloadCacheStats wc = WorkloadCache::stats();
    emit(Obj()
             .str("ev", "pass")
             .num("results_s", resultsS)
             .num("gen_s", wc.genSeconds)
             .num("generations", wc.generations)
             .num("hits", wc.hits)
             .raw("spans", spansJson(spans))
             .done());
    if (!sweepJson.empty())
        std::ofstream(sweepJson) << sweepText;
    return 0;
}

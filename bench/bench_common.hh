/**
 * @file
 * Shared infrastructure for the experiment and perf binaries.
 *
 * Two layers live here:
 *  - parseArgs(): the one command line every bench binary accepts
 *    (--scale/--procs/--iters/--seed for the workload, --jobs/--json
 *    for the sweep engine, --smoke/-o for the micro harness), plus
 *    the legacy positional [scale] [iterations] form;
 *  - a small self-contained timing harness (no external benchmark
 *    library) used by the micro benches: each benchmark is a callable
 *    returning the number of items it processed; the harness repeats
 *    it until enough wall time has accumulated, and the results can be
 *    serialized as JSON (BENCH_core.json) so the perf trajectory of
 *    the simulator hot path is tracked from PR to PR.
 */

#ifndef MSPDSM_BENCH_BENCH_COMMON_HH
#define MSPDSM_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "base/logging.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "topo/topology.hh"

namespace mspdsm::bench
{

/** The uniform command line of every bench binary. */
struct BenchArgs
{
    ExperimentConfig ec;  //!< --scale / --iters / --procs / --seed
    unsigned jobs = 1;    //!< --jobs N (0 = hardware concurrency)
    std::string jsonPath; //!< --json FILE / -o FILE ("" = no JSON)
    bool smoke = false;   //!< --smoke: shorten micro benches for CI
};

/** Print the shared usage text for @p tool. */
inline void
printUsage(std::ostream &os, const char *tool, const char *what)
{
    os << "usage: " << tool << " [options] [scale] [iterations]\n"
       << "  " << what << "\n\n"
       << "options:\n"
       << "  --scale X    workload size multiplier (default 1.0)\n"
       << "  --iters N    iteration override (0 = app default)\n"
       << "  --procs N    simulated node count (default 16)\n"
       << "  --seed N     run-level seed (default 42)\n"
       << "  --topology T interconnect topology: " << topoKindNames()
       << "\n"
       << "               (default crossbar, the paper's "
          "constant-latency\n"
       << "               switched network)\n"
       << "  --link-latency N  per-hop wire latency on ring/mesh2d/\n"
       << "               torus2d links (0 = netLatency default)\n"
       << "  --tick-limit N  deadlock-guard tick budget per run;\n"
       << "               trips surface as TICK-LIMIT rows / JSON\n"
       << "               tick_limit fields, never a stderr warning\n"
       << "  --kill N@T   fail-stop node N at tick T (repeatable:\n"
       << "               several kills give concurrent and cascading\n"
       << "               failures; default: no fault injection, and\n"
       << "               the run is bit-identical to one without the\n"
       << "               fault layer)\n"
       << "  --restart N@T  restart node N at tick T (repeatable);\n"
       << "               the victim re-adopts its original shard\n"
       << "               (fail-back). Without one, survivors stall at\n"
       << "               the next barrier and the run reports partial\n"
       << "               results\n"
       << "  --backup-node N  adopter of the victim's directory\n"
       << "               shard (default (victim+1) mod procs)\n"
       << "  --warm-restart  merge the victim's replicated predictor\n"
       << "               checkpoint into the backup on the kill\n"
       << "  --ckpt-interval T  predictor checkpoint period, ticks\n"
       << "               (0 = no checkpointing)\n"
       << "  --replicate-shards  stream directory-shard deltas to the\n"
       << "               backup (batched ShardSync messages) so\n"
       << "               failover installs replicated state instead\n"
       << "               of sweeping the survivors' caches\n"
       << "  --retry-limit N  cache retry FSM bound before the fatal\n"
       << "               (default " << FaultPlan{}.retryLimit << ")\n"
       << "  --stale-timeout T  silence, in ticks, before a cache\n"
       << "               re-issues an outstanding miss (default "
       << FaultPlan{}.staleTimeout << ")\n"
       << "  --lossy-link L,FROM,TO,NTH  drop every NTH message head\n"
       << "               crossing link L in tick window [FROM,TO)\n"
       << "               (repeatable; link topologies only; TO = 0\n"
       << "               means forever). Dropped transmissions are\n"
       << "               retransmitted after a fixed delay from a\n"
       << "               bounded budget\n"
       << "  --trace FILE[,FROM,TO]  write a Chrome trace-event JSON\n"
       << "               of every run to FILE (load in Perfetto /\n"
       << "               chrome://tracing), optionally limited to\n"
       << "               the tick window [FROM,TO] (TO = 0 means\n"
       << "               open-ended). Forces --jobs 1\n"
       << "  --sample-interval N  record an interval time-series\n"
       << "               sample (throughput, messages, predictor\n"
       << "               hits, outstanding misses) every N ticks\n"
       << "               into the JSON record (0 = off)\n"
       << "  --verbose    enable verbose() diagnostics on stderr\n"
       << "  --jobs N     parallel runs; 0 = all hardware threads\n"
       << "               (default 1 = serial; results are\n"
       << "               bit-identical either way)\n"
       << "  --json FILE  write the mspdsm-sweep-v1 record to FILE\n"
       << "  -o FILE      alias of --json (BENCH_core.json schema\n"
       << "               for bench_core)\n"
       << "  --smoke      bench_core and fig11_recovery only: shorten\n"
       << "               for CI\n"
       << "  --help       this text\n";
}

/**
 * Strictly parse all of @p s as a T: digits only for an unsigned T
 * (no sign, no blanks, no trailing text, within T's range), a finite
 * non-negative number for a double.
 * @return false on malformed or out-of-range text
 */
template <typename T>
bool
parseNumber(std::string_view s, T &out)
{
    const char *end = s.data() + s.size();
    if (s.empty() || s.front() == '+' || s.front() == '-')
        return false;
    auto [p, ec] = std::from_chars(s.data(), end, out);
    if constexpr (std::is_floating_point_v<T>)
        return ec == std::errc{} && p == end && std::isfinite(out);
    else
        return ec == std::errc{} && p == end;
}

/**
 * Parse the uniform bench command line; exits on --help (0) and on a
 * malformed or unknown argument (2), naming the flag.
 */
inline BenchArgs
parseArgs(int argc, char **argv, const char *tool, const char *what)
{
    BenchArgs a;
    FaultPlan &faults = a.ec.faults;
    ObsConfig &obs = a.ec.obs;
    int positional = 0;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << tool << ": " << argv[i]
                      << " needs a value (try --help)\n";
            std::exit(2);
        }
        return argv[++i];
    };
    auto reject = [&](const char *flag, const char *shape,
                      std::string_view got) {
        std::cerr << tool << ": " << flag << " expects " << shape
                  << ", got '" << got << "'\n";
        std::exit(2);
    };
    auto flagNum = [&]<typename T>(T &out, const char *flag, int &i) {
        const char *s = value(i);
        if (!parseNumber(s, out))
            reject(flag,
                   std::is_floating_point_v<T> ? "a non-negative number"
                                               : "a non-negative integer",
                   s);
    };
    // A compound value such as --kill's N@T: @p tail (all or the end
    // of @p whole) splits at @p sep into exactly one number per out.
    auto compound = [&](const char *flag, const char *shape,
                        std::string_view whole, std::string_view tail,
                        char sep, auto &...outs) {
        std::size_t left = sizeof...(outs);
        bool ok = true;
        auto field = [&](auto &out) {
            const std::size_t at = --left ? tail.find(sep) : tail.size();
            ok = ok && at != std::string_view::npos &&
                 parseNumber(tail.substr(0, at), out);
            if (ok)
                tail.remove_prefix(std::min(at + 1, tail.size()));
        };
        (field(outs), ...);
        if (!ok)
            reject(flag, shape, whole);
    };
    auto fault = [&](const char *flag, FaultKind kind, int &i) {
        const char *s = value(i);
        FaultEvent fe{0, invalidNode, kind};
        compound(flag, "N@T", s, s, '@', fe.node, fe.tick);
        faults.events.push_back(fe);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            printUsage(std::cout, tool, what);
            std::exit(0);
        } else if (!std::strcmp(arg, "--scale")) {
            flagNum(a.ec.scale, arg, i);
        } else if (!std::strcmp(arg, "--iters") ||
                   !std::strcmp(arg, "--iterations")) {
            flagNum(a.ec.iterations, arg, i);
        } else if (!std::strcmp(arg, "--procs")) {
            flagNum(a.ec.numProcs, arg, i);
        } else if (!std::strcmp(arg, "--seed")) {
            flagNum(a.ec.seed, arg, i);
        } else if (!std::strcmp(arg, "--topology")) {
            const char *name = value(i);
            if (!mspdsm::parseTopoKind(name, a.ec.topo.kind)) {
                std::cerr << tool << ": unknown topology '" << name
                          << "' (expected one of " << topoKindNames()
                          << ")\n";
                std::exit(2);
            }
        } else if (!std::strcmp(arg, "--link-latency")) {
            flagNum(a.ec.topo.linkLatency, arg, i);
        } else if (!std::strcmp(arg, "--tick-limit")) {
            flagNum(a.ec.tickLimit, arg, i);
        } else if (!std::strcmp(arg, "--backup-node")) {
            flagNum(faults.backup, arg, i);
        } else if (!std::strcmp(arg, "--warm-restart")) {
            faults.warmRestart = true;
        } else if (!std::strcmp(arg, "--ckpt-interval")) {
            flagNum(faults.ckptInterval, arg, i);
        } else if (!std::strcmp(arg, "--kill")) {
            fault(arg, FaultKind::Kill, i);
        } else if (!std::strcmp(arg, "--restart")) {
            fault(arg, FaultKind::Restart, i);
        } else if (!std::strcmp(arg, "--replicate-shards")) {
            faults.replicateShards = true;
        } else if (!std::strcmp(arg, "--retry-limit")) {
            flagNum(faults.retryLimit, arg, i);
        } else if (!std::strcmp(arg, "--stale-timeout")) {
            flagNum(faults.staleTimeout, arg, i);
        } else if (!std::strcmp(arg, "--lossy-link")) {
            const char *s = value(i);
            LinkLossRule r;
            compound(arg, "L,FROM,TO,NTH", s, s, ',', r.link, r.from,
                     r.to, r.everyNth);
            if (r.to == 0) // 0 = open-ended window
                r.to = maxTick;
            faults.linkLoss.push_back(r);
        } else if (!std::strcmp(arg, "--trace")) {
            const std::string_view s = value(i);
            const std::size_t comma = s.find(',');
            obs.tracePath = s.substr(0, comma);
            if (comma != std::string_view::npos) {
                compound(arg, "FILE[,FROM,TO]", s, s.substr(comma + 1),
                         ',', obs.traceFrom, obs.traceTo);
                if (obs.traceTo == 0) // 0 = open-ended window
                    obs.traceTo = maxTick;
            }
            if (obs.tracePath.empty()) {
                std::cerr << tool
                          << ": --trace needs a file name\n";
                std::exit(2);
            }
        } else if (!std::strcmp(arg, "--sample-interval")) {
            flagNum(obs.sampleInterval, arg, i);
        } else if (!std::strcmp(arg, "--verbose") ||
                   !std::strcmp(arg, "-v")) {
            setLogVerbosity(1);
        } else if (!std::strcmp(arg, "--jobs") ||
                   !std::strcmp(arg, "-j")) {
            flagNum(a.jobs, arg, i);
        } else if (!std::strcmp(arg, "--json") ||
                   !std::strcmp(arg, "-o")) {
            a.jsonPath = value(i);
        } else if (!std::strcmp(arg, "--smoke")) {
            a.smoke = true;
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::cerr << tool << ": unknown option " << arg
                      << " (try --help)\n";
            std::exit(2);
        } else if (positional == 0) {
            if (!parseNumber(arg, a.ec.scale)) // legacy [scale]
                reject("[scale]", "a non-negative number", arg);
            ++positional;
        } else if (positional == 1) {
            if (!parseNumber(arg, a.ec.iterations)) // legacy [iterations]
                reject("[iterations]", "a non-negative integer", arg);
            ++positional;
        } else {
            std::cerr << tool << ": unexpected argument " << arg
                      << " (try --help)\n";
            std::exit(2);
        }
    }
    if (!obs.tracePath.empty() && a.jobs != 1) {
        // Every traced run in a sweep writes to the same file; the
        // last writer wins, which only makes sense serially.
        std::cerr << tool << ": --trace forces --jobs 1\n";
        a.jobs = 1;
    }
    return a;
}

/** Sweep-engine options implied by the command line. */
inline SweepOptions
sweepOptions(const BenchArgs &a)
{
    SweepOptions o;
    o.jobs = a.jobs;
    return o;
}

/**
 * Shared sweep epilogue: per-run summary table (the structured view
 * of tick-limit guard trips) and, when requested, the JSON record.
 * @return the binary's exit code
 */
inline int
finishSweep(SweepRunner &sweep, const BenchArgs &args, const char *tool)
{
    if (!sweep.results().empty()) {
        // Deliberately no wall time on stdout: repeated runs of one
        // bench command must be byte-identical (timings go to the
        // JSON record).
        std::printf("\nSweep summary (%u job%s):\n", sweep.jobs(),
                    sweep.jobs() == 1 ? "" : "s");
        sweep.printSummary(std::cout);
    }
    if (!args.jsonPath.empty()) {
        if (!sweep.writeJsonFile(args.jsonPath, tool)) {
            std::cerr << tool << ": cannot write " << args.jsonPath
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << args.jsonPath << "\n";
    }
    return 0;
}

/** Outcome of one timed microbenchmark. */
struct BenchResult
{
    std::string name;
    std::uint64_t items = 0;   //!< total items processed
    double seconds = 0.0;      //!< wall time spent processing them
    double itemsPerSec = 0.0;
};

/** Harness knobs. */
struct BenchOptions
{
    /** Minimum wall time per benchmark; smoke mode uses a fraction. */
    double minSeconds = 0.5;
};

/**
 * Run @p iter repeatedly until at least @p opts.minSeconds of wall
 * time has accumulated. @p iter returns the number of items (events,
 * lookups, messages...) processed by one invocation.
 */
inline BenchResult
runBench(const std::string &name, const BenchOptions &opts,
         const std::function<std::uint64_t()> &iter)
{
    using Clock = std::chrono::steady_clock;

    iter(); // warm-up: page in code and data

    BenchResult r;
    r.name = name;
    while (r.seconds < opts.minSeconds) {
        const auto t0 = Clock::now();
        const std::uint64_t items = iter();
        const auto t1 = Clock::now();
        r.items += items;
        r.seconds +=
            std::chrono::duration<double>(t1 - t0).count();
    }
    if (r.seconds > 0.0)
        r.itemsPerSec = static_cast<double>(r.items) / r.seconds;
    return r;
}

/** Peak resident set size of this process, in bytes (0 if unknown). */
inline std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
        return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
    }
#endif
    return 0;
}

/** Render results as an aligned human-readable listing. */
inline void
printResults(std::ostream &os, const std::vector<BenchResult> &rs)
{
    for (const BenchResult &r : rs) {
        os << r.name;
        for (std::size_t i = r.name.size(); i < 28; ++i)
            os << ' ';
        os << "  " << r.itemsPerSec << " items/s  (" << r.items
           << " items in " << r.seconds << " s)\n";
    }
}

/**
 * bench_core's epilogue: write results plus headline metrics to
 * @p path as the BENCH_core.json schema consumed by CI and the
 * ROADMAP perf log (announced on stdout).
 * @return the binary's exit code
 */
inline int
writeMicroJson(const std::string &path,
               const std::vector<BenchResult> &rs,
               const std::vector<std::pair<std::string, double>>
                   &headline)
{
    std::ofstream f(path);
    if (!f) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    f << "{\n  \"schema\": \"mspdsm-bench-core-v1\",\n";
    for (const auto &[key, value] : headline)
        f << "  \"" << key << "\": " << value << ",\n";
    f << "  \"peak_rss_bytes\": " << peakRssBytes() << ",\n";
    f << "  \"benches\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const BenchResult &r = rs[i];
        f << "    {\"name\": \"" << r.name << "\", \"items\": "
          << r.items << ", \"seconds\": " << r.seconds
          << ", \"items_per_sec\": " << r.itemsPerSec << "}"
          << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    std::cout << "wrote " << path << " (";
    for (std::size_t i = 0; i < headline.size(); ++i) {
        std::cout << (i ? ", " : "") << headline[i].first << " "
                  << headline[i].second;
    }
    std::cout << ")\n";
    return 0;
}

} // namespace mspdsm::bench

#endif // MSPDSM_BENCH_BENCH_COMMON_HH

/**
 * @file
 * The perf-tracking entry point: runs the sim and predictor micro
 * suites and writes BENCH_core.json (events/sec, lookups/sec,
 * events-per-message, peak RSS plus every individual result), so the
 * simulator hot path's
 * throughput trajectory is recorded from PR to PR and regressions are
 * visible in CI.
 *
 * Usage: bench_core [--smoke] [-o FILE]   (default FILE: BENCH_core.json)
 */

#include <fstream>
#include <iostream>

#include "micro_suites.hh"

int
main(int argc, char **argv)
{
    const mspdsm::bench::BenchArgs args = mspdsm::bench::parseArgs(
        argc, argv, "bench_core",
        "Perf-tracking micro suites; writes the BENCH_core.json "
        "schema");
    mspdsm::bench::BenchOptions opts;
    if (args.smoke)
        opts.minSeconds = 0.05;
    const std::string out =
        args.jsonPath.empty() ? "BENCH_core.json" : args.jsonPath;

    auto rs = mspdsm::bench::runSimSuite(opts);
    auto pr = mspdsm::bench::runPredictorSuite(opts);
    rs.insert(rs.end(), pr.begin(), pr.end());

    mspdsm::bench::printResults(std::cout, rs);

    const double events =
        mspdsm::bench::itemsPerSec(rs, "eventq/throughput");
    const double lookups =
        mspdsm::bench::itemsPerSec(rs, "pred/observe_mix");
    // A ratio, not a rate, so it is stable across machines: event
    // dispatches per message on dense em3d.
    const double evpm = mspdsm::bench::simEventsPerMessage();

    return mspdsm::bench::writeMicroJson(
        out, rs,
        {{"events_per_sec", events},
         {"lookups_per_sec", lookups},
         {"sim_events_per_message", evpm}});
}

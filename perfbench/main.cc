/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *     perfbench --workload <sweep_fleet|sweep_harsh|nn_eval|serve_open>
 *               --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
 *
 * Prints progress on stderr and one JSON result document as the last
 * line of stdout; exits nonzero when a correctness gate failed. The
 * untraced mode reports the end-to-end metrics, the traced mode the
 * per-layer metrics. perfbench/run.py builds this binary, adds host
 * provenance, and compares digests against perfbench/expected.json.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace perfbench
{

const std::vector<std::pair<std::string, std::string>> &
perLayerRows()
{
    static const std::vector<std::pair<std::string, std::string>> rows{
        // Units of work and what of each no named layer accounts for.
        {"sweep.wall_ms", "ms"},
        {"sweep.residual_ms", "ms"},
        {"setpoint.wall_ms", "ms"},
        {"setpoint.residual_ms", "ms"},
        {"request.wall_ms", "ms"},
        {"request.residual_ms", "ms"},
        // harness: sweep driver, fleet engine, watchdog.
        {"harness.sweep_ms", "ms"},
        {"harness.sweep_self_ms", "ms"},
        {"harness.map_collect_ms", "ms"},
        {"harness.watchdog_ms", "ms"},
        {"harness.fleet_parallel_eff", "ratio"},
        {"harness.crash_recoveries", "count"},
        {"harness.runs_retried", "count"},
        {"harness.checkpoint_resumes", "count"},
        {"harness.recovery_ms", "ms"},
        // pmbus / power: the instrumented board transport.
        {"pmbus.setpoint_us", "us"},
        {"pmbus.setpoint.busy_ms", "ms"},
        {"pmbus.setpoint.calls", "count"},
        {"pmbus.readback_us", "us"},
        {"pmbus.readback.calls", "count"},
        {"pmbus.link_retransmits", "count"},
        {"pmbus.pmbus_retries", "count"},
        {"power.measure_us", "us"},
        {"power.measure.busy_ms", "ms"},
        // vmodel / fpga: the fault model's device-wide count.
        {"vmodel.device_count_us", "us"},
        {"vmodel.device_count.busy_ms", "ms"},
        {"vmodel.device_count.calls", "count"},
        {"vmodel.device_count_memo_hit_ns", "ns"},
        // mem: the backend-generic sweep (HBM, MoRS-SRAM).
        {"mem.sweep_ms", "ms"},
        {"mem.domain_count_us", "us"},
        {"mem.jobs_per_s", "1/s"},
        // accel: weight image on BRAM.
        {"accel.program_ms", "ms"},
        {"accel.readback_ms", "ms"},
        {"accel.decode_ms", "ms"},
        {"accel.cache_hits", "count"},
        {"accel.weight_faults", "count"},
        // nn: batched forward.
        {"nn.forward_ms", "ms"},
        {"nn.pool_parallel_eff", "ratio"},
        // serve: admission, queueing, coalescing, futures.
        {"serve.admit_us_p50", "us"},
        {"serve.admit.busy_ms", "ms"},
        {"serve.direct_ms", "ms"},
        {"serve.overhead_ms_p50", "ms"},
        {"serve.characterize_ms_p50", "ms"},
        {"serve.characterize_ms_p90", "ms"},
        {"serve.characterize_overhead_ms_p50", "ms"},
        {"serve.coalesced_per_1k", "count"},
        {"serve.queue_depth_max", "count"},
        {"serve.retried", "count"},
        {"serve.rejected", "count"},
        {"serve.shed", "count"},
        {"serve.deadline_exceeded", "count"},
        {"serve.generator_late_ms_p99", "ms"},
        {"serve.backlog_growth", "count"},
        // Cost of tracing itself: traced vs untraced, same run.
        {"trace_overhead.throughput_pct", "%"},
        {"trace_overhead.latency_p50_pct", "%"},
        {"trace_overhead.latency_tail_pct", "%"},
    };
    return rows;
}

} // namespace perfbench

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end)
                usage("--seed takes an integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end || !(args.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--spans") {
            args.spansOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

/**
 * Each unit's residual (wall minus its named layers) must lie in
 * [0, wall]. A negative residual means the named layers overlap, count
 * a nested span twice, or (request) a direct call outlasts the request;
 * the workloads separately gate that their spans partition the unit.
 */
void
checkSplits(const std::map<std::string, double> &values, Report &report)
{
    for (const std::string unit : {"sweep", "setpoint", "request"}) {
        const double wall = values.at(unit + ".wall_ms");
        if (wall == 0.0)
            continue; // unit not run by this workload
        const double residual = values.at(unit + ".residual_ms");
        const bool ok = residual >= -1e-9 * wall && residual <= wall;
        report.gate("residual_within_wall." + unit, ok, 0,
                    "residual = " + jsonNumber(residual) + " ms, wall = " +
                        jsonNumber(wall) + " ms");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Report report(args.workload);
    if (args.workload == "sweep_fleet")
        runSweepFleet(args, report);
    else if (args.workload == "sweep_harsh")
        runSweepHarsh(args, report);
    else if (args.workload == "nn_eval")
        runNnEval(args, report);
    else if (args.workload == "serve_open")
        runServeOpen(args, report);
    else
        usage(("unknown workload " + args.workload).c_str());

    if (args.trace) {
        // Every per-layer row appears; a layer this workload never
        // entered reads 0.
        std::map<std::string, double> values;
        for (const auto &[name, unit] : perLayerRows())
            values[name] = 0.0;
        for (const auto &[name, value] : report.layers()) {
            if (!values.count(name)) {
                std::fprintf(stderr, "perfbench: unlisted layer row %s\n",
                             name.c_str());
                return 3;
            }
            values[name] = value;
        }
        checkSplits(values, report);
        for (const auto &[name, unit] : perLayerRows())
            report.metric(name, values[name], unit);
        if (!args.spansOut.empty())
            report.info("spans_file", jsonString(args.spansOut));
    }
#ifdef UVOLT_TELEMETRY_DISABLED
    const char *telemetry = "false";
#else
    const char *telemetry = "true";
#endif
    report.info("build",
                std::string("{\"compiler\":") + jsonString(PERFBENCH_COMPILER) +
                    ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
                    ",\"telemetry_compiled\":" + telemetry +
                    ",\"march_native\":" +
                    (PERFBENCH_MARCH_NATIVE ? "true" : "false") + "}");
    report.info("workers", std::to_string(hostWorkers()));
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.ok() ? 0 : 1;
}

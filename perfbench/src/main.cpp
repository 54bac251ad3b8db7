/**
 * @file
 * perfbench — the repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --cli <hammer_cli> --work-dir <dir> [--source <id>]
 *
 * Prints a host fingerprint, one "# name value unit" line per metric,
 * and as its last line one JSON object: {"correct", "attempted",
 * "failed", "metrics"}.  --trace 0 reports the end-to-end metrics,
 * --trace 1 the per-layer ones.  Exits 1 when a result differs from a
 * serial Pipeline::run or any request failed.
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "bench.hpp"

namespace {

using perfbench::Metrics;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics; every workload reports all of them. */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"cpu_ms_per_job", "ms"},
    {"peak_rss_mb", "MiB"},
    {"pst_gain_gmean", "ratio"},
};

/**
 * Per-layer metrics of the traced run, named after the src/ module
 * whose public calls they time.  A layer a workload does not reach
 * reports 0.
 */
const std::vector<MetricSpec> kPerLayer = {
    {"core.mitigate_ms_p50", "ms"},
    {"core.mitigate_s_sum", "s"},
    {"core.pair_ops", "count"},
    {"core.pair_ops_per_s", "1/s"},
    {"core.support_mean", "count"},
    {"core.self_share", "ratio"},
    {"noise.standup_ms_p50", "ms"},
    {"noise.sample_ms_p50", "ms"},
    {"noise.sample_s_sum", "s"},
    {"noise.shots_per_s", "1/s"},
    {"noise.trajectories_per_s", "1/s"},
    {"noise.replay_hit_rate", "ratio"},
    {"noise.replayed_fraction", "ratio"},
    {"noise.self_share", "ratio"},
    {"sim.bytes_computed_per_job", "B"},
    {"sim.gbps_computed", "GB/s"},
    {"sim.state_bytes_over_l2", "ratio"},
    {"api.encode_ms_p50", "ms"},
    {"api.encode_bytes_mean", "B"},
    {"api.encode_mb_per_s", "MB/s"},
    {"api.decode_ms_p50", "ms"},
    {"api.canonical_ms_p50", "ms"},
    {"api.parse_us_p50", "us"},
    {"api.submit_us_p50", "us"},
    {"api.queue_wait_ms_p50", "ms"},
    {"api.result_cache_hit_ratio", "ratio"},
    {"api.coalesced_ratio", "ratio"},
    {"api.execute_runs", "count"},
    {"api.busy_s", "s"},
    {"api.self_share", "ratio"},
    {"net.submit_us_p50", "us"},
    {"net.roundtrip_ms_p50", "ms"},
    {"net.wire_bytes_per_job", "B"},
    {"net.router_busy_s", "s"},
    {"net.shard_busy_s_max", "s"},
    {"net.self_share", "ratio"},
    {"net.dispatched", "count"},
    {"net.retries", "count"},
    {"circuits.build_ms_p50", "ms"},
    {"circuits.build_s_sum", "s"},
    {"circuits.self_share", "ratio"},
    {"metrics.score_ms_p50", "ms"},
    {"plan.estimate_us_p50", "us"},
    {"plan.predicted_over_measured", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.untraced_share", "ratio"},
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <sweep-mitigate|replay-heavy|"
                 "serve-repeat> --seed <n> --seconds <s> --trace <0|1> "
                 "--cli <hammer_cli> --work-dir <dir> [--source <id>]\n",
                 message);
    std::exit(2);
}

perfbench::Options
parseArgs(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                options.workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                options.seconds = std::stod(value);
            else if (arg == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (arg == "--cli")
                options.cli = value;
            else if (arg == "--work-dir")
                options.workDir = value;
            else if (arg == "--source")
                options.source = value;
            else
                usage(("unknown option " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (options.workload.empty() || options.cli.empty() ||
        options.workDir.empty() || !(options.seconds > 0.0))
        usage("--workload, --cli, --work-dir and --seconds > 0 are required");
    return options;
}

/**
 * One "# name value unit" line per metric of @p specs.  A metric the
 * workload did not set reads 0 and is marked "n/a".
 */
void
printMetrics(const Metrics &values, const std::vector<MetricSpec> &specs)
{
    for (const MetricSpec &spec : specs) {
        const auto it = values.find(spec.name);
        std::printf("# %-30s %.6g %s%s\n", spec.name,
                    it == values.end() ? 0.0 : it->second, spec.unit,
                    it == values.end() ? " (n/a)" : "");
    }
}

/** The result line: the run's verdict and every metric of @p specs. */
void
printResult(const perfbench::Report &report, const Metrics &values,
            const std::vector<MetricSpec> &specs)
{
    hammer::api::JsonWriter json;
    json.beginObject();
    json.key("correct").value(report.correct);
    json.key("attempted").value(report.attempted);
    json.key("failed").value(report.failed);
    json.key("metrics").beginObject();
    for (const MetricSpec &spec : specs) {
        const auto it = values.find(spec.name);
        json.key(spec.name).beginObject();
        json.key("value").value(it == values.end() ? 0.0 : it->second);
        json.key("unit").value(spec.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options options = parseArgs(argc, argv);
    std::printf("# %s\n", perfbench::hostFingerprint(options).c_str());

    perfbench::Report report;
    try {
        if (options.workload == "serve-repeat")
            perfbench::runServe(options, report);
        else
            perfbench::runLocal(options, report);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }

    // error_ratio rides in the result line as failed / attempted.
    const double errorRatio =
        report.attempted ? double(report.failed) / report.attempted : 0.0;
    std::printf("# %-30s %.6g ratio (%llu of %llu)\n", "error_ratio",
                errorRatio, static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    printMetrics(report.endToEnd, kEndToEnd);
    if (options.trace)
        printMetrics(report.perLayer, kPerLayer);
    printResult(report, options.trace ? report.perLayer : report.endToEnd,
                options.trace ? kPerLayer : kEndToEnd);
    return report.correct && report.failed == 0 ? 0 : 1;
}

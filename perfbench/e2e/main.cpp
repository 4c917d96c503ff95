/**
 * @file
 * perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload of the end-to-end benchmark and prints, as its last
 * line, one JSON object: correctness, operations attempted and failed,
 * every metric it measured ({"value", "unit"}) and the replay digests.
 * perfbench/run.py selects the metrics BENCHMARK.json names. Exits 1 on
 * a wrong product or digit, 2 on bad arguments.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "probes.hpp"
#include "report.hpp"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload "
                 "serve_cpu_mixed|serve_sim_repeat|pi_digits --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

/** JSON string body; metric names and messages are plain ASCII. */
std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return out + "\"";
}

void
emit(const perfbench::Result& r)
{
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"error\": " + quoted(r.error);
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const perfbench::Metric& m = r.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
                value + ", \"unit\": " + quoted(m.unit) + "}";
    }
    json += "}, \"digests\": {";
    for (std::size_t i = 0; i < r.digests.size(); ++i)
        json += (i ? ", " : "") + quoted(r.digests[i].first) + ": " +
                quoted(r.digests[i].second);
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return usage();
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(options.seconds > 0))
                return usage();
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage();
            options.trace = value == "1";
            have_trace = true;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !have_trace)
        return usage();

    // One pool executor: the benchmark gets a few cores of a shared
    // host, and pool workers beside the client thread would measure the
    // host's scheduler rather than the program.
    setenv("CAMP_THREADS", "1", 1);

    perfbench::Result result;
    try {
        if (options.workload == "serve_cpu_mixed" ||
            options.workload == "serve_sim_repeat")
            result = perfbench::run_serve(options);
        else if (options.workload == "pi_digits")
            result = perfbench::run_pi(options);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
        return 1;
    }
    result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    emit(result);
    return result.correct ? 0 : 1;
}

// perfbench_harness: runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// stdout ends with three lines: a human-readable table is followed by a
// detail line (schema ecfrm.perfbench.v1: environment plus every metric
// with its unit and sample count, including the ungated ones) and, last,
// the result line with the gated metrics
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}
// Exit code 0 when every operation succeeded with the right bytes, 1 when
// any failed (the result line is still printed), 2 on bad arguments or a
// store that could not be built (no result line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1>\n"
                 "workloads:",
                 why);
    for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0') return usage("--seed takes an integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 120.0) {
                return usage("--seconds takes a number in (0, 120]");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed) return usage("--workload and --seed are required");

    perfbench::Outcome outcome;
    try {
        outcome = perfbench::run_workload(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 2;
    }

    for (perfbench::Metric& m : outcome.metrics) {
        if (!std::isfinite(m.value)) {
            outcome.problems.push_back("metric " + m.name + " is not finite");
            outcome.correct = false;
            m.value = 0.0;
        }
    }
    for (const std::string& p : outcome.problems) std::fprintf(stderr, "FAIL: %s\n", p.c_str());

    std::printf("%-40s %16s %-9s %10s\n", "metric", "value", "unit", "samples");
    for (const perfbench::Metric& m : outcome.metrics) {
        std::printf("%-40s %16.4f %-9s %10lld\n", m.name.c_str(), m.value, m.unit.c_str(),
                    static_cast<long long>(m.samples));
    }

    std::string detail = "{\"schema\": \"ecfrm.perfbench.v1\", \"trace\": ";
    detail += options.trace ? "1" : "0";
    detail += ", \"env\": {";
    for (std::size_t i = 0; i < outcome.env.size(); ++i) {
        if (i > 0) detail += ", ";
        detail += json_string(outcome.env[i].first) + ": " + json_string(outcome.env[i].second);
    }
    detail += "}, \"metrics\": {";
    std::string metrics;
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const perfbench::Metric& m = outcome.metrics[i];
        const std::string sep = i > 0 ? ", " : "";
        detail += sep + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
                  ", \"unit\": " + json_string(m.unit) +
                  ", \"samples\": " + std::to_string(m.samples) + "}";
        if (!m.gated) continue;
        metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
                   ": {\"value\": " + json_number(m.value) + ", \"unit\": " +
                   json_string(m.unit) + "}";
    }
    detail += "}}";
    std::printf("%s\n", detail.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                outcome.correct ? "true" : "false", static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.failed), metrics.c_str());
    std::fflush(stdout);
    return outcome.correct ? 0 : 1;
}

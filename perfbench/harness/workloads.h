// The benchmark's workloads over the real StripeStore / EcPipeline path.
// See perfbench/README.md for why each exists and what each metric
// should move.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 0;  // observations behind the value (1 for a count)
    /// False for metrics printed only in the detail line, not the result.
    bool gated = true;
};

struct Outcome {
    bool correct = true;
    std::int64_t attempted = 0;  // reads + appends issued
    std::int64_t failed = 0;     // errors plus reads whose bytes were wrong
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> env;
    std::vector<std::string> problems;  // why `correct` is false
};

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

/// Run one workload. Untraced runs report the end-to-end metrics, traced
/// runs the per-layer ones. Throws std::runtime_error when the store
/// cannot be built at all.
Outcome run_workload(const Options& options);

}  // namespace perfbench

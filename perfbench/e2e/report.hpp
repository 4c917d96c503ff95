/**
 * @file
 * What one benchmark invocation reports: correctness, operation
 * counts, named metrics with units, and replay digests. main.cpp
 * renders it as the final JSON line that perfbench/run.py consumes.
 */
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    bool correct = true;
    std::string error; ///< first correctness failure, if any
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> digests;

    void set(const std::string& name, double value, const char* unit)
    {
        metrics.push_back({name, value, unit});
    }

    void fail(const std::string& what)
    {
        if (correct)
            error = what;
        correct = false;
    }
};

Result run_serve(const Options& options);
Result run_pi(const Options& options);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP

#include "exec/analytic_device.hpp"

#include "mpn/ophook.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace camp::exec {

using mpn::Natural;

AnalyticDevice::AnalyticDevice(const sim::SimConfig& config)
    : config_(sim::validated(config)),
      analytic_(config_),
      energy_(sim::cambricon_p_energy(config_))
{
    tuning_ = apply_device_env_tuning(
        "analytic", retuned_for_cap(config_.monolithic_cap_bits));
}

MulOutcome
AnalyticDevice::mul(const Natural& a, const Natural& b)
{
    // Device-internal arithmetic, not application kernel work.
    mpn::OpHookSuspend suspend;
    return MulOutcome{a * b, 0};
}

sim::BatchResult
AnalyticDevice::mul_batch(
    const std::vector<std::pair<Natural, Natural>>& pairs,
    unsigned parallelism)
{
    support::trace::Span span("exec.analytic.mul_batch", "exec");
    span.arg("count", static_cast<double>(pairs.size()));
    sim::BatchResult result;
    const std::size_t count = pairs.size();
    result.products.resize(count);
    result.per_product.resize(count);

    result.parallelism = support::fork_slices(
        count, parallelism, [this, &pairs, &result](std::size_t lo,
                                                    std::size_t hi) {
            mpn::OpHookSuspend suspend;
            for (std::size_t i = lo; i < hi; ++i) {
                const Natural& a = pairs[i].first;
                const Natural& b = pairs[i].second;
                // Zero product, zero accounting (BatchEngine rule).
                if (a.is_zero() || b.is_zero())
                    continue;
                CAMP_ASSERT(a.bits() <= config_.monolithic_cap_bits &&
                            b.bits() <= config_.monolithic_cap_bits);
                result.products[i] = a * b;
                const sim::CoreStats per =
                    analytic_.multiply_stats(a.bits(), b.bits());
                result.per_product[i].tasks = per.tasks;
                result.per_product[i].bytes = per.bytes;
            }
        });

    for (const sim::BatchProductStats& stats : result.per_product) {
        result.tasks += stats.tasks;
        result.bytes += stats.bytes;
    }
    // Same wave pooling as sim::BatchEngine: independent products pack
    // the whole fabric, memory time is pooled traffic at the
    // duty-limited LLC bandwidth (no injected stalls: the model is
    // fault-free by construction).
    result.waves = (result.tasks + config_.total_ipus() - 1) /
                   config_.total_ipus();
    const std::uint64_t compute = result.waves * config_.limb_bits;
    const double bpc = config_.llc_bytes_per_cycle();
    const std::uint64_t memory_cycles = static_cast<std::uint64_t>(
        static_cast<double>(result.bytes) / bpc + 0.999999);
    result.cycles = std::max<std::uint64_t>(compute, memory_cycles);
    return result;
}

CostEstimate
AnalyticDevice::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    const sim::CoreStats stats =
        analytic_.multiply_stats(bits_a, bits_b);
    CostEstimate estimate;
    estimate.cycles = static_cast<double>(stats.cycles);
    estimate.seconds = stats.seconds(config_);
    estimate.energy_j = energy_.energy(stats, config_);
    return estimate;
}

} // namespace camp::exec

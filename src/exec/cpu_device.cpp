#include "exec/cpu_device.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec/wave.hpp"
#include "mpn/kernels/soa.hpp"
#include "mpn/ophook.hpp"
#include "sim/comparators.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace camp::exec {

using mpn::Natural;

CpuDevice::CpuDevice(const sim::SimConfig&)
{
    tuning_ =
        apply_device_env_tuning("cpu", mpn::mul_tuning());
}

MulOutcome
CpuDevice::mul(const Natural& a, const Natural& b)
{
    return MulOutcome{a * b, 0};
}

sim::BatchResult
CpuDevice::mul_batch(
    const std::vector<std::pair<Natural, Natural>>& pairs,
    unsigned parallelism)
{
    support::trace::Span span("exec.cpu.mul_batch", "exec");
    span.arg("count", static_cast<double>(pairs.size()));
    sim::BatchResult result;
    const std::size_t count = pairs.size();
    result.products.resize(count);
    result.per_product.resize(count);
    result.tasks = count;
    // Contiguous slices through the SoA batch driver: same-shape
    // products inside a slice run the vertical vectorized basecase,
    // and chunking keeps task and allocation overhead amortized in the
    // small-width regime.
    result.parallelism = support::fork_slices(
        count, parallelism, [&pairs, &result](std::size_t lo,
                                              std::size_t hi) {
            // Pool-side arithmetic must not be announced to op hooks
            // (ledger/profiler assume one logical app thread).
            mpn::OpHookSuspend suspend;
            mpn::kernels::soa_mul_batch(pairs.data() + lo, hi - lo,
                                        result.products.data() + lo);
        });
    // Host products carry no simulated accounting: cycles stay zero
    // (the Fig. 13 methodology measures host time with the profiler).
    return result;
}

sim::BatchResult
CpuDevice::mul_batch_wave(WaveBuffer& wave,
                          const std::vector<std::size_t>& items,
                          const std::vector<std::uint64_t>& indices,
                          unsigned parallelism)
{
    support::trace::Span span("exec.cpu.mul_batch_wave", "exec");
    span.arg("count", static_cast<double>(items.size()));
    CAMP_ASSERT(indices.size() == items.size());
    sim::BatchResult result;
    const std::size_t count = items.size();
    result.per_product.resize(count);
    result.tasks = count;
    // Same slices as mul_batch, but each feeds the raw SoA driver
    // wave-owned operand views and result slots: steady state, a whole
    // wave multiplies without one product-buffer allocation (this is
    // what bench/perf_smoke's alloc_per_wave row gates on).
    result.parallelism = support::fork_slices(
        count, parallelism, [&wave, &items](std::size_t lo,
                                            std::size_t hi) {
            mpn::OpHookSuspend suspend;
            std::vector<mpn::kernels::SoaItem> raw(hi - lo);
            for (std::size_t k = lo; k < hi; ++k) {
                const mpn::LimbView a = wave.operand_a(items[k]);
                const mpn::LimbView b = wave.operand_b(items[k]);
                raw[k - lo] = {a.ptr, a.len, b.ptr, b.len,
                               wave.result_ptr(items[k]), 0};
            }
            mpn::kernels::soa_mul_batch_raw(raw.data(), raw.size());
            for (std::size_t k = lo; k < hi; ++k)
                wave.set_result_size(items[k], raw[k - lo].rn);
        });
    return result;
}

CostEstimate
CpuDevice::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    // Calibration constant: ~2 ns per Karatsuba-exponent limb op puts
    // a 1-Mbit balanced product near 10 ms, the right order for the
    // mpn kernels on a contemporary core.
    constexpr double kSecondsPerLimbOp = 2e-9;
    const double la =
        std::max<double>(1.0, static_cast<double>(bits_a) / 64.0);
    const double lb =
        std::max<double>(1.0, static_cast<double>(bits_b) / 64.0);
    CostEstimate estimate;
    estimate.seconds =
        kSecondsPerLimbOp * std::pow(std::sqrt(la * lb), 1.585);
    estimate.energy_j = estimate.seconds * sim::skylake_cpu().power_w;
    return estimate;
}

} // namespace camp::exec

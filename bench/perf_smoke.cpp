/**
 * @file
 * CI perf smoke (< 10 s): times the parallel paths added with the
 * thread pool — a large monolithic mpn multiplication and a
 * BatchEngine batch — serial (SerialGuard) vs pooled, plus an MPApca
 * decomposed multiplication (so a CAMP_TRACE run contains spans from
 * the mpn, sim, and mpapca layers), checks results are bit-identical,
 * and records machine-readable numbers in BENCH_perf_smoke.json.
 * Speedup tracks the host: on a single-core runner the pooled path is
 * expected near 1.0x and the JSON row is the honest record of that.
 * A division row hard-asserts that a 2n/n divrem at n = 9622 costs at
 * most 1.5x one at n = 9600 (Burnikel–Ziegler's odd-size cliff).
 *
 * The binary also measures the observability layer itself:
 *  - trace_off row: cost of a *disabled* trace::Span (the always-paid
 *    price) scaled by the spans-per-op of the 1-Mbit multiply, as a
 *    percentage of the op ("overhead_pct" extra; acceptance: < 2%);
 *  - trace_on row: the same multiply with tracing force-enabled.
 *
 * With CAMP_BENCH_GATE=1 the run exits nonzero when any op regresses
 * beyond CAMP_BENCH_TOLERANCE vs CAMP_BENCH_BASELINE (see bench_util
 * and ci/run_tests.sh; refresh workflow in README "Performance").
 */
#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exec/cpu_device.hpp"
#include "exec/wave.hpp"
#include "mpapca/runtime.hpp"
#include "mpn/div.hpp"
#include "mpn/view.hpp"
#include "mpn/kernels/kernels.hpp"
#include "mpn/kernels/soa.hpp"
#include "mpn/natural.hpp"
#include "sim/batch.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

using camp::mpn::Natural;
using namespace camp::bench;
namespace trace = camp::support::trace;
namespace kernels = camp::mpn::kernels;

int
main()
{
    camp::support::ThreadPool& pool = camp::support::ThreadPool::global();
    const unsigned threads = pool.executors();
    BenchJson json("perf_smoke");
    TimingOptions opts;
    opts.warmup = 1;
    opts.min_seconds = 0.2;
    camp::Rng rng(42);

    // Which SIMD tier the dispatcher picked (CAMP_SIMD override or
    // cpuid probe) — printed so a regression in any row below is
    // attributable to the kernel set that actually ran.
    const kernels::Tier tier = kernels::active_tier();
    std::printf("simd tier: %s\n", kernels::tier_name(tier));
    double best_simd_speedup = 1.0;

    const std::uint64_t mul_bits = 1u << 20; // 1 Mbit x 1 Mbit
    const Natural big_a = Natural::random_bits(rng, mul_bits);
    const Natural big_b = Natural::random_bits(rng, mul_bits);
    double mul_serial_s = 0;

    section("mpn monolithic multiply, serial vs pooled");
    {
        Natural serial_prod, pooled_prod;
        mul_serial_s = time_call(
            [&] {
                camp::support::SerialGuard guard;
                serial_prod = big_a * big_b;
            },
            opts);
        const double pooled_s =
            time_call([&] { pooled_prod = big_a * big_b; }, opts);
        CAMP_ASSERT(serial_prod == pooled_prod);
        const double bytes = 2.0 * (mul_bits / 8.0);
        json.add("mpn_mul_serial", mul_bits, 1, mul_serial_s, bytes);
        json.add("mpn_mul_pooled", mul_bits, threads, pooled_s, bytes,
                 {{"speedup", mul_serial_s / pooled_s}});
    }

    section("sim batch multiply, serial vs pooled");
    {
        const std::uint64_t bits = 2048;
        const std::size_t batch = 256;
        std::vector<std::pair<Natural, Natural>> pairs;
        pairs.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i)
            pairs.emplace_back(Natural::random_bits(rng, bits),
                               Natural::random_bits(rng, bits));
        camp::sim::BatchEngine engine;
        camp::sim::BatchResult serial_res, pooled_res;
        const double serial_s = time_call(
            [&] { serial_res = engine.multiply_batch(pairs, 1); },
            opts);
        const double pooled_s = time_call(
            [&] { pooled_res = engine.multiply_batch(pairs, 0); },
            opts);
        CAMP_ASSERT(serial_res.products == pooled_res.products);
        const double bytes =
            static_cast<double>(batch) * 2.0 * (bits / 8.0);
        json.add("batch_mul_serial", bits, 1, serial_s, bytes);
        json.add("batch_mul_pooled", bits, pooled_res.parallelism,
                 pooled_s, bytes, {{"speedup", serial_s / pooled_s}});
    }

    section("simd limb kernels, scalar vs dispatched");
    {
        // Microbench of the dispatched primitives against the scalar
        // reference on the same buffers. The gated win lives here:
        // add_n/sub_n are the carry-select movemask kernels (the
        // multiply-family slots deliberately stay scalar on hosts
        // where pmuludq loses to mulx — see DESIGN.md).
        const kernels::KernelTable& scal = kernels::scalar_table();
        const kernels::KernelTable& act = kernels::active();
        const std::size_t n = 4096;
        std::vector<std::uint64_t> ap(n), bp(n), rp(n);
        for (std::size_t i = 0; i < n; ++i) {
            ap[i] = rng.next();
            bp[i] = rng.next();
        }
        TimingOptions kopts = opts;
        kopts.min_seconds = 0.05;
        const double bytes = 3.0 * n * 8.0;

        const double add_scal_s = time_call(
            [&] { scal.add_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double add_act_s = time_call(
            [&] { act.add_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double add_speedup = add_scal_s / add_act_s;
        json.add("kernel_add_n", n * 64, 1, add_act_s, bytes,
                 {{"speedup", add_speedup},
                  {"simd_tier", static_cast<double>(tier)}});

        const double sub_scal_s = time_call(
            [&] { scal.sub_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double sub_act_s = time_call(
            [&] { act.sub_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double sub_speedup = sub_scal_s / sub_act_s;
        json.add("kernel_sub_n", n * 64, 1, sub_act_s, bytes,
                 {{"speedup", sub_speedup}});

        // Schoolbook basecase at 64x64 limbs: above the AVX2 kernel's
        // internal crossover, so the reduced-radix column path runs.
        const std::size_t bn = 64;
        std::vector<std::uint64_t> prod(2 * bn);
        const double bc_scal_s = time_call(
            [&] {
                scal.mul_basecase(prod.data(), ap.data(), bn, bp.data(),
                                  bn);
            },
            kopts);
        const double bc_act_s = time_call(
            [&] {
                act.mul_basecase(prod.data(), ap.data(), bn, bp.data(),
                                 bn);
            },
            kopts);
        const double bc_speedup = bc_scal_s / bc_act_s;
        json.add("kernel_basecase_64", bn * 64, 1, bc_act_s,
                 2.0 * bn * 8.0, {{"speedup", bc_speedup}});

        best_simd_speedup = std::max(
            {best_simd_speedup, add_speedup, sub_speedup, bc_speedup});
    }

    section("SoA batch multiply (digit-sliced vertical basecase)");
    {
        // N independent same-shape products, transposed into
        // digit-major SoA form and multiplied by one vertical kernel
        // across lanes, vs the same products one at a time through the
        // scalar mpn path. On tiers without an SoA kernel the driver
        // falls back per-product and the speedup is honestly ~1.0.
        const std::uint64_t bits = 4096;
        const std::size_t batch = 64;
        std::vector<std::pair<Natural, Natural>> pairs;
        pairs.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i)
            pairs.emplace_back(Natural::random_bits(rng, bits),
                               Natural::random_bits(rng, bits));
        std::vector<Natural> soa_out(batch), ref_out(batch);
        TimingOptions kopts = opts;
        kopts.min_seconds = 0.05;

        const bool had_simd = tier != kernels::Tier::Scalar;
        kernels::set_active_tier(kernels::Tier::Scalar);
        const double ref_s = time_call(
            [&] {
                for (std::size_t i = 0; i < batch; ++i)
                    ref_out[i] = pairs[i].first * pairs[i].second;
            },
            kopts);
        if (had_simd)
            kernels::set_active_tier(tier);
        const double soa_s = time_call(
            [&] {
                kernels::soa_mul_batch(pairs.data(), batch,
                                       soa_out.data());
            },
            kopts);
        for (std::size_t i = 0; i < batch; ++i)
            CAMP_ASSERT(soa_out[i] == ref_out[i]);
        const double soa_speedup = ref_s / soa_s;
        const double bytes =
            static_cast<double>(batch) * 2.0 * (bits / 8.0);
        json.add("batch_mul_soa", bits, 1, soa_s / batch, bytes / batch,
                 {{"speedup", soa_speedup}});
        best_simd_speedup = std::max(best_simd_speedup, soa_speedup);
    }

    section("memory plane: copying batch vs pooled zero-copy wave");
    {
        // One 256-product 2048-bit wave through an explicit CpuDevice,
        // both ways. The copying path allocates one product buffer per
        // product (mpn.alloc.count += ~256); the pooled wave path
        // writes into arena-backed slots carved at add() time and, at
        // steady state (warm reused WaveBuffer), allocates none. The
        // alloc_per_wave row is the gated record of that traffic drop:
        // >= 10x fewer counted allocations per wave, with products
        // bit-identical.
        const std::uint64_t bits = 2048;
        const std::size_t batch = 256;
        std::vector<std::pair<Natural, Natural>> pairs;
        pairs.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i)
            pairs.emplace_back(Natural::random_bits(rng, bits),
                               Natural::random_bits(rng, bits));
        camp::exec::CpuDevice cpu;
        std::vector<std::size_t> items(batch);
        std::vector<std::uint64_t> indices(batch);
        for (std::size_t i = 0; i < batch; ++i) {
            items[i] = i;
            indices[i] = i;
        }
        camp::support::metrics::Counter& allocs =
            camp::support::metrics::counter("mpn.alloc.count");

        camp::sim::BatchResult copy_res;
        std::uint64_t copy_allocs = 0;
        const double copy_s = time_call(
            [&] {
                const std::uint64_t before = allocs.value();
                copy_res = cpu.mul_batch(pairs, 0);
                copy_allocs = allocs.value() - before;
            },
            opts);

        camp::exec::WaveBuffer wave;
        std::uint64_t wave_allocs = 0;
        bool wave_identical = true;
        const double wave_s = time_call(
            [&] {
                wave.reset();
                for (const auto& [a, b] : pairs)
                    wave.add(a, b);
                const std::uint64_t before = allocs.value();
                cpu.mul_batch_wave(wave, items, indices, 0);
                wave_allocs = allocs.value() - before;
                for (std::size_t i = 0; i < batch; ++i)
                    wave_identical =
                        wave_identical &&
                        wave.result(i) ==
                            camp::mpn::LimbView(copy_res.products[i]);
            },
            opts);
        CAMP_ASSERT(wave_identical);

        // Steady state: a warm wave's execution allocates nothing, so
        // the ratio denominator is clamped to 1 for the JSON row.
        const double ratio = static_cast<double>(copy_allocs) /
                             static_cast<double>(
                                 std::max<std::uint64_t>(wave_allocs, 1));
        std::printf("alloc traffic per wave: copy=%llu zero-copy=%llu "
                    "(%.0fx reduction)\n",
                    static_cast<unsigned long long>(copy_allocs),
                    static_cast<unsigned long long>(wave_allocs),
                    ratio);
        CAMP_ASSERT(copy_allocs >= batch);
        CAMP_ASSERT(ratio >= 10.0);

        const double bytes =
            static_cast<double>(batch) * 2.0 * (bits / 8.0);
        json.add("wave_mul_copy", bits, threads, copy_s / batch,
                 bytes / batch,
                 {{"allocs", static_cast<double>(copy_allocs)}});
        json.add("alloc_per_wave", bits, threads, wave_s / batch,
                 bytes / batch,
                 {{"allocs", static_cast<double>(wave_allocs)},
                  {"reduction", ratio},
                  {"speedup", copy_s / wave_s}});
    }

    section("division: 2n/n at n = 9622 vs n = 9600");
    {
        // 9622 = 2 * 4811 halves once to an odd size far above the
        // Burnikel–Ziegler threshold; divrem's m * 2^k divisor blocking
        // keeps it on the recursion, so it must cost about what the
        // neighbouring 9600 does (a quadratic Knuth fallback at 4811
        // limbs measured ~4x). Both sizes are timed in alternation and
        // the median of the per-trial ratios is gated at 1.5x.
        const auto division = [&](std::size_t n) -> std::function<void()> {
            std::vector<camp::mpn::Limb> a(2 * n), d(n);
            for (auto& limb : a)
                limb = rng.next();
            for (auto& limb : d)
                limb = rng.next();
            d.back() |= camp::mpn::Limb{1} << 63;
            return [a, d, q = std::vector<camp::mpn::Limb>(n + 1),
                    r = std::vector<camp::mpn::Limb>(n)]() mutable {
                camp::mpn::divrem(q.data(), r.data(), a.data(), a.size(),
                                  d.data(), d.size());
            };
        };
        const std::function<void()> even = division(9600);
        const std::function<void()> cliff = division(9622);
        const TimingOptions once{
            .warmup = 0, .max_runs = 1, .min_seconds = 0};
        even(); // warm the allocator and the pool
        // Serial, 9 pairs, the order alternating: both sizes block to
        // 9728 limbs, and 15 such runs on a loaded 4-vCPU host gave
        // median ratios of 0.77-1.06 (pooled, up to 1.40).
        camp::support::SerialGuard serial;
        constexpr int kTrials = 9;
        std::vector<double> cliff_s, ratios;
        for (int t = 0; t < kTrials; ++t) {
            double even_t, cliff_t;
            if (t % 2 == 0) {
                even_t = time_call(even, once);
                cliff_t = time_call(cliff, once);
            } else {
                cliff_t = time_call(cliff, once);
                even_t = time_call(even, once);
            }
            cliff_s.push_back(cliff_t);
            ratios.push_back(cliff_t / even_t);
        }
        const auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        const double ratio = median(ratios);
        const double bytes = 3.0 * 9622 * 8.0;
        json.add("div_2n1n_9622", 9622 * 64, 1, median(cliff_s), bytes,
                 {{"ratio_vs_9600", ratio}});
        CAMP_ASSERT(ratio <= 1.5);
    }

    // The tentpole gate: with any SIMD tier active, at least one gated
    // kernel row must beat scalar by more than 1.5x. (Scalar-forced
    // runs — CAMP_SIMD=scalar CI legs — measure the same rows at ~1.0x
    // without gating, keeping the leg meaningful on any host.)
    std::printf("\nbest simd speedup: %.2fx (tier %s)\n",
                best_simd_speedup, kernels::tier_name(tier));
    if (tier != kernels::Tier::Scalar)
        CAMP_ASSERT(best_simd_speedup > 1.5);

    section("tracing overhead");
    {
        // Always-paid cost: a disabled Span is one relaxed load.
        const bool was_enabled = trace::enabled();
        trace::set_enabled(false);
        const std::size_t kSpans = 1u << 20;
        const double batch_s = time_call(
            [&] {
                for (std::size_t i = 0; i < kSpans; ++i) {
                    trace::Span span("bench.noop", "bench");
                    span.arg("i", static_cast<double>(i));
                }
            },
            opts);
        const double off_span_ns = batch_s / kSpans * 1e9;

        // Spans the 1-Mbit multiply emits (tracing on, serial so the
        // count is deterministic), to scale the per-span cost into a
        // percentage of the real op.
        trace::set_enabled(true);
        const std::uint64_t emitted_before = trace::total_emitted();
        Natural traced_prod;
        {
            camp::support::SerialGuard guard;
            traced_prod = big_a * big_b;
        }
        const double spans_per_op = static_cast<double>(
            trace::total_emitted() - emitted_before);
        const double off_overhead_pct = mul_serial_s > 0
            ? spans_per_op * off_span_ns / (mul_serial_s * 1e9) * 100.0
            : 0.0;

        // And the measured cost of actually recording those spans.
        const double on_s = time_call(
            [&] {
                camp::support::SerialGuard guard;
                traced_prod = big_a * big_b;
            },
            opts);
        trace::set_enabled(was_enabled);
        CAMP_ASSERT(traced_prod == big_a * big_b);
        const double on_overhead_pct = mul_serial_s > 0
            ? (on_s / mul_serial_s - 1.0) * 100.0
            : 0.0;

        const double bytes = 2.0 * (mul_bits / 8.0);
        json.add("trace_off_mul", mul_bits, 1, mul_serial_s, bytes,
                 {{"span_ns", off_span_ns},
                  {"spans_per_op", spans_per_op},
                  {"overhead_pct", off_overhead_pct}});
        json.add("trace_on_mul", mul_bits, 1, on_s, bytes,
                 {{"overhead_pct", on_overhead_pct}});
        CAMP_ASSERT(off_overhead_pct < 2.0);
    }

    section("mpapca decomposed multiply (runtime + sim + mpn spans)");
    {
        // Above the monolithic capability, so mul_functional really
        // decomposes and every base product routes through sim::Core.
        camp::mpapca::Runtime runtime(camp::mpapca::Backend::CambriconP);
        const std::uint64_t cap =
            runtime.cost_model().config().monolithic_cap_bits;
        const std::uint64_t bits = 3 * cap;
        const Natural a = Natural::random_bits(rng, bits);
        const Natural b = Natural::random_bits(rng, bits);
        Natural prod;
        TimingOptions mp_opts = opts;
        mp_opts.min_seconds = 0.05; // the slowest section; keep < 10 s
        const double mp_s =
            time_call([&] { prod = runtime.mul_functional(a, b); },
                      mp_opts);
        CAMP_ASSERT(prod == a * b);
        const double bytes = 2.0 * (bits / 8.0);
        json.add("mpapca_mul_functional", bits, threads, mp_s, bytes);
    }

    // A CAMP_TRACE run gets its JSON at exit; always print the
    // registry so the counters threaded through the layers are visible.
    section("metrics registry");
    std::printf(
        "%s",
        camp::support::metrics::Registry::instance()
            .render_table()
            .c_str());

    json.write_file();
    return maybe_gate(json);
}

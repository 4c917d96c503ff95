/**
 * @file
 * google-benchmark microbenchmarks of the mpn kernels — the CPU
 * baseline's primitive costs that every higher-level result in this
 * repository builds on.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "mpn/sqrt.hpp"
#include "support/rng.hpp"

namespace mpn = camp::mpn;
using mpn::Limb;

namespace {

std::vector<Limb>
random_limbs(std::size_t n, std::uint64_t seed)
{
    camp::Rng rng(seed);
    std::vector<Limb> v(n);
    for (auto& limb : v)
        limb = rng.next();
    if (!v.empty() && v.back() == 0)
        v.back() = 1;
    return v;
}

void
bm_add_n(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto a = random_limbs(n, 1);
    const auto b = random_limbs(n, 2);
    std::vector<Limb> r(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mpn::add_n(r.data(), a.data(), b.data(), n));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n * 8 * 3);
}
BENCHMARK(bm_add_n)->Arg(64)->Arg(1024)->Arg(16384);

void
bm_mul_dispatch(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto a = random_limbs(n, 3);
    const auto b = random_limbs(n, 4);
    std::vector<Limb> r(2 * n);
    for (auto _ : state)
        mpn::mul(r.data(), a.data(), n, b.data(), n);
    state.SetLabel(mpn::mul_algorithm_name(n, mpn::mul_tuning()));
}
BENCHMARK(bm_mul_dispatch)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

void
bm_divrem(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto a = random_limbs(2 * n, 5);
    const auto d = random_limbs(n, 6);
    std::vector<Limb> q(n + 1), r(n);
    for (auto _ : state)
        mpn::divrem(q.data(), r.data(), a.data(), 2 * n, d.data(), n);
}
BENCHMARK(bm_divrem)->Arg(64)->Arg(512)->Arg(4096)->Arg(9622);

void
bm_sqrtrem(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto a = random_limbs(n, 7);
    std::vector<Limb> s((n + 1) / 2);
    for (auto _ : state)
        mpn::sqrtrem(s.data(), nullptr, a.data(), n);
}
BENCHMARK(bm_sqrtrem)->Arg(64)->Arg(512)->Arg(4096);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Differential fuzz of the runtime-dispatched limb kernels: every
 * primitive of every non-scalar tier (avx2, mulx) is compared
 * case-by-case against the scalar reference (the oracle), across
 * random operands and the boundary shapes carry bugs hide in —
 * all-ones limbs, generate/propagate worst cases, n = 0/1, every
 * unroll remainder, b = 0/1, aliased rp/ap. A second
 * layer asserts the hard bit-identity invariant end to end: full
 * mpn_mul, the SoA batch driver, and Device::mul_batch produce
 * identical bits under every CAMP_SIMD tier the host supports.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "exec/registry.hpp"
#include "mpn/basic.hpp"
#include "mpn/kernels/internal.hpp"
#include "mpn/kernels/kernels.hpp"
#include "mpn/kernels/soa.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "support/rng.hpp"

namespace mpn = camp::mpn;
namespace kernels = camp::mpn::kernels;
using camp::Rng;
using mpn::Limb;
using mpn::Natural;

namespace {

std::uint64_t
fuzz_seed(std::uint64_t fallback)
{
    if (const char* env = std::getenv("CAMP_FUZZ_SEED")) {
        char* end = nullptr;
        const std::uint64_t seed = std::strtoull(env, &end, 0);
        if (end != env)
            return seed;
    }
    return fallback;
}

/** Restores the dispatched tier on scope exit (tests switch tiers). */
class TierGuard
{
  public:
    TierGuard() : saved_(kernels::active_tier()) {}
    ~TierGuard() { kernels::set_active_tier(saved_); }

  private:
    kernels::Tier saved_;
};

/**
 * One fuzz operand: mostly random limbs, with boundary patterns mixed
 * in (all-ones rows force maximal carries; zeros force propagate-only
 * blocks; 0x...fff/0x8000... force generate/propagate interleaving).
 */
std::vector<Limb>
fuzz_limbs(Rng& rng, std::size_t n)
{
    std::vector<Limb> v(n);
    const std::uint64_t mode = rng.below(5);
    for (std::size_t i = 0; i < n; ++i) {
        switch (mode) {
        case 0:
            v[i] = rng.next();
            break;
        case 1:
            v[i] = ~Limb{0}; // carry worst case
            break;
        case 2:
            v[i] = rng.below(2) ? ~Limb{0} : 0;
            break;
        case 3:
            v[i] = rng.below(2) ? ~Limb{0} : rng.next();
            break;
        default:
            v[i] = Limb{1} << rng.below(64);
            break;
        }
    }
    return v;
}

/** Multipliers: random, saturating, half-word and the trivial 0/1. */
Limb
fuzz_scalar(Rng& rng)
{
    switch (rng.below(6)) {
    case 0:
        return rng.next();
    case 1:
        return ~Limb{0};
    case 2:
        return 0xffffffffULL;
    case 3:
        return rng.below(2);
    default:
        return Limb{1} << rng.below(64);
    }
}

/**
 * The kernel table of every non-scalar tier the host runs. A slot a
 * tier leaves on the scalar loop is compared against itself, which
 * costs little and keeps the loops below tier-agnostic.
 */
std::vector<const kernels::KernelTable*>
tier_tables()
{
    std::vector<const kernels::KernelTable*> tables;
    for (const kernels::Tier tier :
         {kernels::Tier::Avx2, kernels::Tier::Mulx})
        if (const kernels::KernelTable* t = kernels::table_for(tier))
            tables.push_back(t);
    return tables;
}

/** Sizes cover sub-vector, exact-vector, and ragged-tail lengths. */
std::size_t
fuzz_size(Rng& rng)
{
    switch (rng.below(6)) {
    case 0:
        return 0;
    case 1:
        return 1;
    case 2:
        return 1 + rng.below(8); // below every vector threshold
    case 3:
        return 8 + rng.below(8); // around the kVecMinLimbs gate
    default:
        return 1 + rng.below(200);
    }
}

std::vector<kernels::Tier>
supported_tiers()
{
    std::vector<kernels::Tier> tiers{kernels::Tier::Scalar};
    if (kernels::table_for(kernels::Tier::Avx2) != nullptr)
        tiers.push_back(kernels::Tier::Avx2);
    if (kernels::table_for(kernels::Tier::Mulx) != nullptr)
        tiers.push_back(kernels::Tier::Mulx);
    return tiers;
}

} // namespace

TEST(SimdKernels, DispatchReportsSupportedTier)
{
    const kernels::KernelTable& table = kernels::active();
    EXPECT_NE(table.mul_1, nullptr);
    EXPECT_NE(table.add_n, nullptr);
    EXPECT_NE(table.mul_basecase, nullptr);
    EXPECT_TRUE(kernels::host_supports(table.tier));
    EXPECT_STREQ(kernels::tier_name(table.tier), table.name);
    // Scalar is always forceable; the guard restores the probed tier.
    TierGuard guard;
    ASSERT_TRUE(kernels::set_active_tier(kernels::Tier::Scalar));
    EXPECT_EQ(kernels::active_tier(), kernels::Tier::Scalar);
}

TEST(SimdKernels, Mul1DifferentialFuzz)
{
    const auto sets = tier_tables();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0001));
    for (const kernels::KernelTable* set : sets) {
        for (int iter = 0; iter < 1200; ++iter) {
            const std::size_t n = fuzz_size(rng);
            const std::vector<Limb> a = fuzz_limbs(rng, n);
            const Limb b = fuzz_scalar(rng);
            std::vector<Limb> want(n), got(n);
            const Limb want_c =
                kernels::scalar_mul_1(want.data(), a.data(), n, b);
            const Limb got_c = set->mul_1(got.data(), a.data(), n, b);
            ASSERT_EQ(want, got) << set->name << " n=" << n
                                 << " iter=" << iter;
            ASSERT_EQ(want_c, got_c) << set->name << " n=" << n;
            if (n != 0) {
                // Aliased rp == ap (documented in-place form).
                std::vector<Limb> in_place = a;
                const Limb alias_c =
                    set->mul_1(in_place.data(), in_place.data(), n, b);
                ASSERT_EQ(want, in_place)
                    << set->name << " aliased n=" << n;
                ASSERT_EQ(want_c, alias_c);
            }
        }
    }
}

TEST(SimdKernels, Addmul1DifferentialFuzz)
{
    const auto sets = tier_tables();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0002));
    for (const kernels::KernelTable* set : sets) {
        for (int iter = 0; iter < 1200; ++iter) {
            const std::size_t n = fuzz_size(rng);
            const std::vector<Limb> a = fuzz_limbs(rng, n);
            const std::vector<Limb> r0 = fuzz_limbs(rng, n);
            const Limb b = fuzz_scalar(rng);
            std::vector<Limb> want = r0, got = r0;
            const Limb want_c =
                kernels::scalar_addmul_1(want.data(), a.data(), n, b);
            const Limb got_c = set->addmul_1(got.data(), a.data(), n, b);
            ASSERT_EQ(want, got) << set->name << " n=" << n
                                 << " iter=" << iter;
            ASSERT_EQ(want_c, got_c) << set->name << " n=" << n;
            if (n != 0) {
                // rp aliased to ap: rp += rp * b.
                std::vector<Limb> want_alias = a, got_alias = a;
                const Limb wc = kernels::scalar_addmul_1(
                    want_alias.data(), want_alias.data(), n, b);
                const Limb gc = set->addmul_1(got_alias.data(),
                                             got_alias.data(), n, b);
                ASSERT_EQ(want_alias, got_alias)
                    << set->name << " aliased n=" << n;
                ASSERT_EQ(wc, gc);
            }
        }
    }
}

TEST(SimdKernels, Submul1DifferentialFuzz)
{
    const auto sets = tier_tables();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0003));
    for (const kernels::KernelTable* set : sets) {
        for (int iter = 0; iter < 1200; ++iter) {
            const std::size_t n = fuzz_size(rng);
            const std::vector<Limb> a = fuzz_limbs(rng, n);
            const std::vector<Limb> r0 = fuzz_limbs(rng, n);
            const Limb b = fuzz_scalar(rng);
            std::vector<Limb> want = r0, got = r0;
            const Limb want_c =
                kernels::scalar_submul_1(want.data(), a.data(), n, b);
            const Limb got_c = set->submul_1(got.data(), a.data(), n, b);
            ASSERT_EQ(want, got) << set->name << " n=" << n
                                 << " iter=" << iter;
            ASSERT_EQ(want_c, got_c) << set->name << " n=" << n;
            if (n != 0) {
                // rp aliased to ap: rp -= rp * b.
                std::vector<Limb> want_alias = a, got_alias = a;
                const Limb wc = kernels::scalar_submul_1(
                    want_alias.data(), want_alias.data(), n, b);
                const Limb gc = set->submul_1(got_alias.data(),
                                              got_alias.data(), n, b);
                ASSERT_EQ(want_alias, got_alias)
                    << set->name << " aliased n=" << n;
                ASSERT_EQ(wc, gc);
            }
        }
    }
}

TEST(SimdKernels, AddNDifferentialFuzz)
{
    const auto sets = tier_tables();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0004));
    for (const kernels::KernelTable* set : sets) {
        for (int iter = 0; iter < 1500; ++iter) {
            const std::size_t n = fuzz_size(rng);
            const std::vector<Limb> a = fuzz_limbs(rng, n);
            const std::vector<Limb> b = fuzz_limbs(rng, n);
            std::vector<Limb> want(n), got(n);
            const Limb want_c = kernels::scalar_add_n(
                want.data(), a.data(), b.data(), n);
            const Limb got_c =
                set->add_n(got.data(), a.data(), b.data(), n);
            ASSERT_EQ(want, got) << set->name << " n=" << n
                                 << " iter=" << iter;
            ASSERT_EQ(want_c, got_c) << set->name << " n=" << n;
            if (n != 0) {
                // In-place rp == ap (the dominant caller shape).
                std::vector<Limb> acc = a;
                const Limb alias_c = set->add_n(acc.data(), acc.data(),
                                               b.data(), n);
                ASSERT_EQ(want, acc)
                    << set->name << " aliased n=" << n;
                ASSERT_EQ(want_c, alias_c);
            }
        }
    }
}

TEST(SimdKernels, SubNDifferentialFuzz)
{
    const auto sets = tier_tables();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0005));
    for (const kernels::KernelTable* set : sets) {
        for (int iter = 0; iter < 1500; ++iter) {
            const std::size_t n = fuzz_size(rng);
            const std::vector<Limb> a = fuzz_limbs(rng, n);
            const std::vector<Limb> b = fuzz_limbs(rng, n);
            std::vector<Limb> want(n), got(n);
            const Limb want_c = kernels::scalar_sub_n(
                want.data(), a.data(), b.data(), n);
            const Limb got_c =
                set->sub_n(got.data(), a.data(), b.data(), n);
            ASSERT_EQ(want, got) << set->name << " n=" << n
                                 << " iter=" << iter;
            ASSERT_EQ(want_c, got_c) << set->name << " n=" << n;
            if (n != 0) {
                std::vector<Limb> acc = a;
                const Limb alias_c = set->sub_n(acc.data(), acc.data(),
                                               b.data(), n);
                ASSERT_EQ(want, acc)
                    << set->name << " aliased n=" << n;
                ASSERT_EQ(want_c, alias_c);
            }
        }
    }
}

TEST(SimdKernels, MulBasecaseDifferentialFuzz)
{
    const auto sets = tier_tables();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0006));
    for (const kernels::KernelTable* set : sets) {
        for (int iter = 0; iter < 1000; ++iter) {
            // Cover both sides of the reduced-radix crossover, where
            // the column kernel and the scalar fallback meet.
            const std::size_t bn = 1 + rng.below(80);
            const std::size_t an = bn + rng.below(40);
            const std::vector<Limb> a = fuzz_limbs(rng, an);
            const std::vector<Limb> b = fuzz_limbs(rng, bn);
            std::vector<Limb> want(an + bn), got(an + bn);
            kernels::scalar_mul_basecase(want.data(), a.data(), an,
                                         b.data(), bn);
            set->mul_basecase(got.data(), a.data(), an, b.data(), bn);
            ASSERT_EQ(want, got) << set->name << " an=" << an
                                 << " bn=" << bn << " iter=" << iter;
        }
    }
}

TEST(SimdKernels, EveryLengthWithSaturatedChains)
{
    // Every length through two full unrolled blocks plus the longest
    // remainder (the mulx loops unroll 4x: n % 4 single steps, then
    // n / 4 blocks), with all-ones operands that saturate both carry
    // chains, against b = 0, 1, B - 1 and a random multiplier, in the
    // separate and the in-place (rp == ap) forms.
    const auto sets = tier_tables();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    using Kernel = Limb (*)(Limb*, const Limb*, std::size_t, Limb);
    Rng rng(fuzz_seed(0x51D000A));
    const Limb ones = ~Limb{0};
    for (const kernels::KernelTable* set : sets) {
        const std::pair<Kernel, Kernel> pairs[] = {
            {kernels::scalar_mul_1, set->mul_1},
            {kernels::scalar_addmul_1, set->addmul_1},
            {kernels::scalar_submul_1, set->submul_1},
        };
        for (std::size_t n = 1; n <= 2 * 4 + 1; ++n) {
            for (const Limb b : {Limb{0}, Limb{1}, ones, rng.next()}) {
                for (int fill = 0; fill < 3; ++fill) {
                    // fill 0: all ones; 1: random a, all-ones r;
                    // 2: random both.
                    std::vector<Limb> a(n, ones), r(n, ones);
                    for (std::size_t i = 0; fill > 0 && i < n; ++i) {
                        a[i] = rng.next();
                        if (fill == 2)
                            r[i] = rng.next();
                    }
                    for (const auto& [ref, fast] : pairs) {
                        std::vector<Limb> want = r, got = r;
                        const Limb wc = ref(want.data(), a.data(), n, b);
                        const Limb gc = fast(got.data(), a.data(), n, b);
                        ASSERT_EQ(want, got) << set->name << " n=" << n
                                             << " fill=" << fill;
                        ASSERT_EQ(wc, gc) << set->name << " n=" << n;
                        std::vector<Limb> want_in = a, got_in = a;
                        const Limb wic =
                            ref(want_in.data(), want_in.data(), n, b);
                        const Limb gic =
                            fast(got_in.data(), got_in.data(), n, b);
                        ASSERT_EQ(want_in, got_in)
                            << set->name << " in-place n=" << n;
                        ASSERT_EQ(wic, gic) << set->name << " n=" << n;
                    }
                }
            }
        }
        // Basecase: every shape up to 9x9, all ones and random.
        for (std::size_t an = 1; an <= 2 * 4 + 1; ++an) {
            for (std::size_t bn = 1; bn <= an; ++bn) {
                for (const bool saturated : {true, false}) {
                    std::vector<Limb> a(an, ones), b(bn, ones);
                    if (!saturated) {
                        a = fuzz_limbs(rng, an);
                        b = fuzz_limbs(rng, bn);
                    }
                    std::vector<Limb> want(an + bn), got(an + bn);
                    kernels::scalar_mul_basecase(want.data(), a.data(),
                                                 an, b.data(), bn);
                    set->mul_basecase(got.data(), a.data(), an, b.data(),
                                      bn);
                    ASSERT_EQ(want, got) << set->name << " an=" << an
                                         << " bn=" << bn;
                }
            }
        }
    }
}

TEST(SimdKernels, SoaVerticalMatchesPerProduct)
{
    if (kernels::active().soa_width == 0)
        GTEST_SKIP() << "active tier has no SoA kernel";
    Rng rng(fuzz_seed(0x51D0007));
    for (int iter = 0; iter < 60; ++iter) {
        const std::size_t count = 1 + rng.below(40);
        std::vector<std::pair<Natural, Natural>> pairs;
        for (std::size_t i = 0; i < count; ++i) {
            // Mixed shapes: same-shape runs (SoA groups), odd shapes
            // (remainders), zeros and oversize pairs (fallback).
            const std::uint64_t mode = rng.below(5);
            std::uint64_t bits_a = 2048, bits_b = 2048;
            if (mode == 1)
                bits_a = bits_b = 64 + rng.below(1024);
            else if (mode == 2) {
                bits_a = 1 + rng.below(4096);
                bits_b = 1 + rng.below(4096);
            } else if (mode == 3)
                bits_a = 0;
            else if (mode == 4)
                bits_a = kernels::kSoaMaxLimbs * 64 + 512;
            pairs.emplace_back(
                bits_a ? Natural::random_bits(rng, bits_a) : Natural(),
                bits_b ? Natural::random_bits(rng, bits_b) : Natural());
        }
        std::vector<Natural> got(count);
        kernels::soa_mul_batch(pairs, got);
        for (std::size_t i = 0; i < count; ++i)
            ASSERT_EQ(got[i], pairs[i].first * pairs[i].second)
                << "iter=" << iter << " i=" << i;
    }
}

TEST(SimdKernels, FullMulBitIdenticalAcrossTiers)
{
    const auto tiers = supported_tiers();
    if (tiers.size() < 2)
        GTEST_SKIP() << "host supports only the scalar tier";
    TierGuard guard;
    Rng rng(fuzz_seed(0x51D0008));
    for (int iter = 0; iter < 1000; ++iter) {
        // Mostly sizes around the basecase/Karatsuba/Toom thresholds,
        // every 25th case up to 32 kbit; a third unbalanced.
        const std::uint64_t max_bits = iter % 25 == 0 ? 1 << 15 : 1 << 13;
        const std::uint64_t bits_a = 1 + rng.below(max_bits);
        const std::uint64_t bits_b =
            iter % 3 == 0 ? 1 + rng.below(bits_a) : bits_a;
        const Natural a = Natural::random_bits(rng, bits_a);
        const Natural b = Natural::random_bits(rng, bits_b);
        ASSERT_TRUE(kernels::set_active_tier(kernels::Tier::Scalar));
        const Natural want = a * b;
        for (const kernels::Tier tier : tiers) {
            ASSERT_TRUE(kernels::set_active_tier(tier));
            ASSERT_EQ(a * b, want)
                << kernels::tier_name(tier) << " iter=" << iter;
        }
    }
}

TEST(SimdKernels, DeviceMulBatchBitIdenticalAcrossTiers)
{
    const auto tiers = supported_tiers();
    if (tiers.size() < 2)
        GTEST_SKIP() << "host supports only the scalar tier";
    TierGuard guard;
    Rng rng(fuzz_seed(0x51D0009));
    // 21 batches of 48 = 1008 products.
    for (int batch = 0; batch < 21; ++batch) {
        std::vector<std::pair<Natural, Natural>> pairs;
        for (int i = 0; i < 48; ++i) {
            const std::uint64_t bits =
                i % 3 == 0 ? 2048 : 1 + rng.below(4096);
            pairs.emplace_back(Natural::random_bits(rng, bits),
                               Natural::random_bits(rng, bits));
        }
        ASSERT_TRUE(kernels::set_active_tier(kernels::Tier::Scalar));
        const camp::sim::BatchResult want =
            camp::exec::make_device("cpu")->mul_batch(pairs);
        for (const kernels::Tier tier : tiers) {
            ASSERT_TRUE(kernels::set_active_tier(tier));
            const camp::sim::BatchResult got =
                camp::exec::make_device("cpu")->mul_batch(pairs);
            ASSERT_EQ(got.products.size(), want.products.size());
            for (std::size_t i = 0; i < pairs.size(); ++i)
                ASSERT_EQ(got.products[i], want.products[i])
                    << kernels::tier_name(tier) << " batch=" << batch
                    << " i=" << i;
        }
    }
}

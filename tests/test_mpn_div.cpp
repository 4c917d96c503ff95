/**
 * @file
 * Division tests: the Euclidean invariant a == q*d + r, 0 <= r < d is
 * checked for Knuth schoolbook and Burnikel–Ziegler across shapes,
 * including adversarial all-ones patterns that stress qhat correction.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "mpn/newton.hpp"
#include "support/rng.hpp"

namespace mpn = camp::mpn;
using mpn::Limb;

namespace {

/** Effective fuzz seed: CAMP_FUZZ_SEED when set, else the per-test
 * default. Failures print it for exact replay. */
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

std::vector<Limb>
random_limbs(camp::Rng& rng, std::size_t n, bool nonzero_top = false)
{
    std::vector<Limb> v(n);
    for (auto& limb : v)
        limb = rng.next();
    if (nonzero_top && n > 0 && v.back() == 0)
        v.back() = 1;
    return v;
}

void
check_divrem(const std::vector<Limb>& a, const std::vector<Limb>& d)
{
    const std::size_t an = a.size(), dn = d.size();
    ASSERT_GE(an, dn);
    ASSERT_NE(d.back(), 0u);
    std::vector<Limb> q(an - dn + 1), r(dn);
    mpn::divrem(q.data(), r.data(), a.data(), an, d.data(), dn);
    // r < d.
    EXPECT_LT(mpn::cmp(r.data(), mpn::normalized_size(r.data(), dn),
                       d.data(), dn),
              0);
    // q*d + r == a.
    std::vector<Limb> prod(an + 1, 0);
    const std::size_t qn = mpn::normalized_size(q.data(), q.size());
    if (qn > 0) {
        std::vector<Limb> full(qn + dn);
        if (qn >= dn)
            mpn::mul(full.data(), q.data(), qn, d.data(), dn);
        else
            mpn::mul(full.data(), d.data(), dn, q.data(), qn);
        ASSERT_LE(mpn::normalized_size(full.data(), full.size()), an + 1);
        mpn::copy(prod.data(), full.data(),
                  std::min(full.size(), prod.size()));
    }
    const Limb carry = mpn::add(prod.data(), prod.data(), an + 1,
                                r.data(), mpn::normalized_size(r.data(),
                                                               dn));
    EXPECT_EQ(carry, 0u);
    EXPECT_EQ(prod[an], 0u);
    EXPECT_EQ(mpn::cmp_n(prod.data(), a.data(), an), 0);
}

/**
 * Divides a by d at the shipped Burnikel–Ziegler threshold and again
 * with pure Knuth-D; quotient and remainder must agree limb for limb.
 */
void
expect_bz_matches_knuth(const std::vector<Limb>& a,
                        const std::vector<Limb>& d)
{
    const std::size_t an = a.size(), dn = d.size();
    std::vector<Limb> q_bz(an - dn + 1), r_bz(dn);
    std::vector<Limb> q_kn(an - dn + 1), r_kn(dn);
    auto& tuning = mpn::div_tuning();
    const std::size_t saved = tuning.bz;
    ASSERT_EQ(saved, mpn::DivTuning{}.bz);
    mpn::divrem(q_bz.data(), r_bz.data(), a.data(), an, d.data(), dn);
    tuning.bz = 1u << 30; // pure Knuth-D
    mpn::divrem(q_kn.data(), r_kn.data(), a.data(), an, d.data(), dn);
    tuning.bz = saved;
    ASSERT_EQ(q_bz, q_kn);
    ASSERT_EQ(r_bz, r_kn);
}

} // namespace

TEST(MpnDiv, DivRem1MatchesU128)
{
    camp::Rng rng(21);
    for (int iter = 0; iter < 50; ++iter) {
        const auto a = random_limbs(rng, 2);
        const Limb d = rng.next() | 1;
        std::vector<Limb> q(2);
        const Limb r = mpn::divrem_1(q.data(), a.data(), 2, d);
        const camp::u128 av =
            (static_cast<camp::u128>(a[1]) << 64) | a[0];
        EXPECT_EQ(r, static_cast<Limb>(av % d));
        EXPECT_EQ(q[0], static_cast<Limb>(av / d));
        EXPECT_EQ(q[1], static_cast<Limb>((av / d) >> 64));
    }
}

struct DivCase
{
    std::size_t an, dn;
};

class DivShapes : public ::testing::TestWithParam<DivCase>
{
};

TEST_P(DivShapes, EuclideanInvariant)
{
    const auto [an, dn] = GetParam();
    camp::Rng rng(400 + an * 17 + dn);
    for (int iter = 0; iter < 6; ++iter) {
        const auto a = random_limbs(rng, an);
        const auto d = random_limbs(rng, dn, true);
        check_divrem(a, d);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DivShapes,
    ::testing::Values(DivCase{1, 1}, DivCase{2, 1}, DivCase{2, 2},
                      DivCase{3, 2}, DivCase{5, 2}, DivCase{8, 4},
                      DivCase{16, 7}, DivCase{30, 13}, DivCase{50, 50},
                      DivCase{60, 31}, DivCase{100, 49},
                      DivCase{128, 64}, DivCase{200, 100},
                      DivCase{300, 97}, DivCase{399, 200},
                      DivCase{512, 256}, DivCase{1000, 333}));

TEST(MpnDiv, ExactDivision)
{
    camp::Rng rng(22);
    for (int iter = 0; iter < 30; ++iter) {
        const std::size_t qn = 1 + rng.below(120);
        const std::size_t dn = 1 + rng.below(120);
        const auto qv = random_limbs(rng, qn, true);
        const auto dv = random_limbs(rng, dn, true);
        std::vector<Limb> a(qn + dn);
        if (qn >= dn)
            mpn::mul(a.data(), qv.data(), qn, dv.data(), dn);
        else
            mpn::mul(a.data(), dv.data(), dn, qv.data(), qn);
        const std::size_t an = mpn::normalized_size(a.data(), a.size());
        std::vector<Limb> q(an - dn + 1), r(dn);
        mpn::divrem(q.data(), r.data(), a.data(), an, dv.data(), dn);
        EXPECT_EQ(mpn::normalized_size(r.data(), dn), 0u);
        EXPECT_EQ(mpn::normalized_size(q.data(), q.size()), qn);
        EXPECT_EQ(mpn::cmp_n(q.data(), qv.data(), qn), 0);
    }
}

TEST(MpnDiv, AllOnesStressesQhatCorrection)
{
    // Dividend of all ones divided by B^k-ish divisors triggers the
    // qhat-too-large add-back path.
    for (std::size_t dn : {2u, 3u, 5u, 17u}) {
        std::vector<Limb> a(3 * dn, mpn::kLimbMax);
        std::vector<Limb> d(dn, 0);
        d[dn - 1] = 1; // d = B^(dn-1)
        check_divrem(a, d);
        d[0] = 1; // d = B^(dn-1) + 1
        check_divrem(a, d);
        std::vector<Limb> dmax(dn, mpn::kLimbMax);
        check_divrem(a, dmax);
    }
}

TEST(MpnDiv, QuotientZeroWhenDividendSmaller)
{
    camp::Rng rng(23);
    auto d = random_limbs(rng, 8, true);
    auto a = d;
    a[0] -= 1; // a = d - 1 (no borrow risk: top limb nonzero)
    if (d[0] == 0) {
        a = d;
        a[7] -= 1;
        if (a[7] == 0)
            a[7] = 1; // keep normalized-ish; still < d unless equal
    }
    std::vector<Limb> q(1), r(8);
    mpn::divrem(q.data(), r.data(), a.data(), 8, d.data(), 8);
    if (mpn::cmp_n(a.data(), d.data(), 8) < 0) {
        EXPECT_EQ(q[0], 0u);
        EXPECT_EQ(mpn::cmp_n(r.data(), a.data(), 8), 0);
    }
}

TEST(MpnDiv, BurnikelZieglerMatchesKnuth)
{
    camp::Rng rng(24);
    // Force both paths on identical inputs by toggling the threshold.
    for (int iter = 0; iter < 4; ++iter) {
        const std::size_t dn = 64 + rng.below(64);
        const std::size_t an = dn + 1 + rng.below(3 * dn);
        const auto a = random_limbs(rng, an);
        const auto d = random_limbs(rng, dn, true);
        std::vector<Limb> q1(an - dn + 1), r1(dn);
        std::vector<Limb> q2(an - dn + 1), r2(dn);
        auto& tuning = mpn::div_tuning();
        const std::size_t saved = tuning.bz;
        tuning.bz = 8;
        mpn::divrem(q1.data(), r1.data(), a.data(), an, d.data(), dn);
        tuning.bz = 1u << 30; // force pure Knuth
        mpn::divrem(q2.data(), r2.data(), a.data(), an, d.data(), dn);
        tuning.bz = saved;
        EXPECT_EQ(q1, q2);
        EXPECT_EQ(r1, r2);
    }
}

TEST(MpnDiv, DifferentialFuzzKnuthVsBurnikelZiegler)
{
    // Property-based differential fuzz (>= 1000 cases): every random
    // (dividend, divisor) pair is divided twice — Burnikel–Ziegler
    // forced on (threshold 8) and pure Knuth-D (threshold maxed) —
    // and the two results must agree limb-for-limb AND satisfy the
    // multiply-back identity q*d + r == n with r < d. Shapes sweep
    // from single-limb divisors up through heavily unbalanced and
    // near-square pairs so both the qhat-correction and the recursive
    // 2n/n split paths get hit.
    const std::uint64_t seed = fuzz_seed(0xd1f5eedull);
    camp::Rng rng(seed);
    auto& tuning = mpn::div_tuning();
    const std::size_t saved = tuning.bz;
    for (int iter = 0; iter < 1000; ++iter) {
        SCOPED_TRACE("iter=" + std::to_string(iter) +
                     " seed=" + std::to_string(seed) +
                     " (replay: CAMP_FUZZ_SEED=<seed>)");
        const std::size_t dn = 1 + rng.below(96);
        const std::size_t an = dn + rng.below(160);
        auto a = random_limbs(rng, an);
        auto d = random_limbs(rng, dn, true);
        // A slice of the cases gets adversarial bit patterns: all-ones
        // dividends and power-of-B divisors stress qhat correction.
        if (iter % 7 == 0)
            for (auto& limb : a)
                limb = mpn::kLimbMax;
        if (iter % 11 == 0) {
            std::fill(d.begin(), d.end(), Limb{0});
            d[dn - 1] = 1 + rng.below(2);
        }

        std::vector<Limb> q_bz(an - dn + 1), r_bz(dn);
        std::vector<Limb> q_kn(an - dn + 1), r_kn(dn);
        tuning.bz = 8; // recursive Burnikel–Ziegler wherever legal
        mpn::divrem(q_bz.data(), r_bz.data(), a.data(), an, d.data(),
                    dn);
        tuning.bz = 1u << 30; // pure Knuth-D
        mpn::divrem(q_kn.data(), r_kn.data(), a.data(), an, d.data(),
                    dn);
        tuning.bz = saved;
        ASSERT_EQ(q_bz, q_kn);
        ASSERT_EQ(r_bz, r_kn);

        // Multiply-back identity on the agreed result.
        check_divrem(a, d);
    }
}

TEST(MpnDiv, BlockedDivisorShapesMatchKnuth)
{
    // Divisor sizes whose plain halving ends on an odd size above the
    // threshold, so they only reach the Knuth base case through the
    // m * 2^k blocking: 2p and 4p for primes p > 48, and m * 2^k +- 1.
    camp::Rng rng(26);
    std::vector<std::size_t> sizes;
    for (const std::size_t p : {53u, 97u, 131u, 257u, 521u}) {
        sizes.push_back(2 * p);
        sizes.push_back(4 * p);
    }
    for (const std::size_t mk : {25u * 4, 37u * 8, 48u * 16, 1024u})
        for (const std::size_t dn : {mk - 1, mk + 1})
            sizes.push_back(dn);
    for (const std::size_t dn : sizes) {
        SCOPED_TRACE("dn=" + std::to_string(dn));
        const auto d = random_limbs(rng, dn, true);
        expect_bz_matches_knuth(random_limbs(rng, 2 * dn), d);
        // All-ones dividend: qhat corrections at every level.
        expect_bz_matches_knuth(
            std::vector<Limb>(2 * dn + 3, mpn::kLimbMax), d);
    }
}

TEST(MpnDiv, EveryDivisorSizeOfTheFirstRecursionLevels)
{
    // Every dn up to 8 * bz: block sizes m * 2^k for k = 1..3 with
    // every padding the rounding can produce.
    camp::Rng rng(27);
    const std::size_t bz = mpn::DivTuning{}.bz;
    for (std::size_t dn = bz - 2; dn <= 8 * bz; ++dn) {
        SCOPED_TRACE("dn=" + std::to_string(dn));
        expect_bz_matches_knuth(random_limbs(rng, 2 * dn + 1 + dn % 5),
                                random_limbs(rng, dn, true));
    }
}

TEST(MpnDiv, PiFinalDivisionShapeMatchesKnuth)
{
    // The final numerator / T of 1e5-digit Pi: 14813 / 9621 limbs.
    camp::Rng rng(28);
    const auto a = random_limbs(rng, 14813);
    const auto d = random_limbs(rng, 9621, true);
    expect_bz_matches_knuth(a, d);
    check_divrem(a, d);
}

TEST(MpnDiv, UnbalancedQuotientShapesMatchKnuth)
{
    camp::Rng rng(29);
    // qn << dn: a handful of quotient limbs over a large divisor.
    for (const std::size_t dn : {49u, 211u, 1000u, 3001u})
        for (const std::size_t qn : {1u, 2u, 7u}) {
            SCOPED_TRACE("dn=" + std::to_string(dn) +
                         " qn=" + std::to_string(qn));
            expect_bz_matches_knuth(random_limbs(rng, dn + qn - 1),
                                    random_limbs(rng, dn, true));
        }
    // qn >> dn: many DN-limb quotient blocks.
    for (const std::size_t dn : {49u, 97u, 203u})
        for (const std::size_t blocks : {9u, 31u}) {
            SCOPED_TRACE("dn=" + std::to_string(dn) +
                         " blocks=" + std::to_string(blocks));
            expect_bz_matches_knuth(
                random_limbs(rng, blocks * dn + dn / 3),
                random_limbs(rng, dn, true));
        }
}

TEST(MpnDiv, NewtonMatchesKnuthDifferential)
{
    // Regression suite for divrem_newton's degenerate shapes (a < d,
    // d == 1, power-of-two divisors, all-ones operands) plus a
    // >= 1000-case random differential against pure Knuth-D: quotient
    // and remainder must agree exactly and satisfy the Euclidean
    // invariant.
    using camp::mpn::Natural;
    const std::uint64_t seed = fuzz_seed(0x0e37700ull);
    camp::Rng rng(seed);
    auto& tuning = mpn::div_tuning();
    const std::size_t saved = tuning.bz;
    tuning.bz = 1u << 30; // the reference divides with pure Knuth-D
    for (int iter = 0; iter < 1200; ++iter) {
        SCOPED_TRACE("iter=" + std::to_string(iter) +
                     " seed=" + std::to_string(seed) +
                     " (replay: CAMP_FUZZ_SEED=<seed>)");
        Natural a = Natural::random_bits(rng, 1 + rng.below(6000));
        Natural d = Natural::random_bits(rng, 1 + rng.below(4000));
        switch (iter % 8) {
        case 0: // a < d: quotient must be zero, remainder a
            if (a > d)
                std::swap(a, d);
            break;
        case 1: // d == 1: previously built a 2^(bits(a)+3) temporary
            d = Natural(1);
            break;
        case 2: // power-of-two divisor: pure shift/mask path
            d = Natural(1) << rng.below(3000);
            break;
        case 3: // all-ones operands stress the final correction
            a = (Natural(1) << (1 + rng.below(5000))) - Natural(1);
            d = (Natural(1) << (1 + rng.below(3000))) - Natural(1);
            break;
        case 4: // exact multiples: remainder must be exactly zero
            a = a * d;
            break;
        case 5: // a == d
            a = d;
            break;
        default:
            break;
        }
        if (d.is_zero())
            d = Natural(1);
        const auto [q, r] = mpn::divrem_newton(a, d);
        const auto [qk, rk] = Natural::divrem(a, d);
        ASSERT_EQ(q, qk);
        ASSERT_EQ(r, rk);
        ASSERT_TRUE(r < d);
        ASSERT_EQ(q * d + r, a);
    }
    tuning.bz = saved;

    EXPECT_THROW(mpn::divrem_newton(Natural(5), Natural()),
                 std::invalid_argument);
    EXPECT_THROW(mpn::newton_reciprocal(Natural(), 64),
                 std::invalid_argument);
    // The power-of-two reciprocal short-circuit stays exact.
    // floor(2^(bits(d) + extra) / 2^k) with bits(d) = k + 1.
    for (std::uint64_t k : {0u, 1u, 63u, 64u, 500u})
        EXPECT_EQ(mpn::newton_reciprocal(Natural(1) << k, 200),
                  Natural(1) << 201);
}

TEST(MpnDiv, UnnormalizedDividendHighZeros)
{
    camp::Rng rng(25);
    auto a = random_limbs(rng, 40);
    for (int i = 0; i < 15; ++i)
        a[39 - i] = 0;
    const auto d = random_limbs(rng, 9, true);
    check_divrem(a, d);
}

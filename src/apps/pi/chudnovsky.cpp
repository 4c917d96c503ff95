#include "apps/pi/chudnovsky.hpp"

#include <utility>
#include <vector>

#include "mpn/basic.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "mpn/ophook.hpp"
#include "profile/profiler.hpp"
#include "support/assert.hpp"
#include "support/opcache.hpp"

namespace camp::apps::pi {

using mpn::Natural;
using mpz::Integer;

std::uint64_t
terms_for_digits(std::uint64_t digits)
{
    // Each term contributes log10(640320^3 / (24*6*2*6)) ~ 14.1816
    // digits.
    return static_cast<std::uint64_t>(
               static_cast<double>(digits) / 14.181647462725477) +
           2;
}

namespace {

/** Terms one leaf block folds in a single pass (8 and 16 measured the
 * same at 10^5 digits). */
constexpr std::uint64_t kLeafTerms = 8;

/**
 * A natural number on the stack, large enough for any value of a leaf
 * block: every factor is one limb, so a mul_1 step grows it by at most
 * one limb, and T stays within 5 limbs per term (P gains at most 3 and
 * Q at most 4 per term).
 */
struct LeafNat
{
    static constexpr std::size_t kCapacity = 5 * kLeafTerms + 2;
    mpn::Limb d[kCapacity] = {};
    std::size_t n = 0;

    void
    mul(mpn::Limb f)
    {
        if (n == 0)
            return;
        const mpn::Limb carry = mpn::mul_1(d, d, n, f);
        if (carry != 0) {
            CAMP_ASSERT(n < kCapacity);
            d[n++] = carry;
        }
    }

    Natural
    to_natural() const
    {
        return Natural::from_limbs(std::vector<mpn::Limb>(d, d + n));
    }
};

/**
 * The triple over [a, b) with b - a <= kLeafTerms, built term by term on
 * limb buffers. Term k has p_k = (6k-5)(2k-1)(6k-1) [paper Algorithm 1's
 * R], q_k = 10939058860032000 k^3 (= 640320^3 / 24 k^3), both 1 at
 * k = 0, and t_k = (-1)^k p_k (13591409 + 545140134 k). Merging the
 * term into the running triple is P *= p_k, Q *= q_k and
 * T = T q_k + (-1)^k (13591409 + 545140134 k) P, with P already
 * updated; T is kept in sign-magnitude.
 */
SplitTriple
leaf_block(std::uint64_t a, std::uint64_t b)
{
    // Every factor below, 545140134 k + 13591409 the widest, fits a limb.
    CAMP_ASSERT(a < b && b - a <= kLeafTerms &&
                b <= (std::uint64_t{1} << 33));
    // One announcement for the whole block: its widest chain (Q) times
    // one-limb factors.
    mpn::OpScope scope(mpn::OpKind::Mul, 4 * 64 * (b - a), 64);
    LeafNat p, q, bufs[2];
    p.d[0] = q.d[0] = 1;
    p.n = q.n = 1;
    LeafNat* t = &bufs[0]; // |T|
    LeafNat* u = &bufs[1]; // |(-1)^k c_k P|, then scratch
    bool t_negative = false;
    for (std::uint64_t k = a; k < b; ++k) {
        if (k != 0) {
            for (const mpn::Limb f : {6 * k - 5, 2 * k - 1, 6 * k - 1})
                p.mul(f);
            for (const mpn::Limb f :
                 {std::uint64_t{10939058860032000}, k, k, k}) {
                q.mul(f);
                t->mul(f);
            }
        }
        const mpn::Limb carry =
            mpn::mul_1(u->d, p.d, p.n, 13591409 + 545140134 * k);
        u->n = p.n;
        if (carry != 0)
            u->d[u->n++] = carry;
        const bool u_negative = (k & 1) != 0;

        // T += U in sign-magnitude, into the larger magnitude's buffer.
        LeafNat* hi = t;
        LeafNat* lo = u;
        bool negative = t_negative;
        if (mpn::cmp(t->d, t->n, u->d, u->n) < 0) {
            std::swap(hi, lo);
            negative = u_negative;
        }
        if (t_negative == u_negative || t->n == 0) {
            const mpn::Limb c =
                mpn::add(hi->d, hi->d, hi->n, lo->d, lo->n);
            if (c != 0) {
                CAMP_ASSERT(hi->n < LeafNat::kCapacity);
                hi->d[hi->n++] = c;
            }
        } else {
            mpn::sub(hi->d, hi->d, hi->n, lo->d, lo->n);
            hi->n = mpn::normalized_size(hi->d, hi->n);
        }
        t = hi;
        u = lo;
        t_negative = negative && t->n != 0;
    }
    return {Integer(p.to_natural()), Integer(q.to_natural()),
            Integer(t->to_natural(), t_negative)};
}

} // namespace

SplitTriple
binary_split(std::uint64_t a, std::uint64_t b)
{
    CAMP_ASSERT(a < b);
    if (b - a <= kLeafTerms)
        return leaf_block(a, b);
    const std::uint64_t m = a + (b - a) / 2;
    const SplitTriple left = binary_split(a, m);
    const SplitTriple right = binary_split(m, b);
    return merge_triples(left, right);
}

SplitTriple
merge_triples(const SplitTriple& left, const SplitTriple& right)
{
    SplitTriple merged;
    merged.p = left.p * right.p;
    merged.q = left.q * right.q;
    merged.t = left.t * right.q + left.p * right.t;
    return merged;
}

std::string
compute_pi(std::uint64_t digits)
{
    CAMP_ASSERT(digits >= 1);
    const std::uint64_t terms = terms_for_digits(digits);
    const SplitTriple split = binary_split(0, terms);
    return finalize_pi(digits, split);
}

std::string
finalize_pi(std::uint64_t digits, const SplitTriple& split)
{
    CAMP_ASSERT(digits >= 1);
    // pi = 426880 * sqrt(10005) * Q / T. Work on integers scaled by
    // 10^(digits + guard).
    const std::uint64_t guard = 10;
    const Natural scale = Natural::pow10(digits + guard);
    const Natural sqrt_arg = Natural(10005) * scale * scale;
    const Natural root = Natural::isqrt(sqrt_arg); // sqrt(10005)*10^(d+g)
    CAMP_ASSERT(!split.t.is_negative() && !split.q.is_negative());
    const Natural numerator =
        Natural(426880) * root * split.q.abs();
    const Natural pi_scaled =
        numerator / split.t.abs() / Natural::pow10(guard);

    std::string digits_str;
    {
        // String conversion is host-side auxiliary work (Fig. 2).
        profile::CategoryScope aux(profile::Category::Auxiliary);
        digits_str = pi_scaled.to_decimal();
    }
    CAMP_ASSERT(digits_str.size() == digits + 1); // leading "3"
    return "3." + digits_str.substr(1);
}

std::string
PiCalculator::digits(std::uint64_t digits)
{
    CAMP_ASSERT(digits >= 1);
    if (!support::OpCache::global().enabled()) {
        // Cache-off arm: cold every call, retain nothing.
        reset();
        const std::uint64_t terms = terms_for_digits(digits);
        last_fresh_terms_ = terms;
        return compute_pi(digits);
    }
    if (terms_ != 0 && digits == last_digits_) {
        last_fresh_terms_ = 0; // memoized repeat
        return last_result_;
    }
    const std::uint64_t terms = terms_for_digits(digits);
    if (terms_ == 0 || terms < terms_) {
        // Cold start, or a shrinking target: a merged prefix cannot be
        // un-merged, so recompute at exactly the smaller term count
        // (identical to what compute_pi would build).
        split_ = binary_split(0, terms);
        terms_ = terms;
        last_fresh_terms_ = terms;
    } else if (terms > terms_) {
        // Growth: split only the new tail [terms_, terms) and merge.
        // merge_triples is associative over exact integers, so this
        // equals binary_split(0, terms) bit for bit.
        split_ = merge_triples(split_, binary_split(terms_, terms));
        last_fresh_terms_ = terms - terms_;
        terms_ = terms;
    } else {
        last_fresh_terms_ = 0; // same term count, new scale only
    }
    last_digits_ = digits;
    last_result_ = finalize_pi(digits, split_);
    return last_result_;
}

void
PiCalculator::reset()
{
    terms_ = 0;
    split_ = SplitTriple{};
    last_digits_ = 0;
    last_result_.clear();
    last_fresh_terms_ = 0;
}

} // namespace camp::apps::pi

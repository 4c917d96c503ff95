#include "mpn/div.hpp"

#include <vector>

#include "mpn/basic.hpp"
#include "mpn/mul.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace camp::mpn {

DivTuning&
div_tuning()
{
    static DivTuning tuning;
    return tuning;
}

Limb
divrem_1(Limb* qp, const Limb* ap, std::size_t n, Limb d)
{
    CAMP_ASSERT(d != 0);
    Limb rem = 0;
    for (std::size_t i = n; i-- > 0;) {
        const u128 cur = (static_cast<u128>(rem) << 64) | ap[i];
        qp[i] = static_cast<Limb>(cur / d);
        rem = static_cast<Limb>(cur % d);
    }
    return rem;
}

namespace {

/**
 * Knuth Algorithm D core. up is a (un + 1)-limb buffer with up[un] == 0,
 * holding the bit-normalized dividend; dp is the bit-normalized divisor
 * (top bit set), dn >= 2. Writes un - dn + 1 quotient limbs to qp and
 * leaves the remainder in up[0..dn).
 */
void
knuth_core(Limb* qp, Limb* up, std::size_t un, const Limb* dp,
           std::size_t dn)
{
    CAMP_ASSERT(dn >= 2 && un >= dn);
    CAMP_ASSERT(dp[dn - 1] >> 63);
    CAMP_ASSERT(up[un] == 0);
    const Limb d1 = dp[dn - 1];
    const Limb d0 = dp[dn - 2];
    for (std::size_t j = un - dn + 1; j-- > 0;) {
        const Limb u2 = up[j + dn];
        const Limb u1 = up[j + dn - 1];
        const Limb u0 = up[j + dn - 2];
        Limb qhat, rhat;
        {
            const u128 num = (static_cast<u128>(u2) << 64) | u1;
            if (u2 >= d1) { // only u2 == d1 possible by the invariant
                qhat = kLimbMax;
            } else {
                qhat = static_cast<Limb>(num / d1);
            }
            u128 r = num - static_cast<u128>(qhat) * d1;
            // Refine with the second divisor limb (at most 2 steps once
            // r fits a limb; loop is bounded regardless).
            while (r <= kLimbMax &&
                   static_cast<u128>(qhat) * d0 >
                       ((r << 64) | u0)) {
                --qhat;
                r += d1;
            }
            rhat = static_cast<Limb>(r);
            (void)rhat;
        }
        // up[j .. j+dn] -= qhat * d.
        const Limb borrow = submul_1(up + j, dp, dn, qhat);
        const Limb top = up[j + dn];
        up[j + dn] = top - borrow;
        if (top < borrow) {
            // qhat was one too large; add back.
            --qhat;
            const Limb carry = add_n(up + j, up + j, dp, dn);
            up[j + dn] += carry;
            CAMP_ASSERT(up[j + dn] == 0);
        }
        qp[j] = qhat;
    }
}

/**
 * Schoolbook divide of a un-limb in-place dividend by a normalized
 * dn-limb divisor via a scratch copy; on return ap holds the remainder
 * in its low dn limbs and zeros above. Quotient: un - dn + 1 limbs.
 */
void
knuth_inplace(Limb* qp, Limb* ap, std::size_t un, const Limb* dp,
              std::size_t dn)
{
    std::vector<Limb> u(un + 1);
    copy(u.data(), ap, un);
    u[un] = 0;
    knuth_core(qp, u.data(), un, dp, dn);
    copy(ap, u.data(), dn);
    zero(ap + dn, un - dn);
}

void div_2n_1n(Limb* qp, Limb* ap, std::size_t n, const Limb* dp);

/**
 * Burnikel–Ziegler 3h-by-2h step. a is a 3h-limb in-place dividend with
 * a[h..3h) < d (2h limbs, normalized, h = n2/2). Writes h quotient limbs
 * to qp, leaves the 2h-limb remainder in a[0..2h) and zeros a[2h..3h).
 */
void
div_3n_2n(Limb* qp, Limb* ap, std::size_t n2, const Limb* dp)
{
    const std::size_t h = n2 / 2;
    const Limb* b1 = dp + h;
    const Limb* b0 = dp;
    std::vector<Limb> t(2 * h + 1);

    if (cmp_n(ap + 2 * h, b1, h) < 0) {
        // Quotient estimate from the top 2h limbs divided by B1.
        div_2n_1n(qp, ap + h, h, b1);
        // Remainder R1 now in ap[h..2h), ap[2h..3h) zeroed.
    } else {
        // qhat = B^h - 1; R1 = [A2 A1] - (B^h - 1) * B1.
        for (std::size_t i = 0; i < h; ++i)
            qp[i] = kLimbMax;
        Limb borrow = sub_n(ap + 2 * h, ap + 2 * h, b1, h);
        CAMP_ASSERT(borrow == 0);
        const Limb carry = add(ap + h, ap + h, 2 * h, b1, h);
        CAMP_ASSERT(carry == 0);
    }

    // D = qhat * B0 (2h limbs; qp may be the all-ones fast path but the
    // general multiply covers it too).
    const std::size_t qn = normalized_size(qp, h);
    const std::size_t b0n = normalized_size(b0, h);
    zero(t.data(), t.size());
    if (qn != 0 && b0n != 0) {
        if (qn >= b0n)
            mul(t.data(), qp, qn, b0, b0n);
        else
            mul(t.data(), b0, b0n, qp, qn);
    }
    const std::size_t tn = normalized_size(t.data(), qn + b0n);

    // R = R1 * B^h + A0 - D, with at most two add-back corrections.
    Limb borrow = tn == 0 ? 0 : sub(ap, ap, 3 * h, t.data(), tn);
    int guard = 0;
    while (borrow) {
        CAMP_ASSERT(++guard <= 3);
        const Limb q_borrow = sub_1(qp, qp, h, 1);
        CAMP_ASSERT(q_borrow == 0);
        const Limb carry = add(ap, ap, 3 * h, dp, 2 * h);
        borrow -= carry;
    }
    CAMP_ASSERT(normalized_size(ap + 2 * h, h) == 0);
    CAMP_ASSERT(cmp_n(ap, dp, 2 * h) < 0 || h == 0);
}

/**
 * Burnikel–Ziegler 2n-by-n step. a is a 2n-limb in-place dividend with
 * a[n..2n) < d (n limbs, normalized). Writes n quotient limbs, leaves
 * the remainder in a[0..n) and zeros a[n..2n). n must halve evenly
 * down to the Knuth base case (divrem blocks the divisor to m * 2^k).
 */
void
div_2n_1n(Limb* qp, Limb* ap, std::size_t n, const Limb* dp)
{
    CAMP_ASSERT(cmp_n(ap + n, dp, n) < 0);
    const std::size_t bz = div_tuning().bz;
    CAMP_ASSERT(n <= bz || n % 2 == 0);
    if (n <= bz) {
        std::vector<Limb> q(n + 1);
        knuth_inplace(q.data(), ap, 2 * n, dp, n);
        CAMP_ASSERT(q[n] == 0);
        copy(qp, q.data(), n);
        return;
    }
    const std::size_t h = n / 2;
    // High 3h limbs first, then the low window including the remainder.
    div_3n_2n(qp + h, ap + h, n, dp);
    div_3n_2n(qp, ap, n, dp);
}

/** rp = ap << s over n limbs (s < kLimbBits); returns the bits out. */
Limb
shift_up(Limb* rp, const Limb* ap, std::size_t n, unsigned s)
{
    if (s != 0)
        return lshift(rp, ap, n, s);
    copy(rp, ap, n);
    return 0;
}

} // namespace

void
divrem(Limb* qp, Limb* rp, const Limb* ap, std::size_t an,
       const Limb* dp, std::size_t dn)
{
    CAMP_ASSERT(dn >= 1 && an >= dn);
    CAMP_ASSERT(dp[dn - 1] != 0);
    const std::size_t qn = an - dn + 1;
    const std::size_t an1 = normalized_size(ap, an);
    if (an1 < dn || (an1 == dn && cmp_n(ap, dp, dn) < 0)) {
        zero(qp, qn);
        copy(rp, ap, an1);
        zero(rp + an1, dn - an1);
        return;
    }
    if (dn == 1) {
        rp[0] = divrem_1(qp, ap, an, dp[0]);
        return;
    }

    // Burnikel–Ziegler blocks the divisor to DN = m * 2^k limbs with
    // m <= bz by padding both operands with DN - dn low zero limbs (the
    // quotient is unchanged, the remainder gains the same zero limbs),
    // so every recursion level halves evenly down to Knuth at m limbs.
    const std::size_t bz = div_tuning().bz;
    CAMP_ASSERT(bz >= 2);
    std::size_t m = dn, k = 0;
    for (; m > bz; ++k)
        m = (m + 1) / 2; // ceil(dn / 2^k)
    const std::size_t DN = m << k;
    const std::size_t pad = DN - dn;
    const bool recursive = k > 0;

    // Bit-normalize straight into the padded buffers so the divisor's
    // top bit is set.
    const unsigned s =
        static_cast<unsigned>(64 - camp::bit_length(dp[dn - 1]));
    std::vector<Limb> d(DN, 0);
    shift_up(d.data() + pad, dp, dn, s);
    // Knuth runs one pass over the whole dividend (plus a zero top
    // limb); Burnikel–Ziegler runs one 2n/n step per DN-limb block of
    // the un - DN + 1 quotient limbs, top block first, and reads up to
    // DN limbs above un.
    std::vector<Limb> u(pad + an1 + 1 + (recursive ? DN : 1), 0);
    u[pad + an1] = shift_up(u.data() + pad, ap, an1, s);
    const std::size_t un = normalized_size(u.data(), pad + an1 + 1);
    const std::size_t blocks = un / DN;
    std::vector<Limb> q(recursive ? blocks * DN : un - dn + 1);
    if (recursive) {
        for (std::size_t b = blocks; b-- > 0;)
            div_2n_1n(q.data() + b * DN, u.data() + b * DN, DN, d.data());
    } else {
        knuth_core(q.data(), u.data(), un, d.data(), dn);
    }

    // q can be wider than the caller-visible quotient (block rounding,
    // the shift's carry limb) or narrower (high zero dividend limbs).
    const std::size_t have = std::min(qn, q.size());
    copy(qp, q.data(), have);
    zero(qp + have, qn - have);
    CAMP_ASSERT(normalized_size(q.data() + have, q.size() - have) == 0);
    CAMP_ASSERT(normalized_size(u.data(), pad) == 0);
    if (s == 0)
        copy(rp, u.data() + pad, dn);
    else
        rshift(rp, u.data() + pad, dn, s);
}

} // namespace camp::mpn

#include "mpn/sqrt.hpp"

#include <cmath>
#include <vector>

#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace camp::mpn {

namespace {

/** floor(sqrt(x)) for a 64-bit value. */
Limb
isqrt64(Limb x)
{
    Limb s = static_cast<Limb>(std::sqrt(static_cast<double>(x)));
    while (s > 0 && static_cast<u128>(s) * s > x)
        --s;
    while (static_cast<u128>(s + 1) * (s + 1) <= x)
        ++s;
    return s;
}

/** floor(sqrt(x)) for a 128-bit value. */
Limb
isqrt128(u128 x)
{
    if (x == 0)
        return 0;
    const std::uint64_t hi = static_cast<std::uint64_t>(x >> 64);
    u128 s = hi ? (static_cast<u128>(isqrt64(hi)) << 32)
                : static_cast<u128>(isqrt64(static_cast<Limb>(x)));
    if (s == 0)
        s = 1;
    for (int i = 0; i < 6; ++i)
        s = (s + x / s) >> 1;
    while (s * s > x)
        --s;
    while (s + 1 <= kLimbMax && (s + 1) * (s + 1) <= x)
        ++s;
    CAMP_ASSERT(s <= kLimbMax);
    return static_cast<Limb>(s);
}

/**
 * Restoring binary square root for small operands: O(bits) iterations
 * of O(n) work. Used as the recursion base where the 128-bit fast path
 * does not reach. Same contract as sqrtrem_rec.
 */
std::size_t
sqrtrem_bitwise(Limb* sp, Limb* rp, const Limb* ap, std::size_t n)
{
    const std::size_t h = (n + 1) / 2;
    std::vector<Limb> r(n + 1, 0), s(h + 1, 0), t(h + 1, 0);
    for (std::size_t i = 32 * n; i-- > 0;) {
        // r = (r << 2) | next bit pair of a.
        Limb carry = 0;
        for (std::size_t j = 0; j < n + 1; ++j) {
            const Limb v = r[j];
            r[j] = (v << 2) | carry;
            carry = v >> 62;
        }
        r[0] |= (ap[(2 * i) / 64] >> ((2 * i) % 64)) & 3;
        // t = (s << 2) | 1; s <<= 1.
        carry = 0;
        for (std::size_t j = 0; j < h + 1; ++j) {
            const Limb v = s[j];
            t[j] = (v << 2) | carry;
            carry = v >> 62;
        }
        t[0] |= 1;
        carry = 0;
        for (std::size_t j = 0; j < h + 1; ++j) {
            const Limb v = s[j];
            s[j] = (v << 1) | carry;
            carry = v >> 63;
        }
        const std::size_t rn_now = normalized_size(r.data(), n + 1);
        const std::size_t tn_now = normalized_size(t.data(), h + 1);
        if (cmp(r.data(), rn_now, t.data(), tn_now) >= 0) {
            const Limb borrow =
                sub(r.data(), r.data(), rn_now, t.data(), tn_now);
            CAMP_ASSERT(borrow == 0);
            s[0] |= 1;
        }
    }
    copy(sp, s.data(), h);
    CAMP_ASSERT(s[h] == 0);
    const std::size_t rn = normalized_size(r.data(), n + 1);
    CAMP_ASSERT(rn <= h + 1);
    copy(rp, r.data(), rn);
    return rn;
}

/**
 * Zimmermann recursion. ap (n limbs) must be "quarter normalized":
 * ap[n-1] >= B/4. Writes s (h = ceil(n/2) limbs) and the remainder
 * (r <= 2s, at most h + 1 limbs into rp); returns the remainder size.
 */
std::size_t
sqrtrem_rec(Limb* sp, Limb* rp, const Limb* ap, std::size_t n)
{
    CAMP_ASSERT(n >= 1 && ap[n - 1] >= (static_cast<Limb>(1) << 62));
    const std::size_t h = (n + 1) / 2;
    if (n <= 2) {
        const u128 a = n == 2
                           ? ((static_cast<u128>(ap[1]) << 64) | ap[0])
                           : static_cast<u128>(ap[0]);
        const Limb s = isqrt128(a);
        sp[0] = s;
        const u128 r = a - static_cast<u128>(s) * s;
        rp[0] = static_cast<Limb>(r);
        rp[1] = static_cast<Limb>(r >> 64);
        return normalized_size(rp, 2);
    }
    if (n == 3)
        return sqrtrem_bitwise(sp, rp, ap, n);

    // Split so the high part keeps at least half the limbs (nh >= 2l),
    // which Zimmermann's one-correction bound requires.
    const std::size_t l = n / 4;           // low split (a1, a0: l limbs)
    const std::size_t nh = n - 2 * l;      // high part limbs
    const std::size_t sh = h - l;          // s1 limbs = ceil(nh / 2)
    CAMP_ASSERT(l >= 1 && nh >= 2 * l && sh == (nh + 1) / 2);

    // (s1, r1) = sqrtrem(high part).
    std::vector<Limb> s1(sh), r1(sh + 2, 0);
    const std::size_t r1n =
        sqrtrem_rec(s1.data(), r1.data(), ap + 2 * l, nh);

    // (q, u) = divrem(r1 * B^l + a1, 2 * s1).
    std::vector<Limb> num(l + r1n + 1, 0);
    copy(num.data(), ap + l, l);
    copy(num.data() + l, r1.data(), r1n);
    std::vector<Limb> d(sh + 1);
    const Limb dcarry = add_n(d.data(), s1.data(), s1.data(), sh);
    d[sh] = dcarry;
    const std::size_t dn = normalized_size(d.data(), sh + 1);
    std::size_t numn = normalized_size(num.data(), num.size());
    std::vector<Limb> q(l + 2, 0), u(dn + 1, 0);
    if (numn >= dn) {
        divrem(q.data(), u.data(), num.data(), numn, d.data(), dn);
    } else {
        copy(u.data(), num.data(), numn);
    }
    std::size_t qn = normalized_size(q.data(), q.size());
    CAMP_ASSERT(qn <= l + 1);
    if (qn == l + 1) {
        // q == B^l (only possible when r1 == 2*s1 and a1 is large). The
        // true root's low part is then B^l - 1 — the estimate overshoots
        // by exactly one — so clamp q and give the division remainder
        // its unit of the divisor back (r1*B^l + a1 == q*d + u stays an
        // identity). Propagating a carry into s1 instead would overflow
        // its sh limbs when s1 is all ones (e.g. a == B^n - 1).
        CAMP_ASSERT(q[l] == 1);
        q[l] = 0;
        for (std::size_t j = 0; j < l; ++j)
            q[j] = kLimbMax;
        qn = l;
        u[dn] = add(u.data(), u.data(), dn, d.data(), dn);
    }
    const std::size_t un = normalized_size(u.data(), u.size());

    // s = s1 * B^l + q.
    copy(sp + l, s1.data(), sh);
    copy(sp, q.data(), std::min(qn, l));
    if (qn < l)
        zero(sp + qn, l - qn);

    // r = u * B^l + a0 - q^2, with one downward correction if negative.
    std::vector<Limb> rr(h + 3, 0);
    copy(rr.data(), ap, l);
    copy(rr.data() + l, u.data(), un);
    std::size_t rrn = normalized_size(rr.data(), l + un);
    std::vector<Limb> qsq(2 * (l + 1) + 1, 0);
    std::size_t qsqn = 0;
    if (qn != 0) {
        sqr(qsq.data(), q.data(), qn);
        qsqn = normalized_size(qsq.data(), 2 * qn);
    }
    if (cmp(rr.data(), rrn, qsq.data(), qsqn) >= 0) {
        const Limb borrow = sub(rr.data(), rr.data(), rrn, qsq.data(),
                                qsqn);
        CAMP_ASSERT(borrow == 0);
    } else {
        // s -= 1; r = (2s + 1) - (q^2 - rr).
        std::vector<Limb> deficit(qsqn, 0);
        Limb borrow = sub(deficit.data(), qsq.data(), qsqn, rr.data(),
                          rrn);
        CAMP_ASSERT(borrow == 0);
        const std::size_t defn = normalized_size(deficit.data(), qsqn);
        borrow = sub_1(sp, sp, h, 1);
        CAMP_ASSERT(borrow == 0);
        std::vector<Limb> twos(h + 1, 0);
        twos[h] = add_n(twos.data(), sp, sp, h);
        Limb c = add_1(twos.data(), twos.data(), h + 1, 1);
        CAMP_ASSERT(c == 0);
        const std::size_t twon = normalized_size(twos.data(), h + 1);
        CAMP_ASSERT(cmp(twos.data(), twon, deficit.data(), defn) >= 0);
        borrow = sub(twos.data(), twos.data(), twon, deficit.data(),
                     defn);
        CAMP_ASSERT(borrow == 0);
        zero(rr.data(), rr.size());
        copy(rr.data(), twos.data(), twon);
        rrn = twon;
    }
    rrn = normalized_size(rr.data(), rrn);
    CAMP_ASSERT(rrn <= h + 1);
    copy(rp, rr.data(), rrn);
    return rrn;
}

} // namespace

std::size_t
sqrtrem(Limb* sp, Limb* rp, const Limb* ap, std::size_t an)
{
    const std::size_t n = normalized_size(ap, an);
    const std::size_t h = (an + 1) / 2;
    if (n == 0) {
        zero(sp, h);
        if (rp)
            zero(rp, an);
        return 0;
    }

    // Quarter-normalize with an even bit shift so the shifted square
    // root is an exact right shift of the true one.
    const unsigned e =
        static_cast<unsigned>(64 - camp::bit_length(ap[n - 1])) & ~1u;
    std::vector<Limb> a2(n);
    if (e == 0) {
        copy(a2.data(), ap, n);
    } else {
        const Limb out = lshift(a2.data(), ap, n, e);
        CAMP_ASSERT(out == 0);
    }
    const std::size_t hn = (n + 1) / 2;
    std::vector<Limb> s2(hn), r2(hn + 2, 0);
    sqrtrem_rec(s2.data(), r2.data(), a2.data(), n);

    // Undo the shift without squaring (as GMP does). With k = e/2 and
    // c the low k bits of s2, s2 = s 2^k + c, so
    // a 2^e = s2^2 + r2 = s^2 2^e + 2 s c 2^k + c^2 + r2 gives
    // r = a - s^2 = (r2 + 2 c s2 - c^2) >> e, an exact shift.
    if (e != 0) {
        const unsigned k = e / 2;
        const Limb c = s2[0] & ((Limb{1} << k) - 1);
        Limb carry = addmul_1(r2.data(), s2.data(), hn, 2 * c);
        carry = add_1(r2.data() + hn, r2.data() + hn, 2, carry);
        CAMP_ASSERT(carry == 0);
        const Limb borrow = sub_1(r2.data(), r2.data(), hn + 2, c * c);
        CAMP_ASSERT(borrow == 0);
        const Limb out = rshift(r2.data(), r2.data(), hn + 2, e);
        CAMP_ASSERT(out == 0);
        rshift(s2.data(), s2.data(), hn, k);
    }
    const std::size_t rn = normalized_size(r2.data(), hn + 2);

    // 0 <= r <= 2s, i.e. s^2 <= a < (s + 1)^2 (r >= 0 is the borrow
    // check above).
    std::vector<Limb> twice(hn + 1);
    twice[hn] = lshift(twice.data(), s2.data(), hn, 1);
    CAMP_ASSERT(cmp(r2.data(), rn, twice.data(),
                    normalized_size(twice.data(), hn + 1)) <= 0);

    zero(sp, h);
    copy(sp, s2.data(), hn);
    if (rp) {
        zero(rp, an);
        copy(rp, r2.data(), rn);
    }
    return rn;
}

} // namespace camp::mpn

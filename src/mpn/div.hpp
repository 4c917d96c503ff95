/**
 * @file
 * Division kernels: single-limb division, schoolbook (Knuth Algorithm D),
 * and recursive Burnikel–Ziegler division — Table I's "Division:
 * Schoolbook O(n^2) / Karatsuba O(n^m log n)" operators.
 */
#ifndef CAMP_MPN_DIV_HPP
#define CAMP_MPN_DIV_HPP

#include <cstddef>

#include "mpn/limb.hpp"

namespace camp::mpn {

/**
 * qp[0..n) = ap / d, returns the remainder. qp may alias ap.
 * Requires d != 0.
 */
Limb divrem_1(Limb* qp, const Limb* ap, std::size_t n, Limb d);

/**
 * General division with remainder: a = q * d + r with 0 <= r < d.
 *
 * @param qp  quotient, an - dn + 1 limbs (may have a zero top limb)
 * @param rp  remainder, dn limbs (zero padded)
 * @param ap  dividend, an limbs
 * @param dp  divisor, dn limbs, normalized (top limb nonzero)
 *
 * Requires an >= dn >= 1; ap/dp are not modified; qp and rp must not
 * alias the inputs or each other.
 */
void divrem(Limb* qp, Limb* rp, const Limb* ap, std::size_t an,
            const Limb* dp, std::size_t dn);

/**
 * Threshold (divisor limbs, >= 2) above which Burnikel–Ziegler is used;
 * it also caps the Knuth base case of the recursion (DESIGN.md §17).
 */
struct DivTuning
{
    std::size_t bz = 48;
};

/** Active division thresholds. */
DivTuning& div_tuning();

} // namespace camp::mpn

#endif // CAMP_MPN_DIV_HPP

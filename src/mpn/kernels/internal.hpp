/**
 * @file
 * Cross-TU declarations for the kernel tiers: the scalar reference
 * kernels (used directly by the scalar table and as tails / fallback
 * slots by the SIMD tiers) and the per-ISA kernel sets. Nothing here
 * is public API — include mpn/kernels/kernels.hpp instead.
 */
#ifndef CAMP_MPN_KERNELS_INTERNAL_HPP
#define CAMP_MPN_KERNELS_INTERNAL_HPP

#include "mpn/kernels/kernels.hpp"

// The tier translation units are compiled with per-file target flags
// (-mavx2 / -mbmi2 -madx) on x86-64 only; everywhere else they compile to
// empty tables and dispatch stays scalar.
#if defined(__x86_64__) || defined(_M_X64)
#define CAMP_KERNELS_X86 1
#else
#define CAMP_KERNELS_X86 0
#endif

namespace camp::mpn::kernels {

Limb scalar_mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb scalar_addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb scalar_submul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb scalar_add_n(Limb* rp, const Limb* ap, const Limb* bp,
                  std::size_t n);
Limb scalar_sub_n(Limb* rp, const Limb* ap, const Limb* bp,
                  std::size_t n);
void scalar_mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                         const Limb* bp, std::size_t bn);

#if CAMP_KERNELS_X86
Limb avx2_add_n(Limb* rp, const Limb* ap, const Limb* bp,
                std::size_t n);
Limb avx2_sub_n(Limb* rp, const Limb* ap, const Limb* bp,
                std::size_t n);
void avx2_soa_vertical(std::uint64_t* acc_lo, std::uint64_t* acc_hi,
                       const std::uint64_t* da, std::size_t nda,
                       const std::uint64_t* db, std::size_t ndb);

Limb mulx_mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb mulx_addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb mulx_submul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
void mulx_mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                       const Limb* bp, std::size_t bn);
#endif

} // namespace camp::mpn::kernels

#endif // CAMP_MPN_KERNELS_INTERNAL_HPP

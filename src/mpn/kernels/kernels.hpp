/**
 * @file
 * Runtime-dispatched limb kernels (ROADMAP item 4): the inner
 * primitives of the mpn layer — mul_1 / addmul_1 / submul_1 / add_n /
 * sub_n and the schoolbook basecase — behind a cpuid-probed dispatch
 * table with the scalar code as mandatory fallback.
 *
 * Tiers
 *  - scalar: the portable reference loops (always present, always the
 *    correctness oracle for the differential tests);
 *  - avx2:   256-bit carry-select add_n/sub_n and the SoA batch
 *            kernel; the multiply slots stay scalar;
 *  - mulx:   the avx2 set plus mulx/adcx/adox multiply chains for
 *            mul_1/addmul_1/submul_1 and the basecase (needs AVX2,
 *            BMI2 and ADX).
 *
 * Selection: the first call to active() probes the host CPU and picks
 * the best supported tier; `CAMP_SIMD={auto,mulx,avx2,scalar}`
 * overrides (an unsupported explicit request logs a notice to stderr
 * and falls back to scalar, so a pinned CI leg never silently runs a
 * different tier than it printed).
 *
 * The Limb API is unchanged and every tier returns bit-identical
 * results (a hard invariant, fuzzed by tests/test_simd_kernels.cpp).
 */
#ifndef CAMP_MPN_KERNELS_KERNELS_HPP
#define CAMP_MPN_KERNELS_KERNELS_HPP

#include <cstddef>

#include "mpn/limb.hpp"

namespace camp::mpn::kernels {

/** Kernel tiers, ordered by preference. The values are the
 * "mpn.simd.tier" gauge (1 was the retired SSE4 tier). */
enum class Tier : int
{
    Scalar = 0,
    Avx2 = 2,
    Mulx = 3,
};

/** "scalar", "avx2", "mulx". */
const char* tier_name(Tier tier);

/**
 * One tier's kernel set. Function contracts match the mpn entry
 * points exactly (including documented in-place/aliasing support);
 * a tier whose vectorized variant of some primitive does not pay for
 * itself on real hosts may point that slot at the scalar kernel —
 * the table is "vectorize where it wins", not "vectorize everything".
 */
struct KernelTable
{
    Tier tier = Tier::Scalar;
    const char* name = "scalar";

    Limb (*mul_1)(Limb*, const Limb*, std::size_t, Limb) = nullptr;
    Limb (*addmul_1)(Limb*, const Limb*, std::size_t, Limb) = nullptr;
    Limb (*submul_1)(Limb*, const Limb*, std::size_t, Limb) = nullptr;
    Limb (*add_n)(Limb*, const Limb*, const Limb*,
                  std::size_t) = nullptr;
    Limb (*sub_n)(Limb*, const Limb*, const Limb*,
                  std::size_t) = nullptr;
    void (*mul_basecase)(Limb*, const Limb*, std::size_t, const Limb*,
                         std::size_t) = nullptr;

    /**
     * Vertical struct-of-arrays basecase across @p soa_width
     * independent products (0 = tier has no SoA kernel). Digit-major
     * layout: dig[k * soa_width + lane] holds lane `lane`'s radix-2^32
     * digit k in the low half of a 64-bit word. accLo/accHi are the
     * carry-save column accumulators, (nda + ndb) columns each,
     * zero-initialized by the caller; column k of the exact product
     * is accLo[k] + accHi[k - 1] plus the ripple carry (resolved by
     * kernels::soa_mul_batch).
     */
    std::size_t soa_width = 0;
    void (*soa_vertical)(std::uint64_t* acc_lo, std::uint64_t* acc_hi,
                         const std::uint64_t* da, std::size_t nda,
                         const std::uint64_t* db,
                         std::size_t ndb) = nullptr;
};

/** The scalar reference table (always available). */
const KernelTable& scalar_table();

/** Tier tables; nullptr when the build lacks the ISA (non-x86). */
const KernelTable* avx2_table();
const KernelTable* mulx_table();

/** True when the running host can execute @p tier. */
bool host_supports(Tier tier);

/** @p tier's table when built in and host-supported, else nullptr
 * (Scalar always resolves). */
const KernelTable* table_for(Tier tier);

/** The dispatched table: probed once (cpuid + CAMP_SIMD override) on
 * first use; hot-path cost afterwards is one relaxed atomic load. */
const KernelTable& active();

/** Tier of active(). */
Tier active_tier();

/**
 * Force the active table (testing/bench only: lets one process
 * compare tiers differentially without re-execing under different
 * CAMP_SIMD). Requires host support (returns false and leaves the
 * table unchanged otherwise). Not thread-safe against concurrent
 * kernel calls — switch tiers only from single-threaded phases.
 */
bool set_active_tier(Tier tier);

} // namespace camp::mpn::kernels

#endif // CAMP_MPN_KERNELS_KERNELS_HPP

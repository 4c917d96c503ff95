/**
 * @file
 * MULX/ADX tier: the scalar limb carry chain done the way the ISA
 * intends. `mulx` multiplies without touching the flags, and
 * `adcx`/`adox` add through CF and OF respectively, so one loop can
 * run two independent carry chains at once:
 *
 *  - addmul_1: CF carries the product stream (lo[i] + hi[i-1]), OF
 *    carries the accumulation into rp[i];
 *  - submul_1: CF carries the product stream m[i], OF carries the
 *    subtraction, computed as ~(r - m - borrow) = ~r + m + borrow so
 *    that it is an add-with-carry too (the carry out of the sum is
 *    exactly the borrow out of the difference);
 *  - mul_1: the product stream alone, on CF.
 *
 * Each loop runs n % 4 single steps, then n / 4 steps unrolled 4x,
 * all inside one asm block so the two chains stay live in the flags:
 * the counter lives in rcx, stepped with `lea` and tested with
 * `jrcxz`, an add and a branch that leave CF and OF alone.
 * The schoolbook basecase is one mul_1 row and bn - 1 addmul_1 rows
 * with the asm inlined. A two-row addmul_2 was not built: one column
 * of it sums four carried terms, and with only CF and OF to carry
 * them the second pair needs adc/setc bookkeeping that the one-row
 * form avoids. add_n/sub_n and the SoA kernel are the AVX2 bodies:
 * every host this tier runs on has AVX2.
 *
 * Results are bit-identical to the scalar tier (exact integer
 * arithmetic); tests/test_simd_kernels.cpp fuzzes that invariant.
 */
#include "mpn/kernels/internal.hpp"

#if CAMP_KERNELS_X86 && defined(__BMI2__) && defined(__ADX__)

#include "support/assert.hpp"

namespace camp::mpn::kernels {

namespace {

// One limb step of each loop, as asm text: rp[off] (op)= ap[off] * b,
// taking the previous high limb from %[hin] and leaving this one in
// %[hout]. b lives in rdx, the implicit mulx source.
#define CAMP_MUL_STEP(off, hin, hout)                                  \
    "mulx " off "(%[ap]), %[lo], %[" hout "]\n\t"                     \
    "adcx %[" hin "], %[lo]\n\t"                                      \
    "mov %[lo], " off "(%[rp])\n\t"
#define CAMP_ADDMUL_STEP(off, hin, hout)                               \
    "mulx " off "(%[ap]), %[lo], %[" hout "]\n\t"                     \
    "adcx %[" hin "], %[lo]\n\t"                                      \
    "adox " off "(%[rp]), %[lo]\n\t"                                  \
    "mov %[lo], " off "(%[rp])\n\t"
#define CAMP_SUBMUL_STEP(off, hin, hout)                               \
    "mulx " off "(%[ap]), %[lo], %[" hout "]\n\t"                     \
    "adcx %[" hin "], %[lo]\n\t"                                      \
    "mov " off "(%[rp]), %[r]\n\t"                                    \
    "not %[r]\n\t"                                                    \
    "adox %[lo], %[r]\n\t"                                            \
    "not %[r]\n\t"                                                    \
    "mov %[r], " off "(%[rp])\n\t"

// The loop skeleton around a step: n % 4 single steps, then n / 4
// blocks of four, then CF and OF folded into the returned high limb.
#define CAMP_CHAIN_LOOP(STEP)                                          \
    "xor %k[lo], %k[lo]\n\t" /* CF = OF = 0 */                        \
    "jrcxz 2f\n"                                                       \
    "1:\n\t" STEP("0", "hi", "h0") "mov %[h0], %[hi]\n\t"             \
    "lea 8(%[ap]), %[ap]\n\t"                                         \
    "lea 8(%[rp]), %[rp]\n\t"                                         \
    "lea -1(%%rcx), %%rcx\n\t"                                        \
    "jrcxz 2f\n\t"                                                    \
    "jmp 1b\n"                                                         \
    "2:\n\t"                                                          \
    "mov %[blocks], %%rcx\n\t"                                        \
    "jmp 5f\n"                                                         \
    "3:\n\t" STEP("0", "hi", "h0") STEP("8", "h0", "hi")               \
        STEP("16", "hi", "h0") STEP("24", "h0", "hi")                  \
    "lea 32(%[ap]), %[ap]\n\t"                                        \
    "lea 32(%[rp]), %[rp]\n\t"                                        \
    "lea -1(%%rcx), %%rcx\n"                                          \
    "5:\n\t"                                                          \
    "jrcxz 4f\n\t"                                                    \
    "jmp 3b\n"                                                         \
    "4:\n\t"                                                          \
    "mov $0, %k[lo]\n\t"                                              \
    "adcx %[lo], %[hi]\n\t"                                           \
    "adox %[lo], %[hi]\n\t"

inline Limb
chain_mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    Limb lo, h0, hi = 0;
    std::size_t rem = n & 3;
    asm volatile(CAMP_CHAIN_LOOP(CAMP_MUL_STEP)
                 : [lo] "=&r"(lo), [h0] "=&r"(h0), [hi] "+&r"(hi),
                   [ap] "+&r"(ap), [rp] "+&r"(rp), "+&c"(rem)
                 : [blocks] "rm"(n >> 2), "d"(b)
                 : "cc", "memory");
    return hi;
}

inline Limb
chain_addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    Limb lo, h0, hi = 0;
    std::size_t rem = n & 3;
    asm volatile(CAMP_CHAIN_LOOP(CAMP_ADDMUL_STEP)
                 : [lo] "=&r"(lo), [h0] "=&r"(h0), [hi] "+&r"(hi),
                   [ap] "+&r"(ap), [rp] "+&r"(rp), "+&c"(rem)
                 : [blocks] "rm"(n >> 2), "d"(b)
                 : "cc", "memory");
    return hi;
}

} // namespace

Limb
mulx_mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    return chain_mul_1(rp, ap, n, b);
}

Limb
mulx_addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    return chain_addmul_1(rp, ap, n, b);
}

Limb
mulx_submul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    Limb lo, h0, r, hi = 0;
    std::size_t rem = n & 3;
    asm volatile(CAMP_CHAIN_LOOP(CAMP_SUBMUL_STEP)
                 : [lo] "=&r"(lo), [h0] "=&r"(h0), [r] "=&r"(r),
                   [hi] "+&r"(hi), [ap] "+&r"(ap), [rp] "+&r"(rp),
                   "+&c"(rem)
                 : [blocks] "rm"(n >> 2), "d"(b)
                 : "cc", "memory");
    return hi;
}

void
mulx_mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                  const Limb* bp, std::size_t bn)
{
    CAMP_ASSERT(an >= bn && bn >= 1);
    rp[an] = chain_mul_1(rp, ap, an, bp[0]);
    for (std::size_t j = 1; j < bn; ++j)
        rp[an + j] = chain_addmul_1(rp + j, ap, an, bp[j]);
}

const KernelTable*
mulx_table()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.tier = Tier::Mulx;
        t.name = "mulx";
        t.mul_1 = mulx_mul_1;
        t.addmul_1 = mulx_addmul_1;
        t.submul_1 = mulx_submul_1;
        t.add_n = avx2_add_n;
        t.sub_n = avx2_sub_n;
        t.mul_basecase = mulx_mul_basecase;
        t.soa_width = 4;
        t.soa_vertical = avx2_soa_vertical;
        return t;
    }();
    return &table;
}

} // namespace camp::mpn::kernels

#else // !(CAMP_KERNELS_X86 && __BMI2__ && __ADX__)

namespace camp::mpn::kernels {

const KernelTable*
mulx_table()
{
    return nullptr;
}

} // namespace camp::mpn::kernels

#endif

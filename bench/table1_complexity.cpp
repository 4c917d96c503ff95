/**
 * @file
 * Table I reproduction: empirical complexity exponents of the
 * low-level operators. Each algorithm is timed across a size sweep and
 * the exponent recovered by log-log regression, next to the paper's
 * theoretical figure.
 */
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "mpn/sqrt.hpp"
#include "support/regression.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using camp::Table;
using camp::mpn::Limb;
using camp::mpn::Natural;

namespace {

struct AlgoSpec
{
    std::string name;
    std::string theory;
    std::vector<std::size_t> sizes; ///< limbs
    std::function<void(const std::vector<Limb>&, const std::vector<Limb>&,
                       std::vector<Limb>&)>
        run;
};

} // namespace

int
main()
{
    namespace mpn = camp::mpn;
    camp::Rng rng(1);

    std::vector<AlgoSpec> algos;
    algos.push_back(
        {"Addition", "O(n), k=1.00", {512, 1024, 2048, 4096, 8192, 16384},
         [](const auto& a, const auto& b, auto& r) {
             mpn::add_n(r.data(), a.data(), b.data(), a.size());
         }});
    algos.push_back(
        {"Subtraction", "O(n), k=1.00",
         {512, 1024, 2048, 4096, 8192, 16384},
         [](const auto& a, const auto& b, auto& r) {
             mpn::sub_n(r.data(), a.data(), b.data(), a.size());
         }});
    algos.push_back(
        {"Comparison", "O(n), k=1.00",
         {512, 1024, 2048, 4096, 8192, 16384},
         [](const auto& a, const auto& b, auto& r) {
             // Force a full scan: compare a with itself.
             r[0] = static_cast<Limb>(
                 mpn::cmp_n(a.data(), a.data(), a.size()) + 1 +
                 static_cast<int>(b[0] & 0));
         }});
    algos.push_back(
        {"Mul schoolbook", "O(n^2), k=2.00", {32, 64, 128, 256, 512},
         [](const auto& a, const auto& b, auto& r) {
             mpn::mul_basecase(r.data(), a.data(), a.size(), b.data(),
                               b.size());
         }});
    algos.push_back(
        {"Mul Karatsuba", "O(n^1.585)", {256, 512, 1024, 2048, 4096},
         [](const auto& a, const auto& b, auto& r) {
             mpn::mul_karatsuba(r.data(), a.data(), a.size(), b.data(),
                                b.size());
         }});
    algos.push_back(
        {"Mul Toom-3", "O(n^1.465)", {512, 1024, 2048, 4096, 8192},
         [](const auto& a, const auto& b, auto& r) {
             mpn::mul_toom(r.data(), a.data(), a.size(), b.data(),
                           b.size(), 3);
         }});
    algos.push_back(
        {"Mul Toom-4", "O(n^1.404)", {1024, 2048, 4096, 8192, 16384},
         [](const auto& a, const auto& b, auto& r) {
             mpn::mul_toom(r.data(), a.data(), a.size(), b.data(),
                           b.size(), 4);
         }});
    algos.push_back(
        {"Mul Toom-6", "O(n^1.338)", {2048, 4096, 8192, 16384, 32768},
         [](const auto& a, const auto& b, auto& r) {
             mpn::mul_toom(r.data(), a.data(), a.size(), b.data(),
                           b.size(), 6);
         }});
    algos.push_back(
        {"Mul SSA", "O(n log n loglog n)",
         {4096, 8192, 16384, 32768, 65536},
         [](const auto& a, const auto& b, auto& r) {
             mpn::mul_ssa(r.data(), a.data(), a.size(), b.data(),
                          b.size());
         }});
    algos.push_back(
        {"Div Burnikel-Ziegler", "O(n^~1.6)",
         // Powers of two next to 2 * odd sizes, whose halving ends on
         // a large odd number (770 = 2 * 385 ... 9622 = 2 * 4811).
         {512, 770, 1024, 1538, 2048, 3074, 4096, 6146, 8192, 9622},
         [](const auto& a, const auto& b, auto& r) {
             // Divide a 2n-limb value (a concatenated twice) by b.
             std::vector<Limb> wide(a.size() * 2);
             mpn::copy(wide.data(), a.data(), a.size());
             mpn::copy(wide.data() + a.size(), a.data(), a.size());
             std::vector<Limb> q(a.size() + 1), rem(b.size());
             mpn::divrem(q.data(), rem.data(), wide.data(), wide.size(),
                         b.data(), b.size());
             r[0] = q[0];
         }});
    algos.push_back(
        {"Sqrt (Zimmermann)", "~cost of mul",
         {512, 1024, 2048, 4096, 8192},
         [](const auto& a, const auto& b, auto& r) {
             std::vector<Limb> s((a.size() + 1) / 2);
             mpn::sqrtrem(s.data(), nullptr, a.data(), a.size());
             r[0] = s[0] + b[0] * 0;
         }});

    camp::bench::section(
        "Table I: measured complexity exponents of low-level operators");
    Table table({"operator", "theory", "measured exponent k", "R^2",
                 "largest size (limbs)", "time there (s)"});
    for (const auto& algo : algos) {
        std::vector<double> ns, ts;
        double last_t = 0;
        for (const std::size_t limbs : algo.sizes) {
            std::vector<Limb> a(limbs), b(limbs), r(2 * limbs + 2);
            for (auto& limb : a)
                limb = rng.next();
            for (auto& limb : b)
                limb = rng.next();
            if (b.back() == 0)
                b.back() = 1;
            const double t = camp::bench::time_call(
                [&] { algo.run(a, b, r); }, 0.02);
            ns.push_back(static_cast<double>(limbs));
            ts.push_back(t);
            last_t = t;
        }
        const camp::LinearFit fit = camp::power_law_fit(ns, ts);
        table.add_row({algo.name, algo.theory, Table::fmt(fit.slope, 3),
                       Table::fmt(fit.r2, 3),
                       std::to_string(algo.sizes.back()),
                       Table::fmt(last_t)});
    }
    table.print();
    std::printf("\nnote: small-size constant overheads bias linear ops "
                "upward slightly; multiplication exponents should track "
                "the theory column.\n");
    return 0;
}

/**
 * @file
 * pi_digits: the paper's Pi application, apps::pi::compute_pi on the
 * host at about 10^5 digits. All of the work is large-operand mpn
 * arithmetic (Toom/SSA multiply, division, isqrt, radix conversion);
 * the serving, exec and sim layers do none of it.
 *
 * The size is a trade. At 5*10^5 digits one division dominates, but a
 * call's working set spills into the cache the host shares with other
 * tenants: same-seed runs there took 1.2 s or 3.5 s depending on the
 * neighbours. At 10^5 digits division still takes over half of a
 * call, a call takes ~0.2 s, and a run's median over a hundred calls
 * leaves only the host's slow shifts in core speed (up to ~1.5x for
 * minutes at a time), which nothing inside one run can remove.
 *
 * Every call starts with an empty global operand cache, so each call
 * pays for its reciprocal the way a user computing pi once does.
 */
#include <string>
#include <vector>

#include "apps/pi/chudnovsky.hpp"
#include "mpn/ophook.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "support/opcache.hpp"

namespace perfbench {

namespace pi = camp::apps::pi;

namespace {

/** Every call checks the first kPinnedDigits digits against the digest
 * below. It was recorded from compute_pi(100000), confirmed equal to
 * the same prefix of compute_pi(100977), and matches an independent
 * arbitrary-precision evaluation of pi. */
constexpr std::uint64_t kPinnedDigits = 100000;
constexpr std::uint64_t kPinnedDigest = 0xb3271f83430fb23aull;

/** The first 100 digits (tests/test_apps.cpp carries the same). */
constexpr const char* kPi100 =
    "3.1415926535897932384626433832795028841971693993751058209749445923"
    "078164062862089986280348253421170679";

const char* const kCounters[] = {
    "arena.alloc.count",       "mpn.alloc.count",
    "mpn.mul.algo.schoolbook", "mpn.mul.algo.karatsuba",
    "mpn.mul.algo.toom3",      "mpn.mul.algo.toom4",
    "mpn.mul.algo.toom6",      "mpn.mul.algo.ssa",
};
constexpr std::size_t kNumCounters = std::size(kCounters);
/** Counters from here on are exact: equal on every call. */
constexpr std::size_t kFirstExact = 1;

std::vector<std::uint64_t>
read_counters()
{
    std::vector<std::uint64_t> values;
    for (const char* name : kCounters)
        values.push_back(counter_value(name));
    return values;
}

std::uint64_t
prefix_digest(const std::string& digits)
{
    return fnv1a(kFnvBasis, digits.substr(0, kPinnedDigits + 2));
}

struct CallOut
{
    double solve_s = 0.0;
    double split_s = 0.0;    ///< traced calls only
    double finalize_s = 0.0; ///< traced calls only
    std::string error;
    std::uint64_t digest = 0; ///< of the whole string
    std::vector<double> counters;
};

CallOut
solve(std::uint64_t digits, ExclusiveOpTimer* hook)
{
    CallOut out;
    camp::support::OpCache::global().clear();
    const std::vector<std::uint64_t> before = read_counters();
    std::string text;
    if (hook == nullptr) {
        const std::uint64_t begin = now_ns();
        text = pi::compute_pi(digits);
        out.solve_s = static_cast<double>(now_ns() - begin) * 1e-9;
    } else {
        // compute_pi is exactly these two public halves.
        camp::mpn::add_op_hook(hook);
        const std::uint64_t begin = now_ns();
        const pi::SplitTriple split =
            pi::binary_split(0, pi::terms_for_digits(digits));
        const std::uint64_t mid = now_ns();
        text = pi::finalize_pi(digits, split);
        const std::uint64_t end = now_ns();
        camp::mpn::remove_op_hook(hook);
        out.split_s = static_cast<double>(mid - begin) * 1e-9;
        out.finalize_s = static_cast<double>(end - mid) * 1e-9;
        out.solve_s = static_cast<double>(end - begin) * 1e-9;
    }
    const std::vector<std::uint64_t> after = read_counters();
    for (std::size_t i = 0; i < kNumCounters; ++i)
        out.counters.push_back(static_cast<double>(after[i] - before[i]));

    if (text.size() != digits + 2)
        out.error = "pi string has the wrong length";
    else if (text.compare(0, 102, kPi100) != 0)
        out.error = "first 100 digits differ from the reference";
    else if (prefix_digest(text) != kPinnedDigest)
        out.error = "digest of the first " +
                    std::to_string(kPinnedDigits) + " digits is " +
                    hex64(prefix_digest(text)) + ", pinned " +
                    hex64(kPinnedDigest);
    out.digest = fnv1a(kFnvBasis, text);
    return out;
}

} // namespace

Result
run_pi(const Options& options)
{
    Result result;
    // The seed moves the size by under 0.2%; the pinned prefix check
    // covers every size.
    const std::uint64_t digits = kPinnedDigits + options.seed % 1000;
    result.digests.push_back(
        {"operands", hex64(fnv1a(kFnvBasis, digits))});

    // ---- set-up: first touch of the pool, arena and kernel tables, a
    // small solve, and the process-lifetime 10^(2^k) table of radix
    // conversion filled to this size (only the first call would pay
    // for it otherwise, and its algorithm counts would differ). Timed
    // once up front and again before every call, so the samples spread
    // over the run like the serving workloads' per-mix set-ups.
    auto set_up = [&] {
        camp::support::OpCache::global().clear();
        const std::uint64_t begin = now_ns();
        const std::string warm = pi::compute_pi(20000);
        const camp::mpn::Natural scale =
            camp::mpn::Natural::pow10(digits + 10);
        const double seconds = static_cast<double>(now_ns() - begin) * 1e-9;
        if (scale.bits() == 0)
            result.fail("pow10 returned zero");
        if (warm.compare(0, 102, kPi100) != 0)
            result.fail("warm-up digits differ from the reference");
        return seconds;
    };
    std::vector<double> setup_s{set_up()};

    std::vector<CallOut> plain;
    std::vector<CallOut> traced;
    ExclusiveOpTimer hook;
    const std::uint64_t start = now_ns();
    auto elapsed = [start] {
        return static_cast<double>(now_ns() - start) * 1e-9;
    };
    const double plain_budget =
        options.trace ? options.seconds / 2 : options.seconds;
    const std::size_t min_calls = options.trace ? 2 : 3;
    while (plain.size() < min_calls || elapsed() < plain_budget) {
        setup_s.push_back(set_up());
        plain.push_back(solve(digits, nullptr));
    }
    if (options.trace)
        while (traced.size() < min_calls || elapsed() < options.seconds) {
            set_up();
            traced.push_back(solve(digits, &hook));
        }

    for (const std::vector<CallOut>* set : {&plain, &traced}) {
        for (const CallOut& c : *set) {
            if (!c.error.empty())
                result.fail(c.error);
            if (c.digest != plain.front().digest)
                result.fail("pi digits differ between calls");
            for (std::size_t i = kFirstExact; i < kNumCounters; ++i)
                if (c.counters[i] != plain.front().counters[i])
                    result.fail(std::string(kCounters[i]) +
                                " differs between calls");
        }
    }
    std::vector<double> solve_s;
    for (const CallOut& c : plain)
        solve_s.push_back(c.solve_s);
    result.attempted = plain.size();
    result.digests.push_back({"outcomes", hex64(plain.front().digest)});

    // A call is one trial holding one request, so both latency
    // percentiles of a trial are its solve time; as for the serving
    // workloads, the run reports the median over trials.
    const double solve = median(solve_s);
    result.set("setup_s", median(setup_s), "s");
    result.set("throughput_rps", 1.0 / solve, "1/s");
    result.set("latency_p50_us", solve * 1e6, "us");
    result.set("latency_p99_us", solve * 1e6, "us");
    result.set("solve_s", solve, "s");
    result.set("latency.samples", static_cast<double>(solve_s.size()),
               "count");
    for (std::size_t i = kFirstExact; i < kNumCounters; ++i)
        result.set(kCounters[i], plain.front().counters[i], "count");

    if (options.trace) {
        std::vector<double> split;
        std::vector<double> finalize;
        std::vector<double> total;
        std::vector<std::vector<double>> counters(kFirstExact);
        for (const CallOut& c : traced) {
            split.push_back(c.split_s);
            finalize.push_back(c.finalize_s);
            total.push_back(c.solve_s);
            for (std::size_t i = 0; i < kFirstExact; ++i)
                counters[i].push_back(c.counters[i]);
        }
        // The hook accumulates over every traced call; report per call.
        const double calls = static_cast<double>(traced.size());
        result.set("apps.pi.split_s", median(split), "s");
        result.set("apps.pi.finalize_s", median(finalize), "s");
        result.set("mpn.mul.self_s", hook.seconds(OpBucket::Mul) / calls,
                   "s");
        result.set("mpn.sqr.self_s", hook.seconds(OpBucket::Sqr) / calls,
                   "s");
        result.set("mpn.div.self_s", hook.seconds(OpBucket::Div) / calls,
                   "s");
        result.set("mpn.sqrt.self_s",
                   hook.seconds(OpBucket::Sqrt) / calls, "s");
        result.set("mpn.add.self_s", hook.seconds(OpBucket::Add) / calls,
                   "s");
        result.set("mpn.shift.self_s",
                   hook.seconds(OpBucket::Shift) / calls, "s");
        result.set("mpn.other.self_s",
                   hook.seconds(OpBucket::Other) / calls, "s");
        result.set("mpn.div.calls",
                   static_cast<double>(hook.div_calls()) / calls, "count");
        result.set("arena.alloc.count", median(counters[0]), "count");
        result.set("trace.overhead_pct",
                   100.0 * (median(total) / solve - 1.0), "%");
    }
    return result;
}

} // namespace perfbench

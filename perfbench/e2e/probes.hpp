/**
 * @file
 * Outside-in measurement probes for the end-to-end benchmark. Every
 * per-layer number is taken by timing calls into a layer's public
 * functions from benchmark-owned code: a forwarding exec::Device
 * decorator (CallLog + TimedDevice) placed at a layer boundary, and an
 * mpn::OpHook (ExclusiveOpTimer) for the kernel tier. Nothing here
 * reaches into the program's internals.
 */
#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/device.hpp"
#include "mpn/natural.hpp"
#include "mpn/ophook.hpp"

namespace perfbench {

inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Half-open wall interval [begin, end) in steady-clock ns. */
struct Interval
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/** Sorted, disjoint cover of @p intervals. */
std::vector<Interval> merge_intervals(std::vector<Interval> intervals);

/** Total length of a merged cover. */
std::uint64_t covered_ns(const std::vector<Interval>& merged);

/** Length of the intersection of two merged covers. */
std::uint64_t overlap_ns(const std::vector<Interval>& a,
                         const std::vector<Interval>& b);

/** Totals of the work one boundary's calls carried. The simulated
 * fields come from the returned BatchResult accounting (zero for host
 * devices). */
struct CallTotals
{
    std::uint64_t products = 0;
    std::uint64_t summed_ns = 0; ///< overlapping calls count twice
    std::uint64_t sim_cycles = 0;
    std::uint64_t sim_tasks = 0;
    std::uint64_t sim_stall_cycles = 0;
};

/** Thread-safe record of one boundary's calls: their intervals and
 * the work they carried. */
class CallLog
{
  public:
    void add(std::uint64_t begin, std::uint64_t end,
             std::uint64_t products,
             const camp::sim::BatchResult* result);

    std::vector<Interval> intervals() const;
    CallTotals totals() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Interval> intervals_;
    CallTotals totals_;
};

/**
 * Forwarding Device decorator that times every execution entry point
 * into a CallLog. It overrides every virtual of exec::Device: one it
 * forgot would silently reroute waves through the base class's copying
 * default path, which the outcome and path digests catch.
 */
class TimedDevice final : public camp::exec::Device
{
  public:
    TimedDevice(std::unique_ptr<camp::exec::Device> inner, CallLog& log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    const char* name() const override { return inner_->name(); }
    camp::exec::DeviceKind kind() const override
    {
        return inner_->kind();
    }
    std::uint64_t base_cap_bits() const override
    {
        return inner_->base_cap_bits();
    }
    const camp::mpn::MulTuning& tuning() const override
    {
        return inner_->tuning();
    }
    void set_tuning(const camp::mpn::MulTuning& tuning) override
    {
        inner_->set_tuning(tuning);
    }
    camp::exec::CostEstimate cost(std::uint64_t bits_a,
                                  std::uint64_t bits_b) const override
    {
        return inner_->cost(bits_a, bits_b);
    }

    camp::exec::MulOutcome mul(const camp::mpn::Natural& a,
                               const camp::mpn::Natural& b) override;

    camp::sim::BatchResult
    mul_batch(const std::vector<std::pair<camp::mpn::Natural,
                                          camp::mpn::Natural>>& pairs,
              unsigned parallelism = 0) override;

    camp::sim::BatchResult mul_batch_indexed(
        const std::vector<std::pair<camp::mpn::Natural,
                                    camp::mpn::Natural>>& pairs,
        const std::vector<std::uint64_t>& indices,
        unsigned parallelism = 0) override;

    camp::sim::BatchResult
    mul_batch_wave(camp::exec::WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) override;

  private:
    std::unique_ptr<camp::exec::Device> inner_;
    CallLog& log_;
};

/**
 * Registry name of the timed `sim` backend: a SimDevice behind a
 * TimedDevice whose CallLog is taken from shard_logs(). Registered on
 * first call; the sharded scheduler instantiates it per shard.
 */
const char* timed_sim_backend();

/** Logs of the timed sim devices built since the last reset, in
 * construction order (= shard ordinal for one scheduler). */
std::vector<CallLog*> shard_logs();
/** Forget the logs; call only while no timed sim device is alive. */
void reset_shard_logs();

/** Kernel-tier buckets of ExclusiveOpTimer. */
enum class OpBucket : unsigned
{
    Mul,
    Sqr,
    Div,
    Sqrt,
    Add, ///< Add and Sub
    Shift,
    Other, ///< Gcd and Other
    Count
};

/**
 * mpn::OpHook giving exclusive wall time per operator kind: each
 * thread attributes the slice between two hook events to its innermost
 * open operation, so nested operations (a multiply inside a division)
 * are charged to the inner one only. Also counts divisions.
 */
class ExclusiveOpTimer final : public camp::mpn::OpHook
{
  public:
    void on_enter(camp::mpn::OpKind kind, std::uint64_t bits_a,
                  std::uint64_t bits_b) override;
    void on_exit(camp::mpn::OpKind kind) override;

    double seconds(OpBucket bucket) const;
    std::uint64_t div_calls() const
    {
        return div_calls_.load(std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>,
               static_cast<unsigned>(OpBucket::Count)>
        ns_{};
    std::atomic<std::uint64_t> div_calls_{0};
};

/** FNV-1a over 64-bit words, chained through @p state. */
inline std::uint64_t
fnv1a(std::uint64_t state, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        state ^= (word >> (8 * i)) & 0xff;
        state *= 1099511628211ull;
    }
    return state;
}

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

inline std::uint64_t
fnv1a(std::uint64_t state, const camp::mpn::Natural& n)
{
    state = fnv1a(state, n.size());
    for (camp::mpn::Limb limb : n.limbs())
        state = fnv1a(state, limb);
    return state;
}

std::uint64_t fnv1a(std::uint64_t state, const std::string& s);

std::string hex64(std::uint64_t v);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p in (0, 100] (0 when empty). */
double percentile(std::vector<double> values, double p);

/** Peak resident set size of this process, in MB. */
double peak_rss_mb();

/** Value of a registry counter (0 when never registered). */
std::uint64_t counter_value(const std::string& name);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP

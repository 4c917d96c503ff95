#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "exec/registry.hpp"
#include "exec/sim_device.hpp"
#include "support/metrics.hpp"

namespace perfbench {

std::vector<Interval>
merge_intervals(std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
              });
    std::vector<Interval> merged;
    for (const Interval& iv : intervals) {
        if (iv.end <= iv.begin)
            continue;
        if (!merged.empty() && iv.begin <= merged.back().end)
            merged.back().end = std::max(merged.back().end, iv.end);
        else
            merged.push_back(iv);
    }
    return merged;
}

std::uint64_t
covered_ns(const std::vector<Interval>& merged)
{
    std::uint64_t total = 0;
    for (const Interval& iv : merged)
        total += iv.end - iv.begin;
    return total;
}

std::uint64_t
overlap_ns(const std::vector<Interval>& a, const std::vector<Interval>& b)
{
    std::uint64_t total = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const std::uint64_t lo = std::max(a[i].begin, b[j].begin);
        const std::uint64_t hi = std::min(a[i].end, b[j].end);
        if (lo < hi)
            total += hi - lo;
        if (a[i].end < b[j].end)
            ++i;
        else
            ++j;
    }
    return total;
}

void
CallLog::add(std::uint64_t begin, std::uint64_t end,
             std::uint64_t products, const camp::sim::BatchResult* result)
{
    std::uint64_t stalls = 0;
    if (result != nullptr)
        for (const camp::sim::BatchProductStats& p : result->per_product)
            stalls += p.stall_cycles;
    std::lock_guard<std::mutex> lock(mutex_);
    intervals_.push_back({begin, end});
    totals_.products += products;
    totals_.summed_ns += end - begin;
    if (result != nullptr) {
        totals_.sim_cycles += result->cycles;
        totals_.sim_tasks += result->tasks;
        totals_.sim_stall_cycles += stalls;
    }
}

std::vector<Interval>
CallLog::intervals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return intervals_;
}

CallTotals
CallLog::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
}

camp::exec::MulOutcome
TimedDevice::mul(const camp::mpn::Natural& a, const camp::mpn::Natural& b)
{
    const std::uint64_t begin = now_ns();
    camp::exec::MulOutcome out = inner_->mul(a, b);
    log_.add(begin, now_ns(), 1, nullptr);
    return out;
}

camp::sim::BatchResult
TimedDevice::mul_batch(
    const std::vector<std::pair<camp::mpn::Natural, camp::mpn::Natural>>&
        pairs,
    unsigned parallelism)
{
    const std::uint64_t begin = now_ns();
    camp::sim::BatchResult out = inner_->mul_batch(pairs, parallelism);
    log_.add(begin, now_ns(), pairs.size(), &out);
    return out;
}

camp::sim::BatchResult
TimedDevice::mul_batch_indexed(
    const std::vector<std::pair<camp::mpn::Natural, camp::mpn::Natural>>&
        pairs,
    const std::vector<std::uint64_t>& indices, unsigned parallelism)
{
    const std::uint64_t begin = now_ns();
    camp::sim::BatchResult out =
        inner_->mul_batch_indexed(pairs, indices, parallelism);
    log_.add(begin, now_ns(), pairs.size(), &out);
    return out;
}

camp::sim::BatchResult
TimedDevice::mul_batch_wave(camp::exec::WaveBuffer& wave,
                            const std::vector<std::size_t>& items,
                            const std::vector<std::uint64_t>& indices,
                            unsigned parallelism)
{
    const std::uint64_t begin = now_ns();
    camp::sim::BatchResult out =
        inner_->mul_batch_wave(wave, items, indices, parallelism);
    log_.add(begin, now_ns(), items.size(), &out);
    return out;
}

namespace {

std::mutex g_shard_mutex;
std::vector<std::unique_ptr<CallLog>> g_shard_logs;

} // namespace

const char*
timed_sim_backend()
{
    static const char* const name = [] {
        const char* key = "perfbench.timed_sim";
        camp::exec::DeviceRegistry::instance().add(
            key, [](const camp::sim::SimConfig& config) {
                CallLog* log = nullptr;
                {
                    std::lock_guard<std::mutex> lock(g_shard_mutex);
                    g_shard_logs.push_back(std::make_unique<CallLog>());
                    log = g_shard_logs.back().get();
                }
                return std::make_unique<TimedDevice>(
                    std::make_unique<camp::exec::SimDevice>(config),
                    *log);
            });
        return key;
    }();
    return name;
}

std::vector<CallLog*>
shard_logs()
{
    std::lock_guard<std::mutex> lock(g_shard_mutex);
    std::vector<CallLog*> out;
    for (const auto& log : g_shard_logs)
        out.push_back(log.get());
    return out;
}

void
reset_shard_logs()
{
    std::lock_guard<std::mutex> lock(g_shard_mutex);
    g_shard_logs.clear();
}

namespace {

OpBucket
bucket_of(camp::mpn::OpKind kind)
{
    using camp::mpn::OpKind;
    switch (kind) {
    case OpKind::Mul: return OpBucket::Mul;
    case OpKind::Sqr: return OpBucket::Sqr;
    case OpKind::Div: return OpBucket::Div;
    case OpKind::Sqrt: return OpBucket::Sqrt;
    case OpKind::Add:
    case OpKind::Sub: return OpBucket::Add;
    case OpKind::Shift: return OpBucket::Shift;
    case OpKind::Gcd:
    case OpKind::Other: return OpBucket::Other;
    }
    return OpBucket::Other;
}

/** Per-thread stack of open operations and the last event stamp. */
struct OpStack
{
    std::vector<OpBucket> open;
    std::uint64_t last_ns = 0;
};

thread_local OpStack t_ops;

} // namespace

void
ExclusiveOpTimer::on_enter(camp::mpn::OpKind kind, std::uint64_t,
                           std::uint64_t)
{
    const std::uint64_t now = now_ns();
    if (!t_ops.open.empty())
        ns_[static_cast<unsigned>(t_ops.open.back())].fetch_add(
            now - t_ops.last_ns, std::memory_order_relaxed);
    t_ops.open.push_back(bucket_of(kind));
    t_ops.last_ns = now;
    if (kind == camp::mpn::OpKind::Div)
        div_calls_.fetch_add(1, std::memory_order_relaxed);
}

void
ExclusiveOpTimer::on_exit(camp::mpn::OpKind)
{
    const std::uint64_t now = now_ns();
    if (t_ops.open.empty())
        return; // entered before the hook was installed
    ns_[static_cast<unsigned>(t_ops.open.back())].fetch_add(
        now - t_ops.last_ns, std::memory_order_relaxed);
    t_ops.open.pop_back();
    t_ops.last_ns = now;
}

double
ExclusiveOpTimer::seconds(OpBucket bucket) const
{
    return static_cast<double>(
               ns_[static_cast<unsigned>(bucket)].load(
                   std::memory_order_relaxed)) *
           1e-9;
}

std::uint64_t
fnv1a(std::uint64_t state, const std::string& s)
{
    state = fnv1a(state, s.size());
    for (unsigned char c : s) {
        state ^= c;
        state *= 1099511628211ull;
    }
    return state;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
peak_rss_mb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
counter_value(const std::string& name)
{
    return camp::support::metrics::counter(name).value();
}

} // namespace perfbench

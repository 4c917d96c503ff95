/**
 * @file
 * The two serving workloads. One client thread replays a seeded
 * three-tenant serve::generate_workload mix through
 * Server::submit_async / finish with up to four waves overlapping in
 * virtual time, closed loop: it sends the next submit_async as soon as
 * the previous call returns, with no think time. The virtual arrival
 * stamps drive the server's decisions (admission, shedding,
 * deadlines); the engine runs every wave inline on the client thread,
 * and the pool has one executor (main.cpp), so wall time is the host
 * work of one thread.
 *
 *  - serve_cpu_mixed: BreakerDevice(CpuDevice), 64-4096-bit operands.
 *    Products take a few microseconds at most, so the serving engine,
 *    wave assembly, the breaker's wave path and the product cache
 *    dominate host time.
 *  - serve_sim_repeat: BreakerDevice(ShardedScheduler over sim shards),
 *    1-16 kbit operands, half of them resubmissions of an earlier
 *    pair. Functional simulation dominates, and the product cache
 *    mostly serves hits.
 *
 * Both run at near-critical virtual load (~0.9 of the modelled device
 * capacity with 16-request bursts), as in bench/serve_soak, so
 * admission, shedding and deadlines all fire.
 *
 * One run serves Shape::parts independent workloads drawn from the seed,
 * replaying each on a fresh server in turn until the time is up. The
 * latency tail of one generated mix depends on where its bursts happen
 * to cluster; averaging over many mixes keeps most of that out of the
 * run-to-run spread. Each part contributes the median of its replays,
 * and taking the parts in turn spreads every part's replays over the
 * whole run.
 */
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/cpu_device.hpp"
#include "exec/scheduler.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "serve/breaker.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/config.hpp"

namespace perfbench {

namespace serve = camp::serve;
namespace exec = camp::exec;
using camp::mpn::Natural;

namespace {

/** At most @p want, never more than the host's hardware threads. */
unsigned
host_width(unsigned want)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(want, hw);
}

/** Sim shards, and waves the server and the scheduler overlap. */
constexpr unsigned kWidth = 4;

struct Shape
{
    bool sim = false;
    /** Independent workloads one run serves. Small ones keep a replay's
     * requests, products and cache entries (a few MB) out of the cache
     * the host shares with other tenants. Many of them average out the
     * mixes: at near-critical load a mix's latency percentiles depend on
     * where its bursts fall. */
    std::size_t parts = 64;
    serve::WorkloadSpec spec;
    serve::ServeConfig config;
    exec::ShardPolicy shards;
};

/**
 * Near-critical load: an arrival event carries 0.95 + 0.05 * 16 = 1.75
 * requests on average, so a mean gap of 1.75 * cost / 0.9 keeps the
 * modelled device ~90% busy. @p mean_cost_us is the mean modelled
 * device cost of one request of the workload's operand mix (the
 * server's cost_estimate, floored at 1 us); deadlines and the backlog
 * cap scale with it as in bench/serve_soak.
 */
void
near_critical(Shape& shape, double mean_cost_us)
{
    shape.spec.burst_fraction = 0.05;
    shape.spec.burst_len = 16;
    shape.spec.mean_interarrival_us = 1.75 * mean_cost_us / 0.9;
    shape.spec.deadline_fraction = 0.25;
    shape.spec.deadline_slack_us =
        static_cast<std::uint64_t>(40.0 * mean_cost_us);
    shape.config.limits.max_queue_depth = 32;
    shape.config.max_backlog_us = 48.0 * mean_cost_us;
    shape.config.wave_size = 16;
    shape.config.max_inflight_waves = host_width(kWidth);
    // The deterministic engine: waves overlap in virtual time and run
    // inline on the client thread. Wall mode starts a thread per wave,
    // and on a shared host those hand-offs, not the program, set the
    // run-to-run spread (same-seed runs differed by up to 1.5x).
    shape.config.wall_clock = false;
}

Shape
make_shape(const std::string& workload, std::uint64_t seed)
{
    Shape shape;
    shape.spec.seed = seed;
    shape.spec.square_fraction = 0.2;
    if (workload == "serve_cpu_mixed") {
        shape.parts = 64;
        shape.spec.requests = 5000;
        shape.spec.min_bits = 64;
        shape.spec.max_bits = 4096;
        shape.spec.repeat_fraction = 0.1;
        near_critical(shape, 1.05);
    } else {
        shape.sim = true;
        shape.parts = 48;
        shape.spec.requests = 2500;
        shape.spec.min_bits = 1024;
        shape.spec.max_bits = 16384;
        shape.spec.repeat_fraction = 0.5;
        near_critical(shape, 1.0);
        shape.shards.shards = host_width(kWidth);
        shape.shards.max_inflight_waves = host_width(kWidth);
        shape.shards.backends = {"sim"};
    }
    return shape;
}

/** The device stack one replay serves through. In a traced replay
 * TimedDevice probes sit between Server and Breaker (edge) and between
 * Breaker and the inner device (inner), and the scheduler's shards are
 * timed sim devices. */
struct Stack
{
    CallLog edge_log;
    CallLog inner_log;
    std::unique_ptr<exec::Device> top;
    serve::BreakerDevice* breaker = nullptr;
    exec::ShardedScheduler* scheduler = nullptr;
};

std::unique_ptr<Stack>
build_stack(const Shape& shape, bool traced)
{
    auto stack = std::make_unique<Stack>();
    std::unique_ptr<exec::Device> inner;
    if (shape.sim) {
        exec::ShardPolicy policy = shape.shards;
        if (traced) {
            reset_shard_logs();
            policy.backends = {timed_sim_backend()};
        }
        auto scheduler = std::make_unique<exec::ShardedScheduler>(
            camp::sim::default_config(), policy);
        stack->scheduler = scheduler.get();
        inner = std::move(scheduler);
    } else {
        inner = std::make_unique<exec::CpuDevice>();
    }
    if (traced)
        inner = std::make_unique<TimedDevice>(std::move(inner),
                                              stack->inner_log);
    auto breaker = std::make_unique<serve::BreakerDevice>(
        std::move(inner), shape.config.breaker);
    stack->breaker = breaker.get();
    if (traced)
        stack->top = std::make_unique<TimedDevice>(std::move(breaker),
                                                   stack->edge_log);
    else
        stack->top = std::move(breaker);
    return stack;
}

/** Registry counters read as per-replay deltas. */
const char* const kCounters[] = {
    "exec.queue.flushes",      "exec.queue.coalesced",
    "arena.alloc.count",       "mpn.alloc.count",
    "mpn.mul.algo.schoolbook", "mpn.mul.algo.karatsuba",
    "mpn.mul.algo.toom3",      "mpn.mul.algo.toom4",
    "mpn.mul.algo.toom6",      "mpn.mul.algo.ssa",
};
constexpr std::size_t kNumCounters = std::size(kCounters);

std::vector<std::uint64_t>
read_counters()
{
    std::vector<std::uint64_t> values;
    for (const char* name : kCounters)
        values.push_back(counter_value(name));
    return values;
}

struct ReplayOut
{
    double wall_s = 0.0;
    double p50_us = 0.0;             ///< wall latency, completed requests
    double p99_us = 0.0;             ///< wall latency, completed requests
    std::size_t samples = 0;         ///< completed requests
    std::vector<double> virtual_us;  ///< completed requests
    std::uint64_t outcome_digest = kFnvBasis;
    std::uint64_t fatal = 0; ///< RequestStatus::Failed
    std::string error;       ///< first wrong product, if any
    /** Additive exact counts, identical on every replay of one
     * workload; traced replays add the sim layer's. */
    std::vector<Metric> counts;
    std::vector<Metric> timed; ///< traced replays only
};

ReplayOut
replay(const Shape& shape, const std::vector<serve::Request>& workload,
       const std::vector<Natural>& expected, bool traced)
{
    ReplayOut out;
    std::unique_ptr<Stack> stack = build_stack(shape, traced);
    serve::Server server(shape.config, *stack->top);
    const std::size_t n = workload.size();
    std::vector<std::uint64_t> submit_ns(n, 0);
    std::vector<std::uint64_t> settle_ns(n, 0);
    std::vector<Interval> serve_calls;
    if (traced)
        serve_calls.reserve(n + 1);
    const std::vector<std::uint64_t> before = read_counters();

    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t begin = now_ns();
        submit_ns[i] = begin;
        serve::Server::Handle handle = server.submit_async(workload[i]);
        if (traced)
            serve_calls.push_back({begin, now_ns()});
        std::uint64_t* slot = &settle_ns[i];
        handle.on_settle(
            [slot](const serve::Outcome&) { *slot = now_ns(); });
    }
    const std::uint64_t finish_begin = now_ns();
    const serve::ServeReport report = server.finish();
    const std::uint64_t end = now_ns();
    if (traced)
        serve_calls.push_back({finish_begin, end});
    out.wall_s = static_cast<double>(end - start) * 1e-9;

    // ---- correctness and outcome digest (outside the timed region)
    std::vector<double> latencies_us;
    std::uint64_t attempts = 0;
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const serve::Outcome& outcome = report.outcomes[i];
        out.outcome_digest = fnv1a(out.outcome_digest,
                                   static_cast<std::uint64_t>(
                                       outcome.status));
        attempts += outcome.attempts;
        if (outcome.status == serve::RequestStatus::Failed)
            ++out.fatal;
        if (outcome.status != serve::RequestStatus::Completed)
            continue;
        ++completed;
        out.outcome_digest = fnv1a(out.outcome_digest, outcome.product);
        if (out.error.empty() && outcome.product != expected[i])
            out.error = "wrong product for request " + std::to_string(i);
        if (settle_ns[i] == 0 && out.error.empty())
            out.error = "no settle callback for request " +
                        std::to_string(i);
        latencies_us.push_back(
            static_cast<double>(settle_ns[i] - submit_ns[i]) * 1e-3);
        out.virtual_us.push_back(static_cast<double>(outcome.latency_us));
    }
    if (!report.conserved() && out.error.empty())
        out.error = "ServeReport::conserved() is false";
    out.p50_us = percentile(latencies_us, 50.0);
    out.p99_us = percentile(latencies_us, 99.0);
    out.samples = latencies_us.size();

    // ---- exact counts: functions of the workload alone
    const std::vector<std::uint64_t> after = read_counters();
    std::vector<double> delta(kNumCounters);
    for (std::size_t i = 0; i < kNumCounters; ++i)
        delta[i] = static_cast<double>(after[i] - before[i]);
    const serve::TenantCounters& t = report.totals;
    const camp::support::OpCacheStats cache = server.opcache_stats();
    const serve::BreakerStats breaker = stack->breaker->stats();
    const exec::SchedulerStats sched =
        stack->scheduler ? stack->scheduler->stats()
                         : exec::SchedulerStats{};
    auto count = [&out](const char* name, double v, const char* unit) {
        out.counts.push_back({name, v, unit});
    };
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    count("submitted", u(n), "count");
    count("completed", u(completed), "count");
    count("attempts", u(attempts), "count");
    count("serve.waves", u(report.waves), "count");
    count("serve.shed", u(t.shed_admission + t.shed_evicted), "count");
    count("serve.timeouts", u(t.rejected_deadline + t.timeouts), "count");
    count("serve.retries", u(t.retries), "count");
    count("serve.fallbacks", u(t.fallbacks), "count");
    count("cache_hits", u(cache.hits), "count");
    count("cache_misses", u(cache.misses), "count");
    count("serve.opcache.bytes", u(cache.bytes), "bytes");
    count("exec.breaker.opens", u(breaker.opens), "count");
    count("exec.breaker.fallback_products", u(breaker.fallback_products),
          "count");
    count("exec.queue.flushes", delta[0], "count");
    count("exec.queue.coalesced", delta[1], "count");
    count("exec.scheduler.waves", u(sched.waves), "count");
    count("exec.scheduler.redistributed", u(sched.redistributed), "count");
    count("mpn.mul.algo.schoolbook", delta[4], "count");
    count("mpn.mul.algo.karatsuba", delta[5], "count");
    count("mpn.mul.algo.toom3", delta[6], "count");
    count("mpn.mul.algo.toom4", delta[7], "count");
    count("mpn.mul.algo.toom6", delta[8], "count");
    count("mpn.mul.algo.ssa", delta[9], "count");
    // Natural allocations trace the device path a wave takes: a probe
    // that reroutes waves through a copying default entry point adds
    // allocations, and traced replays then disagree with untraced ones.
    count("mpn.alloc.count", delta[3], "count");
    if (!traced)
        return out;

    // ---- per-layer timing from the probes (traced replays only)
    auto timed = [&out](const char* name, double v, const char* unit) {
        out.timed.push_back({name, v, unit});
    };
    const std::vector<Interval> serve_cover =
        merge_intervals(serve_calls);
    const std::vector<Interval> edge =
        merge_intervals(stack->edge_log.intervals());
    const std::vector<Interval> inner =
        merge_intervals(stack->inner_log.intervals());
    const CallTotals inner_totals = stack->inner_log.totals();
    const double serve_busy = static_cast<double>(covered_ns(serve_cover));
    timed("serve.busy_s", serve_busy * 1e-9, "s");
    timed("serve.self_s",
          (serve_busy - static_cast<double>(overlap_ns(serve_cover, edge))) *
              1e-9,
          "s");
    timed("exec.edge.busy_s", static_cast<double>(covered_ns(edge)) * 1e-9,
          "s");
    timed("exec.inner.busy_s",
          static_cast<double>(covered_ns(inner)) * 1e-9, "s");
    timed("exec.inner.ns_per_product",
          inner_totals.products == 0
              ? 0.0
              : static_cast<double>(inner_totals.summed_ns) /
                    static_cast<double>(inner_totals.products),
          "ns");
    timed("exec.breaker.self_s",
          static_cast<double>(covered_ns(edge) - overlap_ns(edge, inner)) *
              1e-9,
          "s");

    // Shards: the timed sim devices the scheduler built for this
    // replay, in shard order.
    std::vector<Interval> shard_calls;
    CallTotals sim;
    std::vector<double> shard_busy;
    if (shape.sim) {
        for (const CallLog* log : shard_logs()) {
            const std::vector<Interval> calls = log->intervals();
            shard_calls.insert(shard_calls.end(), calls.begin(),
                               calls.end());
            const CallTotals s = log->totals();
            sim.products += s.products;
            sim.summed_ns += s.summed_ns;
            sim.sim_cycles += s.sim_cycles;
            sim.sim_tasks += s.sim_tasks;
            sim.sim_stall_cycles += s.sim_stall_cycles;
            shard_busy.push_back(static_cast<double>(s.summed_ns));
        }
    }
    const std::vector<Interval> shards = merge_intervals(shard_calls);
    timed("exec.scheduler.self_s",
          shape.sim ? static_cast<double>(covered_ns(inner) -
                                          overlap_ns(inner, shards)) *
                          1e-9
                    : 0.0,
          "s");
    double imbalance = 0.0;
    if (!shard_busy.empty()) {
        double sum = 0.0;
        for (double b : shard_busy)
            sum += b;
        const double mean = sum / static_cast<double>(shard_busy.size());
        if (mean > 0.0)
            imbalance =
                *std::max_element(shard_busy.begin(), shard_busy.end()) /
                mean;
    }
    timed("exec.scheduler.imbalance", imbalance, "ratio");
    timed("sim.ns_per_product",
          sim.products == 0 ? 0.0
                            : static_cast<double>(sim.summed_ns) /
                                  static_cast<double>(sim.products),
          "ns");
    timed("sim.host_ns_per_cycle",
          sim.sim_cycles == 0 ? 0.0
                              : static_cast<double>(sim.summed_ns) /
                                    static_cast<double>(sim.sim_cycles),
          "ns/cycle");
    count("sim.products", u(sim.products), "count");
    count("sim.cycles", u(sim.sim_cycles), "model-cycles");
    count("sim.ipu.tasks", u(sim.sim_tasks), "model-tasks");
    count("sim.cma.stall_cycles", u(sim.sim_stall_cycles), "model-cycles");
    timed("arena.alloc.count", delta[2], "count");
    return out;
}

/** Per metric name, the median over one part's traced replays
 * (all replays carry the same names in the same order). */
std::vector<Metric>
estimate_metrics(const std::vector<ReplayOut>& runs)
{
    std::vector<Metric> out;
    if (runs.empty())
        return out;
    for (std::size_t m = 0; m < runs.front().timed.size(); ++m) {
        std::vector<double> values;
        for (const ReplayOut& run : runs)
            values.push_back(run.timed[m].value);
        out.push_back({runs.front().timed[m].name, median(values),
                       runs.front().timed[m].unit});
    }
    return out;
}

/** Name of the first count that differs between @p a and @p b, or an
 * empty string. */
std::string
first_difference(const std::vector<Metric>& a, const std::vector<Metric>& b)
{
    for (const Metric& m : a)
        for (const Metric& o : b)
            if (m.name == o.name && m.value != o.value)
                return m.name;
    return {};
}

/** Add @p add into @p total by name. */
void
accumulate(std::vector<Metric>& total, const std::vector<Metric>& add)
{
    for (const Metric& m : add) {
        auto it = std::find_if(total.begin(), total.end(),
                               [&m](const Metric& t) {
                                   return t.name == m.name;
                               });
        if (it == total.end())
            total.push_back(m);
        else
            it->value += m.value;
    }
}

double
value_of(const std::vector<Metric>& metrics, const std::string& name)
{
    for (const Metric& m : metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/** One generated workload and its replays. The requests and products
 * are generated again for every replay rather than held, so a run's
 * memory is one mix, whatever the number of mixes. */
struct Part
{
    Shape shape;
    std::vector<ReplayOut> plain;
    std::vector<ReplayOut> traced;
};

struct Mix
{
    std::vector<serve::Request> workload;
    std::vector<Natural> expected;
};

/** The requests of @p shape and their reference products. The products
 * are computed with a raw a*b on the identical operand pairs the server
 * sees; @p floor_ns, when given, receives that loop's time per request. */
Mix
make_mix(const Shape& shape, double* floor_ns = nullptr)
{
    Mix mix;
    mix.workload = serve::generate_workload(shape.spec);
    const std::size_t n = mix.workload.size();
    mix.expected.resize(n);
    const std::uint64_t begin = now_ns();
    for (std::size_t i = 0; i < n; ++i)
        mix.expected[i] = mix.workload[i].a * mix.workload[i].b;
    if (floor_ns != nullptr)
        *floor_ns = static_cast<double>(now_ns() - begin) /
                    static_cast<double>(n);
    return mix;
}

} // namespace

Result
run_serve(const Options& options)
{
    Result result;
    const Shape base = make_shape(options.workload, options.seed);
    std::vector<Part> parts(base.parts);
    std::vector<double> setup_s;
    std::vector<double> floor_ns; // per part
    std::uint64_t operands = kFnvBasis;

    for (std::size_t k = 0; k < base.parts; ++k) {
        Part& part = parts[k];
        part.shape = base;
        part.shape.spec.seed = fnv1a(fnv1a(kFnvBasis, options.seed), k);

        // ---- set-up: generation plus device and server construction
        const std::uint64_t setup_begin = now_ns();
        const std::vector<serve::Request> workload =
            serve::generate_workload(part.shape.spec);
        {
            std::unique_ptr<Stack> stack = build_stack(part.shape, false);
            serve::Server server(part.shape.config, *stack->top);
        }
        setup_s.push_back(static_cast<double>(now_ns() - setup_begin) *
                          1e-9);
        for (const serve::Request& req : workload) {
            operands = fnv1a(operands, req.tenant);
            operands = fnv1a(operands, static_cast<std::uint64_t>(req.op));
            operands = fnv1a(operands, req.a);
            operands = fnv1a(operands, req.b);
            operands = fnv1a(operands, req.arrival_us);
            operands = fnv1a(operands, req.deadline_us);
        }
    }

    // ---- warm-up: the first mix once, untimed
    {
        const Mix mix = make_mix(parts.front().shape);
        const ReplayOut warm =
            replay(parts.front().shape, mix.workload, mix.expected, false);
        if (!warm.error.empty())
            result.fail("warm-up: " + warm.error);
    }

    // ---- measured replays, one of each part in turn, so that every
    // part's replays spread over the whole run
    const std::uint64_t start = now_ns();
    auto elapsed = [start] {
        return static_cast<double>(now_ns() - start) * 1e-9;
    };
    auto round = [&parts, &floor_ns](bool traced) {
        for (Part& part : parts) {
            std::vector<ReplayOut>& set = traced ? part.traced : part.plain;
            double floor = 0.0;
            const Mix mix = make_mix(part.shape, &floor);
            if (!traced && set.empty())
                floor_ns.push_back(floor);
            set.push_back(
                replay(part.shape, mix.workload, mix.expected, traced));
            if (set.size() > 1) // the first replay keeps the ledger
                set.back().virtual_us = {};
        }
    };
    const double plain_budget =
        options.trace ? options.seconds / 2 : options.seconds;
    do
        round(false);
    while (parts.front().plain.size() < 2 || elapsed() < plain_budget);
    if (options.trace)
        do
            round(true);
        while (parts.front().traced.size() < 2 ||
               elapsed() < options.seconds);

    const double requests = static_cast<double>(base.spec.requests);
    std::vector<double> wall;       // median untraced replay per part
    std::vector<double> p50;        // per part
    std::vector<double> p99;        // per part
    std::vector<double> overhead_x; // per part
    std::vector<double> trace_pct;  // per part
    std::vector<std::vector<Metric>> layers; // per part
    std::vector<Metric> counts;     // summed over parts
    std::vector<double> virtual_us; // pooled over parts
    std::uint64_t samples = 0;
    std::uint64_t outcomes = kFnvBasis;
    for (std::size_t k = 0; k < parts.size(); ++k) {
        const Part& part = parts[k];
        // ---- replay consistency: digests and counts bit for bit
        const ReplayOut& ref = part.plain.front();
        for (const std::vector<ReplayOut>* set : {&part.plain, &part.traced}) {
            for (const ReplayOut& r : *set) {
                if (!r.error.empty())
                    result.fail(r.error);
                if (r.outcome_digest != ref.outcome_digest)
                    result.fail(set == &part.traced
                                    ? "traced and untraced outcome "
                                      "digests differ"
                                    : "outcome digest differs between "
                                      "replays");
                std::string which = first_difference(r.counts, ref.counts);
                if (which.empty())
                    which = first_difference(r.counts, set->front().counts);
                if (!which.empty())
                    result.fail(which + " differs between replays");
            }
        }
        outcomes = fnv1a(outcomes, ref.outcome_digest);
        accumulate(counts, options.trace ? part.traced.front().counts
                                         : ref.counts);
        virtual_us.insert(virtual_us.end(), ref.virtual_us.begin(),
                          ref.virtual_us.end());

        std::vector<double> part_wall;
        std::vector<double> part_p50;
        std::vector<double> part_p99;
        for (const ReplayOut& r : part.plain) {
            result.attempted += base.spec.requests;
            result.failed += r.fatal;
            part_wall.push_back(r.wall_s);
            part_p50.push_back(r.p50_us);
            part_p99.push_back(r.p99_us);
            samples += r.samples;
        }
        wall.push_back(median(part_wall));
        p50.push_back(median(part_p50));
        p99.push_back(median(part_p99));
        overhead_x.push_back(wall.back() * 1e9 / requests / floor_ns[k]);
        if (options.trace) {
            std::vector<double> traced_wall;
            for (const ReplayOut& r : part.traced)
                traced_wall.push_back(r.wall_s);
            trace_pct.push_back(
                100.0 * (median(traced_wall) / wall.back() - 1.0));
            layers.push_back(estimate_metrics(part.traced));
        }
    }
    result.digests.push_back({"operands", hex64(operands)});
    result.digests.push_back({"outcomes", hex64(outcomes)});

    // Every part serves the same number of requests; each contributes
    // its median replay, and the parts' mixes average out.
    const double solve = mean(wall);
    result.set("setup_s", median(setup_s), "s");
    result.set("throughput_rps", requests / solve, "1/s");
    result.set("latency_p50_us", mean(p50), "us");
    result.set("latency_p99_us", mean(p99), "us");
    result.set("solve_s", solve, "s");
    result.set("latency.samples", static_cast<double>(samples), "count");

    // ---- exact metrics over the run's workloads
    auto c = [&counts](const char* name) { return value_of(counts, name); };
    result.set("serve.products_per_wave",
               ratio(c("attempts"), c("serve.waves")), "count");
    result.set("serve.not_completed_share",
               1.0 - ratio(c("completed"), c("submitted")), "ratio");
    result.set("serve.virtual_p99_us", percentile(virtual_us, 99.0), "us");
    result.set("serve.opcache.hit_ratio",
               ratio(c("cache_hits"),
                     c("cache_hits") + c("cache_misses")),
               "ratio");
    // Counts named without a dot only feed the ratios above.
    for (const Metric& m : counts) {
        if (m.name == "serve.opcache.bytes") // held at the end of a replay
            result.set(m.name, m.value / static_cast<double>(base.parts),
                       m.unit.c_str());
        else if (m.name.find('.') != std::string::npos)
            result.metrics.push_back(m);
    }

    if (options.trace) {
        for (std::size_t m = 0; m < layers.front().size(); ++m) {
            std::vector<double> values;
            for (const std::vector<Metric>& part : layers)
                values.push_back(part[m].value);
            result.set(layers.front()[m].name, mean(values),
                       layers.front()[m].unit.c_str());
        }
        result.set("mpn.mul.floor_ns", median(floor_ns), "ns");
        result.set("serve.overhead_x", median(overhead_x), "x");
        result.set("trace.overhead_pct", median(trace_pct), "%");
    }
    return result;
}

} // namespace perfbench

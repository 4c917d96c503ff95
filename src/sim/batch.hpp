/**
 * @file
 * Batch-processing mode (paper §V-B3 / §VII-B): because indexes and
 * patterns can belong to different vectors and GUs combine
 * configurable IPU groups (Fig. 10), Cambricon-P also executes many
 * independent small multiplications concurrently — the CGBN/V100
 * scenario. The abstract's claim is identical batch throughput at
 * 430x less area and 60.5x less power; bench/batch_throughput
 * regenerates that comparison.
 *
 * Host-side parallelism: the products of a batch are independent, so
 * the engine distributes them across the support::ThreadPool. Every
 * product owns its PE-group state — its own CoreMemoryAgent, its own
 * GatherUnit, and (when fault injection is armed) its own FaultEngine
 * seeded `faults.seed + product_index` — so the injected fault
 * sequence of product i is a pure function of the config seed and i,
 * replayable at any thread count, and an N-thread batch is
 * bit-identical to a serial one. Aggregate accounting (tasks, waves,
 * bytes, cycles) is folded in product order after the join.
 */
#ifndef CAMP_SIM_BATCH_HPP
#define CAMP_SIM_BATCH_HPP

#include <cstdint>
#include <vector>

#include "mpn/natural.hpp"
#include "mpn/view.hpp"
#include "sim/core.hpp"

namespace camp::sim {

/** Per-product accounting, exposed so determinism tests can compare
 * serial and pooled runs element-wise (not just in aggregate). */
struct BatchProductStats
{
    std::uint64_t tasks = 0;
    std::uint64_t bytes = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t injected = 0; ///< faults injected into this product
    bool faulty = false;        ///< failed validation (armed runs)

    bool
    operator==(const BatchProductStats& other) const
    {
        return tasks == other.tasks && bytes == other.bytes &&
               stall_cycles == other.stall_cycles &&
               injected == other.injected && faulty == other.faulty;
    }
};

/** Result of a batch execution. */
struct BatchResult
{
    std::vector<mpn::Natural> products;
    std::vector<BatchProductStats> per_product; ///< aligned with products
    std::uint64_t tasks = 0;
    std::uint64_t waves = 0;
    std::uint64_t cycles = 0;       ///< max(compute, memory)
    std::uint64_t bytes = 0;
    unsigned parallelism = 1;       ///< host executors used
    std::uint64_t injected = 0;     ///< faults injected (armed runs)
    std::uint64_t faulty = 0;       ///< products that failed validation
    double seconds(const SimConfig& config) const
    {
        return static_cast<double>(cycles) / (config.freq_ghz * 1e9);
    }
    /** Amortized per-product time (the CGBN reporting convention). */
    double
    amortized_seconds(const SimConfig& config) const
    {
        return products.empty() ? 0.0
                                : seconds(config) / products.size();
    }
};

/** Batch executor over the same PE/IPU fabric as Core. */
class BatchEngine
{
  public:
    explicit BatchEngine(const SimConfig& config = default_config(),
                         bool validate = true);

    /**
     * Multiply @p pairs of equal-shaped operands concurrently. All IPU
     * tasks from all products share the fabric; waves are computed as
     * in the monolithic mode, and each product's partial sums are
     * gathered by its PE group's GU in the matching combine mode.
     *
     * @p parallelism picks the host-side execution: 0 = auto (fork
     * across the global pool when it has workers), 1 = serial on the
     * calling thread, >= 2 = fork (actual concurrency is bounded by
     * the pool). Products are bit-identical across all settings.
     *
     * @p seed_indices, when non-null, gives each product's fault-seed
     * offset (seed = faults.seed + seed_indices[i]) instead of its
     * position i. A scheduler splitting one logical wave across
     * several engine instances passes the wave-global indices so the
     * per-product fault stream is invariant under the split (the
     * resharding-determinism contract of exec::ShardedScheduler).
     * Must be pairs.size() long when given.
     *
     * Without fault injection a validation mismatch aborts (library
     * bug); with any fault site armed, mismatching products are
     * *expected* and only counted in BatchResult::faulty — recovery
     * policy (retry / CPU fallback) lives in mpapca::Runtime.
     */
    BatchResult
    multiply_batch(const std::vector<std::pair<mpn::Natural,
                                               mpn::Natural>>& pairs,
                   unsigned parallelism = 0,
                   const std::vector<std::uint64_t>* seed_indices =
                       nullptr);

    /**
     * multiply_batch over operand *views* (wave-owned limb runs, see
     * exec::WaveBuffer) — the engine's one batch body; multiply_batch
     * borrows views of its pairs and calls it. The simulated core
     * streams each operand into its SRAM from wherever the view
     * points, so the host side needs no Natural materialization before
     * the call — the per-product copy happens on the pool thread,
     * inside the simulated stream-in boundary. @p views must stay
     * valid for the whole call.
     */
    BatchResult
    multiply_batch_views(const std::pair<mpn::LimbView,
                                         mpn::LimbView>* views,
                         std::size_t count, unsigned parallelism = 0,
                         const std::vector<std::uint64_t>* seed_indices =
                             nullptr);

  private:
    /** Everything one product contributes to the aggregate. */
    struct ProductOutcome
    {
        mpn::Natural product;
        std::uint64_t tasks = 0;
        std::uint64_t bytes = 0;
        std::uint64_t stall_cycles = 0;
        std::uint64_t injected = 0;
        bool faulty = false;
    };

    ProductOutcome multiply_one(std::uint64_t seed_index,
                                const mpn::Natural& a,
                                const mpn::Natural& b) const;

    SimConfig config_;
    bool validate_;
};

} // namespace camp::sim

#endif // CAMP_SIM_BATCH_HPP

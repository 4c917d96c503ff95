/**
 * @file
 * The execution plane (`camp::exec`): a pluggable device interface
 * that decouples *what* MPApca computes from *where* it runs — the
 * host/accelerator split of paper §V-C (Fig. 1), where the MPApca
 * library routes kernel operators to whichever machine executes them.
 *
 * A Device executes *base products* (multiplications within its
 * capability) and batches of independent products, and answers cost /
 * energy queries so the MPApca layer can plan decompositions. Three
 * implementations ship with the repo:
 *  - CpuDevice      — the mpn kernels (host execution, unlimited size);
 *  - SimDevice      — the functional Cambricon-P simulator
 *                     (sim::Core + sim::BatchEngine);
 *  - AnalyticDevice — exact products via mpn, accounting via the
 *                     calibrated analytic model (large sweeps where
 *                     functional simulation would be pointlessly slow).
 * All devices return bit-identical products; only accounting and
 * placement differ. Devices are selected at runtime through the
 * DeviceRegistry (string-keyed, `CAMP_BACKEND` environment default).
 *
 * Every device carries its own mpn::MulTuning: §V-C retunes the
 * algorithm-selection thresholds per backend ("fast algorithms are
 * delayed accordingly" on hardware with a 35904-bit base case), so
 * thresholds are per-device state, not a process-global.
 */
#ifndef CAMP_EXEC_DEVICE_HPP
#define CAMP_EXEC_DEVICE_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "sim/batch.hpp"

namespace camp::exec {

class WaveBuffer;

/** Where a device's time comes from. */
enum class DeviceKind
{
    Host,        ///< measured wall time (the CPU baseline)
    Accelerator, ///< functionally simulated hardware (cycle-accounted)
    Model,       ///< analytically modelled hardware (closed-form cost)
};

const char* device_kind_name(DeviceKind kind);

/** Cost/energy answer for one base product (monolithic operation). */
struct CostEstimate
{
    double cycles = 0;   ///< device cycles (0 when not cycle-based)
    double seconds = 0;  ///< estimated execution time
    double energy_j = 0; ///< estimated energy
};

/** Result of one device multiplication. */
struct MulOutcome
{
    mpn::Natural product;
    std::uint64_t injected = 0; ///< datapath faults injected by this op
};

/**
 * One execution backend. Thread-compatibility contract: a Device may
 * be driven from pool tasks (SubmitQueue does), but concurrent calls
 * into the *same* device instance are not synchronized here — batch
 * fan-out happens inside the batch calls, which own their parallelism.
 */
class Device
{
  public:
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    /** Registry key ("cpu", "sim", "analytic", ...). */
    virtual const char* name() const = 0;

    virtual DeviceKind kind() const = 0;

    /**
     * Largest operand (bits) this device multiplies without software
     * decomposition; 0 = unlimited. MPApca decomposes above this
     * (paper §V-C), exactly as it decomposes beyond the monolithic
     * capability of the hardware.
     */
    virtual std::uint64_t base_cap_bits() const = 0;

    /**
     * One base product. Operands must respect base_cap_bits() (throws
     * camp::InvalidArgument beyond it, like sim::Core). Returns the
     * exact product plus the number of faults the device's injection
     * engine fired during the op (0 for fault-free devices).
     */
    virtual MulOutcome mul(const mpn::Natural& a,
                           const mpn::Natural& b) = 0;

    /*
     * Three batch virtuals. The wave form is the batch path: devices
     * whose only batch body is their wave path (sim, sharded) answer
     * the two vector forms with mul_batch_via_wave. All three stay
     * virtual because out-of-tree decorators (perfbench's TimedDevice)
     * override each of them.
     */

    /**
     * Many independent products, every operand within
     * base_cap_bits(); product i is seeded by its position i.
     * @p parallelism follows the BatchEngine convention: 0 = auto
     * (fork across the global pool), 1 = serial, >= 2 = fork. Products
     * are bit-identical across all settings.
     */
    virtual sim::BatchResult
    mul_batch(const std::vector<std::pair<mpn::Natural,
                                          mpn::Natural>>& pairs,
              unsigned parallelism = 0) = 0;

    /**
     * mul_batch with explicit per-product fault-seed indices: product
     * i draws its fault stream from seed index @p indices[i] instead
     * of its position in @p pairs (must be pairs.size() long). The
     * default ignores the indices and delegates to mul_batch — correct
     * for any device without per-product fault streams (cpu,
     * analytic).
     */
    virtual sim::BatchResult
    mul_batch_indexed(const std::vector<std::pair<mpn::Natural,
                                                  mpn::Natural>>& pairs,
                      const std::vector<std::uint64_t>& indices,
                      unsigned parallelism = 0);

    /**
     * Wave execution (DESIGN.md §14): multiply the given @p items of
     * @p wave (wave-global fault-seed @p indices[k] for item
     * @p items[k]; must be the same length) and write each product
     * into the item's preallocated wave result slot via
     * WaveBuffer::set_result_size. The returned BatchResult carries
     * accounting only: `products` stays EMPTY (the wave owns the
     * limbs) and `per_product[k]` lines up with @p items[k]. A
     * scheduler that splits one logical wave across several devices
     * passes the wave-global indices, so every product's fault stream
     * is invariant under the split (the resharding-determinism
     * contract).
     *
     * The default materializes the operands, runs mul_batch_indexed
     * and copies the products into the wave, so any backend that only
     * has a vector body (analytic, the serving breaker) is
     * wave-capable. cpu, sim and sharded override it with their one
     * zero-copy body.
     *
     * Concurrency: callers may execute disjoint item sets of one wave
     * concurrently (the sharded scheduler does); implementations only
     * write the slots of their own items.
     */
    virtual sim::BatchResult
    mul_batch_wave(WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0);

    /** Cost/energy estimate for one base product of this shape. */
    virtual CostEstimate cost(std::uint64_t bits_a,
                              std::uint64_t bits_b) const = 0;

    /**
     * This backend's multiplication thresholds (§V-C: MPApca retunes
     * per backend). Decorators forward to the wrapped device so the
     * tuning surface stays single-sourced.
     */
    virtual const mpn::MulTuning& tuning() const { return tuning_; }
    virtual void set_tuning(const mpn::MulTuning& t) { tuning_ = t; }

  protected:
    Device() = default;

    /**
     * The vector forms over this device's own wave path: copy @p pairs
     * into a local WaveBuffer, run mul_batch_wave with @p indices
     * (positions 0..n-1 when null), and take the products out. The
     * result is the wave path's, with `products` filled in pair order.
     */
    sim::BatchResult
    mul_batch_via_wave(const std::vector<std::pair<mpn::Natural,
                                                   mpn::Natural>>& pairs,
                       const std::vector<std::uint64_t>* indices,
                       unsigned parallelism);

    mpn::MulTuning tuning_; ///< concrete constructors initialize
};

/**
 * Thresholds retuned for a hardware backend with an @p cap_bits-bit
 * monolithic base case: Karatsuba engages only above the base case and
 * Toom-3 above six base cases (mirroring mpapca's decomposition
 * policy); the higher regimes follow in monotone factor-4 steps.
 */
mpn::MulTuning retuned_for_cap(std::uint64_t cap_bits);

/**
 * Apply per-device environment overrides
 * `CAMP_<DEVICE>_MUL_THRESH_{KARATSUBA,TOOM3,TOOM4,TOOM6,SSA,PARALLEL}`
 * (limb counts, uppercased device name) on top of @p tuning.
 */
mpn::MulTuning apply_device_env_tuning(const char* device_name,
                                       mpn::MulTuning tuning);

} // namespace camp::exec

#endif // CAMP_EXEC_DEVICE_HPP

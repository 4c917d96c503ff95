#include "exec/device.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>

#include "exec/wave.hpp"
#include "support/assert.hpp"

namespace camp::exec {

sim::BatchResult
Device::mul_batch_indexed(
    const std::vector<std::pair<mpn::Natural, mpn::Natural>>& pairs,
    const std::vector<std::uint64_t>& indices, unsigned parallelism)
{
    CAMP_ASSERT(indices.size() == pairs.size());
    return mul_batch(pairs, parallelism);
}

sim::BatchResult
Device::mul_batch_wave(WaveBuffer& wave,
                       const std::vector<std::size_t>& items,
                       const std::vector<std::uint64_t>& indices,
                       unsigned parallelism)
{
    // For devices with only a vector body: materialize the operands,
    // run the indexed batch path (fault streams keyed by the
    // wave-global indices, so determinism is inherited), then copy the
    // products into the wave's result slots.
    CAMP_ASSERT(indices.size() == items.size());
    std::vector<std::pair<mpn::Natural, mpn::Natural>> pairs;
    pairs.reserve(items.size());
    for (const std::size_t item : items)
        pairs.push_back(wave.operand_pair(item));
    sim::BatchResult result =
        mul_batch_indexed(pairs, indices, parallelism);
    CAMP_ASSERT(result.products.size() == items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
        const mpn::Natural& product = result.products[k];
        const std::size_t item = items[k];
        std::size_t n = product.size();
        if (n > wave.result_capacity(item)) {
            // An exact product always fits in an + bn limbs; only an
            // injected-fault corruption can overflow, and it is
            // already counted faulty — clamp to the slot (corrupted
            // values carry no contractual content).
            CAMP_ASSERT(result.per_product[k].faulty);
            n = wave.result_capacity(item);
        }
        if (n != 0)
            std::memcpy(wave.result_ptr(item), product.data(),
                        n * sizeof(mpn::Limb));
        wave.set_result_size(item, n);
    }
    result.products.clear();
    return result;
}

sim::BatchResult
Device::mul_batch_via_wave(
    const std::vector<std::pair<mpn::Natural, mpn::Natural>>& pairs,
    const std::vector<std::uint64_t>* indices, unsigned parallelism)
{
    const std::size_t count = pairs.size();
    CAMP_ASSERT(indices == nullptr || indices->size() == count);
    WaveBuffer wave;
    std::vector<std::size_t> items(count);
    for (std::size_t i = 0; i < count; ++i)
        items[i] = wave.add(pairs[i].first, pairs[i].second);
    std::vector<std::uint64_t> positions;
    if (indices == nullptr) {
        positions.resize(count);
        std::iota(positions.begin(), positions.end(), std::uint64_t{0});
    }
    sim::BatchResult result = mul_batch_wave(
        wave, items, indices != nullptr ? *indices : positions,
        parallelism);
    result.products.reserve(count);
    for (const std::size_t item : items)
        result.products.push_back(wave.take_result(item));
    return result;
}

const char*
device_kind_name(DeviceKind kind)
{
    switch (kind) {
    case DeviceKind::Host: return "host";
    case DeviceKind::Accelerator: return "accelerator";
    case DeviceKind::Model: return "model";
    }
    return "?";
}

mpn::MulTuning
retuned_for_cap(std::uint64_t cap_bits)
{
    mpn::MulTuning t;
    // The hardware executes everything up to the base case
    // monolithically, so the first software algorithm (Karatsuba)
    // engages only above it and Toom-3 above six base cases — the
    // same "fast algorithms delayed accordingly" policy the cost
    // model uses (paper §VII-B, 35904-bit base case).
    const std::uint64_t cap_limbs =
        std::max<std::uint64_t>(2, cap_bits / mpn::kLimbBits);
    t.karatsuba = static_cast<std::size_t>(cap_limbs);
    t.toom3 = static_cast<std::size_t>(6 * cap_limbs);
    t.toom4 = 4 * t.toom3;
    t.toom6 = 4 * t.toom4;
    t.ssa = 4 * t.toom6;
    return t;
}

mpn::MulTuning
apply_device_env_tuning(const char* device_name, mpn::MulTuning tuning)
{
    std::string prefix = "CAMP_";
    for (const char* p = device_name; *p != '\0'; ++p)
        prefix += static_cast<char>(
            std::toupper(static_cast<unsigned char>(*p)));
    prefix += "_MUL_THRESH_";
    const auto apply = [&prefix](const char* field, std::size_t& value) {
        const std::string name = prefix + field;
        if (const char* env = std::getenv(name.c_str())) {
            const long long v = std::strtoll(env, nullptr, 10);
            if (v >= 1)
                value = static_cast<std::size_t>(v);
        }
    };
    apply("KARATSUBA", tuning.karatsuba);
    apply("TOOM3", tuning.toom3);
    apply("TOOM4", tuning.toom4);
    apply("TOOM6", tuning.toom6);
    apply("SSA", tuning.ssa);
    apply("PARALLEL", tuning.parallel);
    return tuning;
}

} // namespace camp::exec

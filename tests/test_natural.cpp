/**
 * @file
 * Natural value-type tests: operators, string conversion round trips
 * against known constants, pow/gcd, and cross-operation properties.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "mpn/natural.hpp"
#include "support/rng.hpp"

using camp::mpn::Natural;

TEST(Natural, ZeroBasics)
{
    const Natural z;
    EXPECT_TRUE(z.is_zero());
    EXPECT_EQ(z.bits(), 0u);
    EXPECT_EQ(z.to_decimal(), "0");
    EXPECT_EQ(z.to_hex(), "0");
    EXPECT_EQ(z + z, z);
    EXPECT_EQ(z * Natural(12345), z);
}

TEST(Natural, DecimalRoundTripKnownValues)
{
    const char* cases[] = {
        "1",
        "9",
        "10",
        "18446744073709551615",  // 2^64 - 1
        "18446744073709551616",  // 2^64
        "340282366920938463463374607431768211456", // 2^128
        "123456789012345678901234567890123456789012345678901234567890",
    };
    for (const char* s : cases) {
        EXPECT_EQ(Natural::from_decimal(s).to_decimal(), s);
    }
}

TEST(Natural, HexRoundTrip)
{
    EXPECT_EQ(Natural::from_hex("ff").to_uint64(), 255u);
    EXPECT_EQ(Natural::from_hex("DEADbeef").to_hex(), "deadbeef");
    const Natural big = Natural::from_hex("123456789abcdef0fedcba9876543210");
    EXPECT_EQ(big.to_hex(), "123456789abcdef0fedcba9876543210");
}

TEST(Natural, DecimalRandomRoundTrip)
{
    camp::Rng rng(51);
    for (std::uint64_t bits : {10u, 100u, 1000u, 20000u}) {
        const Natural a = Natural::random_bits(rng, bits);
        EXPECT_EQ(Natural::from_decimal(a.to_decimal()), a)
            << "bits=" << bits;
    }
}

TEST(Natural, FromDecimalRejectsGarbage)
{
    EXPECT_THROW(Natural::from_decimal(""), std::invalid_argument);
    EXPECT_THROW(Natural::from_decimal("12a3"), std::invalid_argument);
    EXPECT_THROW(Natural::from_hex("xyz"), std::invalid_argument);
}

TEST(Natural, SubtractionUnderflowThrows)
{
    EXPECT_THROW(Natural(3) - Natural(5), std::invalid_argument);
    EXPECT_EQ(Natural(5) - Natural(5), Natural());
}

TEST(Natural, DivisionByZeroThrows)
{
    EXPECT_THROW(Natural(5) / Natural(), std::invalid_argument);
}

TEST(Natural, ShiftIdentities)
{
    camp::Rng rng(52);
    const Natural a = Natural::random_bits(rng, 500);
    EXPECT_EQ((a << 64) >> 64, a);
    EXPECT_EQ((a << 13) >> 13, a);
    EXPECT_EQ(a << 3, a * Natural(8));
    EXPECT_EQ(a >> 700, Natural());
    EXPECT_EQ((a >> 5) << 5 | (a & Natural(31)), a);
}

TEST(Natural, BitsMatchesDefinition)
{
    EXPECT_EQ(Natural(1).bits(), 1u);
    EXPECT_EQ(Natural(255).bits(), 8u);
    EXPECT_EQ(Natural(256).bits(), 9u);
    EXPECT_EQ((Natural(1) << 1000).bits(), 1001u);
}

TEST(Natural, PowMatchesRepeatedMul)
{
    const Natural three(3);
    Natural expect(1);
    for (int e = 0; e < 50; ++e) {
        EXPECT_EQ(Natural::pow(three, e), expect);
        expect *= three;
    }
}

TEST(Natural, Pow10MatchesDecimal)
{
    for (std::uint64_t e : {0u, 1u, 5u, 19u, 20u, 100u, 1000u}) {
        const Natural p = Natural::pow10(e);
        std::string expect = "1" + std::string(e, '0');
        EXPECT_EQ(p.to_decimal(), expect);
    }
}

namespace {

/** Decimal digits by repeated division by 10^19, 19 digits at a time. */
std::string
reference_decimal(Natural n)
{
    const Natural chunk_base(10000000000000000000ull);
    std::string out;
    while (!n.is_zero()) {
        auto [q, r] = Natural::divrem(n, chunk_base);
        std::string chunk = std::to_string(r.to_uint64());
        if (!q.is_zero())
            chunk.insert(0, 19 - chunk.size(), '0');
        out.insert(0, chunk);
        n = q;
    }
    return out.empty() ? "0" : out;
}

} // namespace

TEST(Natural, ToDecimalMatchesChunkedReferenceAtBasecaseSeams)
{
    // The recursion hands values of at most 16 limbs to one-limb
    // division; cover both sides of that size, zero 19-digit chunks
    // inside a value and zero padding between recursion halves.
    camp::Rng rng(52);
    for (const std::uint64_t limbs : {1u, 2u, 15u, 16u, 17u, 32u, 33u, 70u}) {
        for (const std::uint64_t trim : {0u, 1u, 63u}) {
            const Natural a = Natural::random_bits(rng, 64 * limbs - trim);
            EXPECT_EQ(a.to_decimal(), reference_decimal(a))
                << "limbs=" << limbs << " trim=" << trim;
        }
    }
    for (const std::uint64_t e : {19u, 38u, 300u, 304u, 320u, 1024u, 1300u}) {
        const Natural p = Natural::pow10(e);
        for (const Natural& a : {p - Natural(1), p + Natural(1),
                                 p * Natural(7) + Natural(3)}) {
            EXPECT_EQ(a.to_decimal(), reference_decimal(a)) << "e=" << e;
        }
    }
}

TEST(Natural, ConcurrentDecimalConversionsShareThePowerTable)
{
    // Two threads fill the process-wide 10^(2^k) table at once; each
    // must still see stable, correct powers. CI runs this under
    // ThreadSanitizer. 10^(2^15) is above every power the other tests
    // here reach, so the table grows concurrently even when the whole
    // binary runs in one process.
    constexpr unsigned kLog2Digits = 15;
    const std::string expect =
        "1" + std::string(std::size_t{1} << kLog2Digits, '0');
    std::atomic<int> ready{0};
    std::string results[2];
    auto convert = [&](int i) {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        results[i] = Natural::pow10(std::uint64_t{1} << kLog2Digits)
                         .to_decimal();
    };
    std::thread first(convert, 0);
    std::thread second(convert, 1);
    first.join();
    second.join();
    EXPECT_EQ(results[0], expect);
    EXPECT_EQ(results[1], expect);
}

TEST(Natural, GcdProperties)
{
    camp::Rng rng(53);
    EXPECT_EQ(Natural::gcd(Natural(0), Natural(7)), Natural(7));
    EXPECT_EQ(Natural::gcd(Natural(12), Natural(18)), Natural(6));
    for (int iter = 0; iter < 20; ++iter) {
        const Natural g = Natural::random_bits(rng, 1 + rng.below(80));
        const Natural a = g * Natural::random_bits(rng, 1 + rng.below(80));
        const Natural b = g * Natural::random_bits(rng, 1 + rng.below(80));
        const Natural got = Natural::gcd(a, b);
        // g divides gcd(a, b); gcd divides both.
        EXPECT_TRUE((got % g).is_zero());
        EXPECT_TRUE((a % got).is_zero());
        EXPECT_TRUE((b % got).is_zero());
    }
}

TEST(Natural, ComparisonIsTotalOrder)
{
    const Natural a = Natural::from_decimal("99999999999999999999");
    const Natural b = Natural::from_decimal("100000000000000000000");
    EXPECT_LT(a, b);
    EXPECT_GT(b, a);
    EXPECT_LE(a, a);
    EXPECT_EQ(a <=> a, std::strong_ordering::equal);
}

TEST(Natural, DivremQuotientRemainder)
{
    camp::Rng rng(54);
    for (int iter = 0; iter < 30; ++iter) {
        const Natural a = Natural::random_bits(rng, 1 + rng.below(3000));
        const Natural d = Natural::random_bits(rng, 1 + rng.below(1500));
        auto [q, r] = Natural::divrem(a, d);
        EXPECT_EQ(q * d + r, a);
        EXPECT_LT(r, d);
    }
}

TEST(Natural, RandomBitsHasExactBitLength)
{
    camp::Rng rng(55);
    for (std::uint64_t bits : {1u, 2u, 63u, 64u, 65u, 1000u}) {
        const Natural a = Natural::random_bits(rng, bits);
        EXPECT_EQ(a.bits(), bits);
    }
}

TEST(Natural, ToDoubleApproximation)
{
    EXPECT_DOUBLE_EQ(Natural(12345).to_double(), 12345.0);
    const Natural big = Natural(1) << 100;
    EXPECT_DOUBLE_EQ(big.to_double(), 1.2676506002282294e30);
}

TEST(Natural, PopcountAndScan)
{
    EXPECT_EQ(Natural().popcount(), 0u);
    EXPECT_EQ(Natural(0xff).popcount(), 8u);
    EXPECT_EQ(((Natural(1) << 1000) | Natural(7)).popcount(), 4u);
    EXPECT_EQ((Natural(8)).scan1(), 3u);
    EXPECT_EQ((Natural(1) << 777).scan1(), 777u);
    EXPECT_EQ(Natural().scan1(), 0u); // one past the (empty) top
    camp::Rng rng(56);
    const Natural a = Natural::random_bits(rng, 500);
    EXPECT_EQ((a << 123).trailing_zeros(), a.trailing_zeros() + 123);
}

TEST(Natural, ByteSerializationRoundTrip)
{
    camp::Rng rng(57);
    for (const std::uint64_t bits : {1u, 8u, 9u, 64u, 65u, 4000u}) {
        const Natural a = Natural::random_bits(rng, bits);
        const auto bytes = a.to_bytes();
        EXPECT_EQ(bytes.size(), (bits + 7) / 8);
        EXPECT_EQ(Natural::from_bytes(bytes.data(), bytes.size()), a);
    }
    EXPECT_TRUE(Natural().to_bytes().empty());
    EXPECT_TRUE(Natural::from_bytes(nullptr, 0).is_zero());
    const std::uint8_t le[] = {0x34, 0x12};
    EXPECT_EQ(Natural::from_bytes(le, 2).to_uint64(), 0x1234u);
}

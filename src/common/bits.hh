/**
 * @file
 * Small bit-manipulation helpers used across the memory system.
 */

#ifndef SCUSIM_COMMON_BITS_HH
#define SCUSIM_COMMON_BITS_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace scusim
{

/** True if @p v is a power of two (and non-zero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power-of-two value. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v > 1) {
        v >>= 1;
        ++l;
    }
    return l;
}

/** Smallest power of two >= v. */
constexpr std::uint64_t
ceilPowerOf2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Round @p v down to a multiple of the power-of-two @p align. */
constexpr Addr
alignDown(Addr v, Addr align)
{
    return v & ~(align - 1);
}

/** Round @p v up to a multiple of the power-of-two @p align. */
constexpr Addr
alignUp(Addr v, Addr align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Integer ceil division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * 64-bit occupancy/lane masks. The scheduler and coalescer hot paths
 * iterate set bits with the classic ctz / clear-lowest idiom:
 *
 *     for (std::uint64_t m = mask; m; m &= m - 1)
 *         use(ctz64(m));
 *
 * which visits indices in ascending order — the property the
 * first-touch-order and way-scan-order invariants rely on.
 */

/** Index of the lowest set bit (64 when @p v is zero). */
constexpr unsigned
ctz64(std::uint64_t v)
{
    return static_cast<unsigned>(std::countr_zero(v));
}

/** Number of set bits. */
constexpr unsigned
popcount64(std::uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v));
}

/** Mask with bits [0, n) set; @p n of 64 or more yields all ones. */
constexpr std::uint64_t
maskLow(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0}
                   : (std::uint64_t{1} << n) - 1;
}

/**
 * Mix the bits of a 64-bit value; used as the hash function of the
 * SCU filtering/grouping tables and of set-index hashing. This is the
 * finalizer of MurmurHash3, a cheap function with good avalanche
 * behaviour, which is the kind of function trivially implementable in
 * the hardware the paper synthesizes.
 */
constexpr std::uint64_t
mixBits(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

/**
 * Division and remainder by a divisor fixed at construction, without
 * a hardware divide: a shift and a mask when the divisor is a power
 * of two (every shipped cache and DRAM geometry), and otherwise
 * multiplications by the 128-bit reciprocal M = ceil(2^128 / d)
 * (Lemire, Kaser, Kurz, "Faster remainder by direct computation",
 * 2019). Both are exact for every 64-bit dividend: with 128 fraction
 * bits, F = 128 >= 64 + ceil(log2 d) meets the paper's Theorem 1, so
 * v / d = floor(M v / 2^128) and v mod d = floor(((M v) mod 2^128)
 * d / 2^128).
 */
class FixedDivisor
{
  public:
    explicit FixedDivisor(std::uint64_t d)
        : divisor(d), pow2(isPowerOf2(d)), shift(floorLog2(d)),
          reciprocal(pow2 || d == 0 ? 0 : ~Uint128{0} / d + 1)
    {
        panic_if(d == 0, "FixedDivisor by zero");
    }

    std::uint64_t
    div(std::uint64_t v) const
    {
        if (pow2)
            return v >> shift;
        const Uint128 lo = Uint128{low64(reciprocal)} * v;
        const Uint128 hi = Uint128{high64(reciprocal)} * v;
        return high64(hi + high64(lo));
    }

    std::uint64_t
    mod(std::uint64_t v) const
    {
        if (pow2)
            return v & (divisor - 1);
        const Uint128 frac = reciprocal * v;
        const Uint128 lo = Uint128{low64(frac)} * divisor;
        const Uint128 hi = Uint128{high64(frac)} * divisor;
        return high64(hi + high64(lo));
    }

  private:
    __extension__ typedef unsigned __int128 Uint128;

    static constexpr std::uint64_t
    low64(Uint128 v)
    {
        return static_cast<std::uint64_t>(v);
    }

    static constexpr std::uint64_t
    high64(Uint128 v)
    {
        return static_cast<std::uint64_t>(v >> 64);
    }

    std::uint64_t divisor;
    bool pow2;
    unsigned shift;
    /** ceil(2^128 / divisor); unused when the divisor is 2^n. */
    Uint128 reciprocal;
};

} // namespace scusim

#endif // SCUSIM_COMMON_BITS_HH

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
 * Division and remainder by a divisor fixed at construction: a shift
 * and a mask when the divisor is a power of two (every shipped cache
 * and DRAM geometry), a hardware divide otherwise.
 */
class FixedDivisor
{
  public:
    explicit FixedDivisor(std::uint64_t d)
        : divisor(d), pow2(isPowerOf2(d)), shift(floorLog2(d))
    {}

    std::uint64_t
    div(std::uint64_t v) const
    {
        return pow2 ? v >> shift : v / divisor;
    }

    std::uint64_t
    mod(std::uint64_t v) const
    {
        return pow2 ? v & (divisor - 1) : v % divisor;
    }

  private:
    std::uint64_t divisor;
    bool pow2;
    unsigned shift;
};

} // namespace scusim

#endif // SCUSIM_COMMON_BITS_HH

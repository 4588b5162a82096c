/**
 * @file
 * Word-parallel bit-set primitives shared by the matcher cores and the
 * incremental request bookkeeping.
 *
 * A port set over `bits` ports is stored as `numWords(bits)` uint64
 * words, least-significant word first. The helpers keep the word loops
 * in one place so the PIM/iSLIP/greedy cores and the RequestMatrix row
 * and column masks all agree on layout. Called with a word count the
 * compiler can see (PIM's one-word kernel passes 1), each loop folds
 * to straight-line code.
 *
 * Everything here is portable code: counting the set bits of a word
 * (popcount64Swar, a SWAR count) and selecting its k-th set bit
 * (selectBit64Broadword, Vigna's branch-free broadword select) are
 * inline and never reach a libgcc helper. The popcnt and BMI2 `pdep`
 * forms of the two live only in PIM's kernel (pim_kernel.inc), which
 * pim.cc compiles a second time for CPUs that have them; an inline
 * function here compiled for a wider target could be kept by the
 * linker for every caller.
 */
#ifndef AN2_MATCHING_WORDSET_H
#define AN2_MATCHING_WORDSET_H

#include <array>
#include <bit>
#include <cstdint>

#include "an2/base/error.h"

namespace an2::wordset {

inline constexpr int kWordBits = 64;

/** Words needed to hold a set over `bits` ports. */
inline constexpr int
numWords(int bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

namespace detail {

inline constexpr uint64_t kOnesStep8 = 0x0101010101010101ULL;

/** Byte b of the result holds the set bits of byte b of x: counts of
    bit pairs, then nibbles, then bytes (SWAR). */
inline constexpr uint64_t
byteCounts(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
}

/** Entry (r << 8) | v: index of the r-th (0-based) set bit of byte v,
    or 8 when v has r or fewer bits set. */
inline constexpr std::array<uint8_t, 8 * 256> kSelectInByte = [] {
    std::array<uint8_t, 8 * 256> table{};
    for (int v = 0; v < 256; ++v) {
        for (int r = 0; r < 8; ++r) {
            int rank = r;
            int bit = 0;
            for (; bit < 8; ++bit)
                if (((v >> bit) & 1) && rank-- == 0)
                    break;
            table[static_cast<size_t>(r << 8 | v)] =
                static_cast<uint8_t>(bit);
        }
    }
    return table;
}();

}  // namespace detail

/** Set bits of a word by a SWAR count: one multiply sums the byte
    counts into the top byte. (std::popcount is a libgcc call on a
    target without popcnt.) */
inline constexpr int
popcount64Swar(uint64_t x)
{
    return static_cast<int>((detail::byteCounts(x) * detail::kOnesStep8) >>
                            56);
}

/**
 * Index of the k-th (0-based) set bit of a word with more than k bits
 * set, without a branch or a loop (Vigna, "Broadword implementation of
 * rank/select queries", 2008). The SWAR count leaves each byte's count
 * in that byte, and a multiply turns them into prefix counts (byte b
 * holds the set bits of bytes 0..b). A SWAR compare of every prefix
 * against k finds the byte holding the k-th bit, and a table gives the
 * bit inside that byte.
 */
inline constexpr int
selectBit64Broadword(uint64_t x, int k)
{
    using detail::kOnesStep8;
    constexpr uint64_t kMsbsStep8 = 0x80 * kOnesStep8;
    const uint64_t sums = detail::byteCounts(x) * kOnesStep8;
    // A byte keeps its high bit when its prefix count is <= k; the
    // prefixes never exceed 64, so no byte borrows from the next.
    const uint64_t k_step8 = static_cast<uint64_t>(k) * kOnesStep8;
    const uint64_t at_most_k = ((k_step8 | kMsbsStep8) - sums) & kMsbsStep8;
    // Eight times the number of such bytes: the bit offset of the byte
    // that holds the k-th set bit.
    const int place = static_cast<int>(
        ((at_most_k >> 7) * kOnesStep8 >> 53) & ~uint64_t{7});
    const int byte_rank = k - static_cast<int>(((sums << 8) >> place) & 0xff);
    const int byte = static_cast<int>((x >> place) & 0xff);
    return place +
           detail::kSelectInByte[static_cast<size_t>(byte_rank << 8 | byte)];
}

inline bool
testBit(const uint64_t* w, int bit)
{
    return (w[bit / kWordBits] >> (bit % kWordBits)) & 1u;
}

inline void
setBit(uint64_t* w, int bit)
{
    w[bit / kWordBits] |= uint64_t{1} << (bit % kWordBits);
}

inline void
clearBit(uint64_t* w, int bit)
{
    w[bit / kWordBits] &= ~(uint64_t{1} << (bit % kWordBits));
}

inline void
clearAll(uint64_t* w, int n_words)
{
    for (int i = 0; i < n_words; ++i)
        w[i] = 0;
}

/** Set bits [0, bits), clear every bit at or above `bits`. */
inline void
fillFirst(uint64_t* w, int n_words, int bits)
{
    int full = bits / kWordBits;
    for (int i = 0; i < n_words; ++i)
        w[i] = i < full ? ~uint64_t{0} : 0;
    int tail = bits % kWordBits;
    if (tail != 0 && full < n_words)
        w[full] = (uint64_t{1} << tail) - 1;
}

inline bool
anySet(const uint64_t* w, int n_words)
{
    for (int i = 0; i < n_words; ++i)
        if (w[i] != 0)
            return true;
    return false;
}

inline int
popcountAll(const uint64_t* w, int n_words)
{
    int total = 0;
    for (int i = 0; i < n_words; ++i)
        total += popcount64Swar(w[i]);
    return total;
}

/** Lowest set bit index, or -1 when the set is empty. */
inline int
firstSet(const uint64_t* w, int n_words)
{
    for (int i = 0; i < n_words; ++i)
        if (w[i] != 0)
            return i * kWordBits + std::countr_zero(w[i]);
    return -1;
}

/** Cold, out-of-line report of a selectBit rank beyond the set's size
    (a library bug), so that selectBit itself inlines. */
[[noreturn, gnu::cold, gnu::noinline]] inline void
selectBitOutOfRange()
{
    AN2_PANIC("selectBit: fewer set bits than requested rank");
}

/** Index of the k-th (0-based) set bit; the set must have > k bits. */
inline int
selectBit(const uint64_t* w, int n_words, int k)
{
    for (int i = 0; i < n_words; ++i) {
        const int pc = popcount64Swar(w[i]);
        if (k < pc)
            return i * kWordBits + selectBit64Broadword(w[i], k);
        k -= pc;
    }
    selectBitOutOfRange();
}

/**
 * First set bit at or after `start` searching circularly over a set of
 * `bits` ports (bits above `bits` must be clear). Returns -1 when the
 * set is empty. This is the rotating-pointer primitive of iSLIP and the
 * round-robin accept policy.
 */
inline int
firstSetAtOrAfter(const uint64_t* w, int n_words, int bits, int start)
{
    AN2_ASSERT(start >= 0 && start < bits, "pointer out of range");
    int word = start / kWordBits;
    uint64_t masked = w[word] & (~uint64_t{0} << (start % kWordBits));
    if (masked != 0)
        return word * kWordBits + std::countr_zero(masked);
    for (int i = word + 1; i < n_words; ++i)
        if (w[i] != 0)
            return i * kWordBits + std::countr_zero(w[i]);
    // Wrap: [0, start).
    for (int i = 0; i <= word; ++i)
        if (w[i] != 0)
            return i * kWordBits + std::countr_zero(w[i]);
    return -1;
}

/** Invoke fn(bit) for every set bit in ascending order. */
template <typename Fn>
inline void
forEachSet(const uint64_t* w, int n_words, Fn&& fn)
{
    for (int i = 0; i < n_words; ++i)
        for (uint64_t word = w[i]; word != 0; word &= word - 1)
            fn(i * kWordBits + std::countr_zero(word));
}

/** Invoke fn(bit) for every bit set in both a and b, in ascending order.
    Each word of the intersection is read before its bits are visited, so
    fn may clear bits of a or b that it has already been handed. */
template <typename Fn>
inline void
forEachSetInBoth(const uint64_t* a, const uint64_t* b, int n_words, Fn&& fn)
{
    for (int i = 0; i < n_words; ++i)
        for (uint64_t word = a[i] & b[i]; word != 0; word &= word - 1)
            fn(i * kWordBits + std::countr_zero(word));
}

}  // namespace an2::wordset

#endif  // AN2_MATCHING_WORDSET_H

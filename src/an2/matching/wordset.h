/**
 * @file
 * Word-parallel bit-set primitives shared by the matcher cores and the
 * incremental request bookkeeping.
 *
 * A port set over `bits` ports is stored as `numWords(bits)` uint64
 * words, least-significant word first. The helpers keep the word loops
 * in one place so the PIM/iSLIP/greedy cores and the RequestMatrix row
 * and column masks all agree on layout, and so the one
 * architecture-sensitive operation — selecting the k-th set bit — has a
 * single implementation (BMI2 `_pdep_u64` when available, portable
 * popcount loop otherwise).
 */
#ifndef AN2_MATCHING_WORDSET_H
#define AN2_MATCHING_WORDSET_H

#include <bit>
#include <cstdint>

#ifdef __BMI2__
#include <immintrin.h>
#endif

#include "an2/base/error.h"

namespace an2::wordset {

inline constexpr int kWordBits = 64;

/** Words needed to hold a set over `bits` ports. */
inline constexpr int
numWords(int bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

/**
 * Index of the k-th (0-based) set bit of a single word; the word must
 * have more than k bits set. With BMI2, depositing the k-th unit bit
 * through the mask lands it on the k-th set position — one instruction
 * instead of an O(popcount) clear-lowest loop.
 */
inline int
selectBit64(uint64_t mask, int k)
{
#ifdef __BMI2__
    return std::countr_zero(_pdep_u64(uint64_t{1} << k, mask));
#else
    while (k-- > 0)
        mask &= mask - 1;  // clear lowest set bit
    return std::countr_zero(mask);
#endif
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
        total += std::popcount(w[i]);
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

/** Index of the k-th (0-based) set bit; the set must have > k bits. */
inline int
selectBit(const uint64_t* w, int n_words, int k)
{
    for (int i = 0; i < n_words; ++i) {
        int pc = std::popcount(w[i]);
        if (k < pc)
            return i * kWordBits + selectBit64(w[i], k);
        k -= pc;
    }
    AN2_PANIC("selectBit: fewer set bits than requested rank");
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

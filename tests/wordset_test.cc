// Unit tests for the word-parallel port-set primitives
// (an2/matching/wordset.h), including randomized equivalence between
// selectBit64 (BMI2 _pdep_u64 when available) and a reference scan.
// The portable bodies (popcount64Swar, selectBit64Broadword) are checked
// by name, so a BMI2 or popcnt build still tests them.
#include "an2/matching/wordset.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "an2/base/rng.h"

namespace an2 {
namespace {

using namespace wordset;

/** Reference k-th set bit: walk bits in ascending order. */
int
selectBitNaive(uint64_t mask, int k)
{
    for (int b = 0; b < 64; ++b) {
        if ((mask >> b) & 1) {
            if (k == 0)
                return b;
            --k;
        }
    }
    return -1;
}

/** Reference popcount: test every bit. */
int
popcountNaive(uint64_t mask)
{
    int n = 0;
    for (int b = 0; b < 64; ++b)
        n += static_cast<int>((mask >> b) & 1);
    return n;
}

/** Check both portable bodies and the dispatching forms on one word,
    at every rank. */
void
expectWordMatchesNaive(uint64_t mask)
{
    const int bits = popcountNaive(mask);
    ASSERT_EQ(popcount64Swar(mask), bits) << "mask=" << mask;
    ASSERT_EQ(popcount64(mask), bits) << "mask=" << mask;
    for (int k = 0; k < bits; ++k) {
        const int want = selectBitNaive(mask, k);
        ASSERT_EQ(selectBit64Broadword(mask, k), want)
            << "mask=" << mask << " k=" << k;
        ASSERT_EQ(selectBit64(mask, k), want)
            << "mask=" << mask << " k=" << k;
        ASSERT_EQ(selectBit(&mask, 1, k), want)
            << "mask=" << mask << " k=" << k;
    }
}

TEST(WordsetTest, NumWords)
{
    EXPECT_EQ(numWords(1), 1);
    EXPECT_EQ(numWords(64), 1);
    EXPECT_EQ(numWords(65), 2);
    EXPECT_EQ(numWords(128), 2);
    EXPECT_EQ(numWords(1024), 16);
}

TEST(WordsetTest, SelectBit64MatchesNaiveExhaustiveSmall)
{
    for (uint64_t mask = 1; mask < 4096; ++mask)
        for (int k = 0; k < std::popcount(mask); ++k)
            EXPECT_EQ(selectBit64(mask, k), selectBitNaive(mask, k))
                << "mask=" << mask << " k=" << k;
}

TEST(WordsetTest, SelectBit64MatchesNaiveRandomized)
{
    // The BMI2 path (_pdep_u64) and the portable clear-lowest loop must
    // agree on arbitrary masks; the naive scan is the ground truth.
    Xoshiro256 rng(99);
    for (int t = 0; t < 20'000; ++t) {
        uint64_t mask = rng.next64();
        if (t % 3 == 0)
            mask &= rng.next64();  // sparser masks
        if (mask == 0)
            continue;
        int bits = std::popcount(mask);
        int k = static_cast<int>(rng.nextBelow(static_cast<uint64_t>(bits)));
        EXPECT_EQ(selectBit64(mask, k), selectBitNaive(mask, k))
            << "mask=" << mask << " k=" << k;
    }
}

TEST(WordsetTest, PortableBodiesMatchNaiveOnEverySixteenBitMask)
{
    // Every rank of every 16-bit mask, placed in each of the four
    // 16-bit lanes so the broadword select's byte search crosses every
    // byte boundary.
    for (uint64_t mask = 0; mask < (uint64_t{1} << 16); ++mask)
        for (int lane = 0; lane < 64; lane += 16)
            expectWordMatchesNaive(mask << lane);
}

TEST(WordsetTest, PortableBodiesMatchNaiveOnEdgeWords)
{
    const uint64_t kEdges[] = {
        0, 1, uint64_t{1} << 63, ~uint64_t{0}, 0x5555555555555555ULL,
        0xaaaaaaaaaaaaaaaaULL, 0x8000000000000001ULL, 0xff000000000000ffULL,
        0x0101010101010101ULL, 0x8080808080808080ULL, ~uint64_t{0} >> 1,
        ~uint64_t{0} << 1};
    for (uint64_t mask : kEdges)
        expectWordMatchesNaive(mask);
}

TEST(WordsetTest, PortableBodiesMatchNaiveRandomized)
{
    // Dense, sparse and very sparse words: AND-ing draws thins them.
    Xoshiro256 rng(2008);
    for (int t = 0; t < 30'000; ++t) {
        uint64_t mask = rng.next64();
        for (int thin = t % 4; thin > 0; --thin)
            mask &= rng.next64();
        expectWordMatchesNaive(mask);
    }
}

TEST(WordsetTest, SelectBitOutOfRangePanics)
{
    std::vector<uint64_t> w(2, 0);
    setBit(w.data(), 3);
    setBit(w.data(), 70);
    EXPECT_EQ(selectBit(w.data(), 2, 1), 70);
    EXPECT_THROW(selectBit(w.data(), 2, 2), InternalError);
}

TEST(WordsetTest, SingleBitOps)
{
    std::vector<uint64_t> w(3, 0);
    setBit(w.data(), 0);
    setBit(w.data(), 64);
    setBit(w.data(), 191);
    EXPECT_TRUE(testBit(w.data(), 0));
    EXPECT_TRUE(testBit(w.data(), 64));
    EXPECT_TRUE(testBit(w.data(), 191));
    EXPECT_FALSE(testBit(w.data(), 63));
    EXPECT_EQ(popcountAll(w.data(), 3), 3);
    clearBit(w.data(), 64);
    EXPECT_FALSE(testBit(w.data(), 64));
    EXPECT_EQ(popcountAll(w.data(), 3), 2);
}

TEST(WordsetTest, FillFirstAndBounds)
{
    std::vector<uint64_t> w(2, ~0ULL);
    fillFirst(w.data(), 2, 70);
    EXPECT_EQ(popcountAll(w.data(), 2), 70);
    EXPECT_TRUE(testBit(w.data(), 69));
    EXPECT_FALSE(testBit(w.data(), 70));

    fillFirst(w.data(), 2, 64);  // exact word boundary
    EXPECT_EQ(w[0], ~0ULL);
    EXPECT_EQ(w[1], 0ULL);
}

TEST(WordsetTest, MultiWordSelectAndFirstSet)
{
    std::vector<uint64_t> w(3, 0);
    EXPECT_EQ(firstSet(w.data(), 3), -1);
    setBit(w.data(), 5);
    setBit(w.data(), 70);
    setBit(w.data(), 130);
    EXPECT_EQ(firstSet(w.data(), 3), 5);
    EXPECT_EQ(selectBit(w.data(), 3, 0), 5);
    EXPECT_EQ(selectBit(w.data(), 3, 1), 70);
    EXPECT_EQ(selectBit(w.data(), 3, 2), 130);
}

TEST(WordsetTest, FirstSetAtOrAfterWrapsCircularly)
{
    std::vector<uint64_t> w(2, 0);
    setBit(w.data(), 3);
    setBit(w.data(), 100);
    EXPECT_EQ(firstSetAtOrAfter(w.data(), 2, 128, 0), 3);
    EXPECT_EQ(firstSetAtOrAfter(w.data(), 2, 128, 3), 3);
    EXPECT_EQ(firstSetAtOrAfter(w.data(), 2, 128, 4), 100);
    EXPECT_EQ(firstSetAtOrAfter(w.data(), 2, 128, 100), 100);
    EXPECT_EQ(firstSetAtOrAfter(w.data(), 2, 128, 101), 3);  // wrap
    std::vector<uint64_t> empty(2, 0);
    EXPECT_EQ(firstSetAtOrAfter(empty.data(), 2, 128, 7), -1);
}

TEST(WordsetTest, FirstSetAtOrAfterMatchesMinCircularDistance)
{
    // The primitive must agree with the scalar "minimum circular
    // distance from the pointer" rule used by iSLIP and RR accept.
    Xoshiro256 rng(123);
    const int bits = 150;
    const int nw = numWords(bits);
    std::vector<uint64_t> w(static_cast<size_t>(nw));
    for (int t = 0; t < 2000; ++t) {
        clearAll(w.data(), nw);
        int set = 1 + static_cast<int>(rng.nextBelow(8));
        for (int s = 0; s < set; ++s)
            setBit(w.data(), static_cast<int>(
                                 rng.nextBelow(static_cast<uint64_t>(bits))));
        int ptr = static_cast<int>(rng.nextBelow(static_cast<uint64_t>(bits)));
        int best = -1;
        int best_dist = bits;
        for (int b = 0; b < bits; ++b) {
            if (!testBit(w.data(), b))
                continue;
            int dist = (b - ptr + bits) % bits;
            if (dist < best_dist) {
                best_dist = dist;
                best = b;
            }
        }
        EXPECT_EQ(firstSetAtOrAfter(w.data(), nw, bits, ptr), best);
    }
}

TEST(WordsetTest, ForEachSetAscending)
{
    std::vector<uint64_t> w(2, 0);
    setBit(w.data(), 1);
    setBit(w.data(), 63);
    setBit(w.data(), 64);
    setBit(w.data(), 127);
    std::vector<int> seen;
    forEachSet(w.data(), 2, [&](int b) { seen.push_back(b); });
    EXPECT_EQ(seen, (std::vector<int>{1, 63, 64, 127}));
}

}  // namespace
}  // namespace an2

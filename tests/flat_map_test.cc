// Tests for FlatMap, the linear-probe int32-keyed map behind the
// per-flow tables of the VOQs, the LAN switch and the controllers.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "an2/base/flat_map.h"

namespace an2 {
namespace {

TEST(FlatMapTest, DefaultTableHoldsEightKeys)
{
    FlatMap<int> m;
    EXPECT_EQ(m.capacity(), 8u);
    EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMapTest, PresentKeyAtHalfLoadDoesNotGrow)
{
    // Fill the table to exactly half load; touching a key already
    // there is a lookup, not an insert, and must not rehash.
    FlatMap<int> m(8);
    int32_t next = 0;
    while (m.size() < m.capacity()) {
        m[next] = next;
        ++next;
    }
    const size_t cap = m.capacity();
    m[1] += 1;
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.size(), cap);
    EXPECT_EQ(*m.get(1), 2);
    // The next distinct key is what grows the table.
    m[next] = next;
    EXPECT_EQ(m.capacity(), 2 * cap);
}

TEST(FlatMapTest, GrowthKeepsEveryKeyAndValue)
{
    FlatMap<int64_t> m;
    for (int32_t k = 0; k < 1000; ++k)
        m[k * 7 - 300] = int64_t{k} * k;
    EXPECT_EQ(m.size(), 1000u);
    EXPECT_GE(m.capacity(), 1000u);
    for (int32_t k = 0; k < 1000; ++k) {
        const int64_t* v = m.get(k * 7 - 300);
        ASSERT_NE(v, nullptr) << "key " << k * 7 - 300;
        EXPECT_EQ(*v, int64_t{k} * k);
    }
}

TEST(FlatMapTest, GetOfAbsentKeyInsertsNothing)
{
    FlatMap<int> m;
    m[5] = 1;
    EXPECT_EQ(m.get(6), nullptr);
    EXPECT_FALSE(m.contains(6));
    const FlatMap<int>& cm = m;
    EXPECT_EQ(cm.get(7), nullptr);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.contains(5));
}

TEST(FlatMapTest, ReportingViewsAreAscending)
{
    FlatMap<int> m;
    const std::vector<int32_t> keys = {42, -3, 7, 1000, 0, 19, 5};
    for (int32_t k : keys)
        m[k] = k + 1;
    EXPECT_EQ(m.sortedKeys(),
              (std::vector<int32_t>{-3, 0, 5, 7, 19, 42, 1000}));
    const std::map<int32_t, int> ordered = m.toMap();
    ASSERT_EQ(ordered.size(), keys.size());
    int32_t prev = INT32_MIN;
    for (const auto& [k, v] : ordered) {
        EXPECT_LT(prev, k);
        EXPECT_EQ(v, k + 1);
        prev = k;
    }
}

}  // namespace
}  // namespace an2

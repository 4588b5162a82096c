/**
 * @file
 * Open-addressing map from small integer keys to arbitrary values,
 * built for per-flow bookkeeping on hot paths (per-flow counts in the
 * metrics collector, routes in the LAN switch, flow slots in the VOQs):
 * looking up or mutating a key already present performs no heap
 * allocation, so a steady-state loop is allocation-free once every key
 * has been touched (asserted for the network delivery path in
 * tests/zero_alloc_test.cc). The default table is the 16-slot minimum
 * and grows on first touch; pass a hint only where the population is
 * known up front.
 *
 * The table doubles only when a *new* key pushes the load factor past
 * 1/2. Values must be default-constructible and are value-initialized
 * on first touch. Iteration order is the (deterministic) table order;
 * use sortedKeys() or toMap() when a stable, ordered view is needed
 * for reporting.
 */
#ifndef AN2_BASE_FLAT_MAP_H
#define AN2_BASE_FLAT_MAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "an2/base/error.h"

namespace an2 {

/** Linear-probe hash map from int32 keys to V values. */
template <typename V>
class FlatMap
{
  public:
    /** @param expected_keys Sizing hint; the table starts with capacity
        for at least this many keys without rehashing. */
    explicit FlatMap(int expected_keys = 8)
    {
        size_t cap = 16;
        while (cap < 2 * static_cast<size_t>(std::max(expected_keys, 1)))
            cap <<= 1;
        slots_.assign(cap, Slot{});
    }

    /** Value slot for `key`, value-initialized when absent. */
    V& operator[](int32_t key)
    {
        Slot* s = find(slots_, key);
        if (s->occupied)
            return s->value;
        if (2 * (used_ + 1) > slots_.size()) {
            grow();
            s = find(slots_, key);
        }
        s->occupied = true;
        s->key = key;
        ++used_;
        return s->value;
    }

    /** Value for `key`, or nullptr when absent. Never allocates. */
    const V* get(int32_t key) const
    {
        const Slot* s = find(const_cast<std::vector<Slot>&>(slots_), key);
        return s->occupied ? &s->value : nullptr;
    }

    V* get(int32_t key)
    {
        Slot* s = find(slots_, key);
        return s->occupied ? &s->value : nullptr;
    }

    bool contains(int32_t key) const { return get(key) != nullptr; }

    /** Distinct keys present. */
    size_t size() const { return used_; }

    /** Key capacity before the next rehash. */
    size_t capacity() const { return slots_.size() / 2; }

    /** Keys present, ascending (reporting; allocates). */
    std::vector<int32_t> sortedKeys() const
    {
        std::vector<int32_t> keys;
        keys.reserve(used_);
        for (const Slot& s : slots_)
            if (s.occupied)
                keys.push_back(s.key);
        std::sort(keys.begin(), keys.end());
        return keys;
    }

    /** The contents as an ordered map (reporting; allocates). */
    std::map<int32_t, V> toMap() const
    {
        std::map<int32_t, V> out;
        for (const Slot& s : slots_)
            if (s.occupied)
                out[s.key] = s.value;
        return out;
    }

  private:
    struct Slot
    {
        V value{};
        int32_t key = 0;
        bool occupied = false;
    };

    /** First slot holding `key`, or the empty slot where it belongs. */
    static Slot* find(std::vector<Slot>& slots, int32_t key)
    {
        // Fibonacci hashing spreads consecutive flow ids; capacity is a
        // power of two so the mask replaces a modulo.
        size_t mask = slots.size() - 1;
        size_t idx =
            (static_cast<uint64_t>(static_cast<uint32_t>(key)) *
             UINT64_C(0x9e3779b97f4a7c15) >> 32) & mask;
        while (slots[idx].occupied && slots[idx].key != key)
            idx = (idx + 1) & mask;
        return &slots[idx];
    }

    void grow()
    {
        std::vector<Slot> bigger(slots_.size() * 2);
        for (Slot& s : slots_) {
            if (!s.occupied)
                continue;
            Slot* dst = find(bigger, s.key);
            *dst = std::move(s);
        }
        slots_.swap(bigger);
    }

    std::vector<Slot> slots_;
    size_t used_ = 0;
};

}  // namespace an2

#endif  // AN2_BASE_FLAT_MAP_H

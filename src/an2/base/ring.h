/**
 * @file
 * A minimal FIFO ring buffer over contiguous storage.
 *
 * std::deque is the natural fit for the round-robin rotation pattern
 * (pop_front + push_back), but libstdc++'s deque allocates and frees
 * 512-byte blocks as the logical window slides — steady-state rotation
 * allocates every ~64 operations. RingQueue keeps a power-of-two vector
 * and wraps indices, so rotation at constant occupancy never touches the
 * heap; it grows (doubling) only when full.
 */
#ifndef AN2_BASE_RING_H
#define AN2_BASE_RING_H

#include <cstddef>
#include <utility>
#include <vector>

#include "an2/base/error.h"

namespace an2 {

/** FIFO queue with amortized-O(1), steady-state allocation-free ops. */
template <typename T>
class RingQueue
{
  public:
    RingQueue() = default;

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    const T& front() const
    {
        AN2_ASSERT(size_ > 0, "front() on empty RingQueue");
        return buf_[head_];
    }

    const T& back() const
    {
        AN2_ASSERT(size_ > 0, "back() on empty RingQueue");
        return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
    }

    void push_back(const T& value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = value;
        ++size_;
    }

    void pop_front()
    {
        AN2_ASSERT(size_ > 0, "pop_front() on empty RingQueue");
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Element i positions after the front (i < size()). */
    const T& at(size_t i) const
    {
        AN2_ASSERT(i < size_, "RingQueue index " << i << " out of range");
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    /** Remove element i positions after the front (i < size()); the rest
        keep their order. O(i): the elements ahead of it move back one. */
    void erase(size_t i)
    {
        AN2_ASSERT(i < size_, "RingQueue index " << i << " out of range");
        const size_t mask = buf_.size() - 1;
        for (; i > 0; --i)
            buf_[(head_ + i) & mask] = std::move(buf_[(head_ + i - 1) & mask]);
        pop_front();
    }

  private:
    void grow()
    {
        size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
        std::vector<T> next(new_cap);
        for (size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_;  ///< power-of-two capacity
    size_t head_ = 0;
    size_t size_ = 0;
};

}  // namespace an2

#endif  // AN2_BASE_RING_H

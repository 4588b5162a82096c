/**
 * @file
 * Deterministic pseudo-random number generation for an2sim.
 *
 * All randomness in the library flows through the Rng interface so that
 * (i) every simulation is reproducible bit-for-bit from its seed and
 * (ii) the PRNG-quality insensitivity claim of paper §3.3 ("the number of
 * iterations needed by parallel iterative matching is relatively
 * insensitive to the technique used to approximate randomness") can be
 * tested by swapping in a deliberately weak generator.
 */
#ifndef AN2_BASE_RNG_H
#define AN2_BASE_RNG_H

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "an2/base/error.h"

namespace an2 {

/**
 * Random source abstraction with convenience distributions.
 *
 * Subclasses supply raw 64-bit output; the non-virtual helpers implement
 * the distributions the schedulers need (bounded integers, Bernoulli
 * trials, weighted choice, shuffles).
 */
class Rng
{
  public:
    virtual ~Rng() = default;

    /** Next raw 64 bits from the underlying engine. */
    virtual uint64_t next64() = 0;

    /** Clone this generator, including its current state. */
    virtual std::unique_ptr<Rng> clone() const = 0;

    /** Uniform integer in [0, bound); bound must be positive. */
    uint64_t
    nextBelow(uint64_t bound)
    {
        AN2_ASSERT(bound > 0, "nextBelow bound must be positive");
        // Debiased multiply-shift (Lemire): a draw is rejected when the
        // low word of r * bound falls below (2^64 - bound) % bound. That
        // threshold is below bound, so a low word >= bound is accepted
        // without the division, and the values and draws consumed are
        // those of the plain rejection loop.
        __uint128_t m = static_cast<__uint128_t>(next64()) * bound;
        if (static_cast<uint64_t>(m) < bound) {
            const uint64_t threshold = (-bound) % bound;
            while (static_cast<uint64_t>(m) < threshold)
                m = static_cast<__uint128_t>(next64()) * bound;
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    nextInRange(int64_t lo, int64_t hi)
    {
        AN2_ASSERT(lo <= hi, "empty range");
        return lo + static_cast<int64_t>(
                        nextBelow(static_cast<uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool
    nextBernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Choose an index in [0, weights.size()) with probability proportional
     * to weights[i]. Weights must be non-negative with a positive sum.
     */
    size_t
    pickWeighted(const std::vector<double>& weights)
    {
        double total = 0.0;
        for (double w : weights) {
            AN2_ASSERT(w >= 0.0, "negative weight");
            total += w;
        }
        AN2_REQUIRE(total > 0.0, "pickWeighted needs a positive total");
        double x = nextDouble() * total;
        double acc = 0.0;
        for (size_t i = 0; i < weights.size(); ++i) {
            acc += weights[i];
            if (x < acc)
                return i;
        }
        return weights.size() - 1;  // floating-point edge; pick last
    }

    /** Integer-weighted choice; weights must have a positive sum. */
    size_t
    pickWeighted(const std::vector<int>& weights)
    {
        int64_t total = 0;
        for (int w : weights) {
            AN2_ASSERT(w >= 0, "negative weight");
            total += w;
        }
        AN2_REQUIRE(total > 0, "pickWeighted needs a positive total");
        auto x = static_cast<int64_t>(nextBelow(static_cast<uint64_t>(total)));
        for (size_t i = 0; i < weights.size(); ++i) {
            x -= weights[i];
            if (x < 0)
                return i;
        }
        return weights.size() - 1;
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = nextBelow(i);
            std::swap(v[i - 1], v[j]);
        }
    }
};

/**
 * xoshiro256** by Blackman & Vigna: the library's default engine. Fast,
 * high quality, and trivially seedable via splitmix64.
 */
class Xoshiro256 final : public Rng
{
  public:
    /** Seed deterministically; distinct seeds give independent streams. */
    explicit Xoshiro256(uint64_t seed);

    /** Defined here so that a caller holding the engine by value (the
        traffic generators) inlines its draws. */
    uint64_t
    next64() override
    {
        const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    std::unique_ptr<Rng> clone() const override;

  private:
    uint64_t s_[4];
};

/**
 * A deliberately weak 16-bit-state linear congruential generator, used only
 * by the §3.3 PRNG-sensitivity ablation. Do not use elsewhere.
 */
class WeakLcg final : public Rng
{
  public:
    explicit WeakLcg(uint64_t seed) : state_(static_cast<uint16_t>(seed | 1)) {}

    uint64_t next64() override;
    std::unique_ptr<Rng> clone() const override;

  private:
    uint16_t state_;
};

/** splitmix64 step; used for seeding and as a cheap hash. */
uint64_t splitmix64(uint64_t& state);

}  // namespace an2

#endif  // AN2_BASE_RNG_H

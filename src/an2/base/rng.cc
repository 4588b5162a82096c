#include "an2/base/rng.h"

namespace an2 {

uint64_t
splitmix64(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto& word : s_)
        word = splitmix64(sm);
}

std::unique_ptr<Rng>
Xoshiro256::clone() const
{
    return std::make_unique<Xoshiro256>(*this);
}

uint64_t
WeakLcg::next64()
{
    // 16-bit LCG (Numerical Recipes constants reduced mod 2^16). We
    // replicate the high byte across the word so that even consumers of
    // high-order bits see the weak stream.
    state_ = static_cast<uint16_t>(state_ * 25173u + 13849u);
    auto b = static_cast<uint64_t>(state_ >> 8);
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
        out = (out << 8) | b;
        state_ = static_cast<uint16_t>(state_ * 25173u + 13849u);
        b = static_cast<uint64_t>(state_ >> 8);
    }
    return out;
}

std::unique_ptr<Rng>
WeakLcg::clone() const
{
    return std::make_unique<WeakLcg>(*this);
}

}  // namespace an2

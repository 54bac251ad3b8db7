#include "common/rng.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace hammer::common {

namespace {

/** splitmix64 step; used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : spareNormal_(0.0), hasSpare_(false)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro must not be seeded with the all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    require(bound > 0, "Rng::uniformInt: bound must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound; // == 2^64 mod bound
    for (;;) {
        const std::uint64_t r = (*this)();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    require(!weights.empty(), "Rng::discrete: empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        require(w >= 0.0, "Rng::discrete: negative weight");
        total += w;
    }
    require(total > 0.0, "Rng::discrete: all weights are zero");

    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    // Floating-point slack: fall back to the last positive weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    Rng child(0);
    child.spareNormal_ = 0.0;
    child.hasSpare_ = false;
    // Mix the full 256-bit parent state with the stream counter
    // through splitmix64.  Weyl-sequence multiplier on the counter
    // decorrelates adjacent stream ids before the first mix.
    std::uint64_t sm =
        stream_id * 0xA24BAED4963EE407ull + 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < 4; ++i) {
        sm ^= s_[i];
        child.s_[i] = splitmix64(sm);
    }
    if (!(child.s_[0] | child.s_[1] | child.s_[2] | child.s_[3]))
        child.s_[0] = 1;
    return child;
}

void
Rng::jump()
{
    static constexpr std::uint64_t kJump[] = {
        0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull,
        0xA9582618E03FC9AAull, 0x39ABDC4529B1661Cull};

    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t word : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (word & (std::uint64_t{1} << b)) {
                s0 ^= s_[0];
                s1 ^= s_[1];
                s2 ^= s_[2];
                s3 ^= s_[3];
            }
            (*this)();
        }
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
    hasSpare_ = false;
}

} // namespace hammer::common

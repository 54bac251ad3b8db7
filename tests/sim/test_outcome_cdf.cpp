/**
 * @file
 * OutcomeCdf: sampling a materialised CDF must return exactly what
 * StateVector::sampleShots's sorted sweep returns, draw for draw, and
 * leave the RNG in the same place.  The edge cases are the ones where
 * a binary search and a running sum could disagree: a draw equal to a
 * CDF entry, a draw at or beyond the total, and runs of
 * zero-probability amplitudes (flat CDF stretches).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using namespace hammer::sim;

/** Random amplitudes with zero runs at the start, middle and end. */
StateVector
stateWithZeroRuns(int n, Rng &rng)
{
    StateVector sv(n);
    const std::size_t dim = sv.dimension();
    for (std::size_t i = 0; i < dim; ++i) {
        const std::size_t run = dim / 8;
        const bool zero = i < run ||
                          (i >= dim / 2 && i < dim / 2 + run) ||
                          i + run >= dim;
        sv.setAmplitude(i, zero ? Amp(0.0)
                                : Amp(rng.uniform(-1.0, 1.0),
                                      rng.uniform(-1.0, 1.0)));
    }
    if (sv.normSquared() == 0.0)
        sv.setAmplitude(0, Amp(1.0));
    return sv;
}

/** Both samplers on copies of one stream: same outcomes, same end. */
void
expectSameSampling(const StateVector &state, const OutcomeCdf &cdf,
                   std::uint64_t seed, int shots)
{
    Rng a(seed), b(seed);
    EXPECT_EQ(cdf.sampleShots(a, shots), state.sampleShots(b, shots))
        << "seed " << seed << " shots " << shots;
    EXPECT_EQ(a(), b()) << "RNG streams must end in lockstep";
}

TEST(OutcomeCdf, TotalIsTheStateNormBitForBit)
{
    Rng rng(5);
    for (int n = 1; n <= 8; ++n) {
        const StateVector state = stateWithZeroRuns(n, rng);
        const OutcomeCdf cdf(state);
        EXPECT_EQ(cdf.dimension(), state.dimension());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cdf.total()),
                  std::bit_cast<std::uint64_t>(state.normSquared()));
    }
}

TEST(OutcomeCdf, SamplesLikeTheStateSweep)
{
    Rng rng(11);
    for (int n = 1; n <= 8; ++n) {
        const StateVector state = stateWithZeroRuns(n, rng);
        const OutcomeCdf cdf(state);
        for (std::uint64_t seed = 0; seed < 8; ++seed)
            for (const int shots : {0, 1, 7, 300})
                expectSameSampling(state, cdf, seed, shots);
    }
}

TEST(OutcomeCdf, DrawsOnCdfEntriesAndAtTheTotal)
{
    // Amplitudes in units of 2^-537, so every probability and every
    // running sum is an exact multiple of the smallest subnormal.  A
    // draw (uniform * total) then rounds to a whole number of units:
    // most draws equal a CDF entry exactly, some equal the total, and
    // the zero runs leave flat stretches of equal entries.
    const double unit = std::ldexp(1.0, -537);
    StateVector state(3);
    state.setAmplitude(0, Amp(0.0));
    state.setAmplitude(1, Amp(unit));            // cdf 1
    state.setAmplitude(2, Amp(0.0));             // cdf 1
    state.setAmplitude(3, Amp(0.0));             // cdf 1
    state.setAmplitude(4, Amp(unit, unit));      // cdf 3
    state.setAmplitude(5, Amp(2.0 * unit));      // cdf 7
    state.setAmplitude(6, Amp(0.0));             // cdf 7
    state.setAmplitude(7, Amp(0.0));             // cdf 7
    const OutcomeCdf cdf(state);
    const double sub = std::numeric_limits<double>::denorm_min();
    ASSERT_EQ(cdf.total(), 7.0 * sub);

    constexpr int kShots = 4000;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        expectSameSampling(state, cdf, seed, kShots);

        // Replay the draws to show both edge cases really occurred.
        Rng rng(seed);
        int onEntry = 0, atTotal = 0;
        for (int s = 0; s < kShots; ++s) {
            const double r = rng.uniform() * cdf.total();
            onEntry += r == sub || r == 3.0 * sub;
            atTotal += r == cdf.total();
            EXPECT_EQ(cdf.outcome(r),
                      r == cdf.total() ? Bits{7}
                      : r >= 3.0 * sub ? Bits{5}
                      : r >= sub       ? Bits{4}
                                       : Bits{1});
        }
        EXPECT_GT(onEntry, 0);
        EXPECT_GT(atTotal, 0);
    }
}

/**
 * The sorted sweep's rule for one draw @p r: the first index whose
 * running sum exceeds it, or the last basis state when none does.
 */
Bits
sweepOutcome(const StateVector &state, double r)
{
    const double *re = state.reData();
    const double *im = state.imData();
    double acc = 0.0;
    for (std::size_t i = 0; i < state.dimension(); ++i) {
        acc += re[i] * re[i] + im[i] * im[i];
        if (r < acc)
            return i;
    }
    return state.dimension() - 1;
}

TEST(OutcomeCdf, DrawsBeyondTheTotalLandOnTheLastState)
{
    // Draws scaled by twice the true total: half of them fall beyond
    // the last CDF entry.  outcome() must resolve every one of those
    // draws like the sweep's running-sum rule does.
    Rng fill(23);
    const StateVector state = stateWithZeroRuns(6, fill);
    const OutcomeCdf cdf(state);
    const double norm = 2.0 * cdf.total();
    constexpr int kShots = 500;

    Rng b(31);
    int beyond = 0;
    for (int s = 0; s < kShots; ++s) {
        const double r = b.uniform() * norm;
        beyond += r > cdf.total();
        EXPECT_EQ(cdf.outcome(r), sweepOutcome(state, r))
            << "draw " << s;
    }
    EXPECT_GT(beyond, 0);
    EXPECT_EQ(cdf.outcome(cdf.total()), state.dimension() - 1);
    EXPECT_EQ(cdf.outcome(std::numeric_limits<double>::infinity()),
              state.dimension() - 1);
}

} // namespace

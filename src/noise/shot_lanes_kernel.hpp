/**
 * @file
 * The channel shot lanes (shot_lanes.hpp), written once against a
 * small u64 vector type V and instantiated in each tier's kernel
 * file.
 *
 * V provides, for `width` u64 lanes (U = u64 lanes, D = double
 * lanes, M = lane mask):
 *   load(const uint64_t *), set1(uint64_t), load32 / store32 (lanes
 *   <-> uint32), loadDraws(const double *),
 *   add, bitAnd, bitOr, bitXor, shl<k>, shr<k>, rotl<k>, shrVar(a, k),
 *   lt(a, b) and eq(a, b) (values below 2^63), nonZero(a),
 *   select(m, a, b) (b where m, else a), maskXor(a, m, b) (a ^ b where
 *   m, else a), maskRotl<k>, maskAnd, maskAndNot (a & ~b), any(m),
 *   gather(const uint64_t *, idx), gatherCdf(const double *, idx),
 *   notLess(r, v) (!(r < v), true when unordered) and toDraw(x,
 *   total) (uniform() * total of raw draw x, rounded as the scalar
 *   code rounds it).
 *
 * Every template here takes V, so each instantiation lives only in
 * the file compiled with V's instruction set.
 */

#ifndef HAMMER_NOISE_SHOT_LANES_KERNEL_HPP
#define HAMMER_NOISE_SHOT_LANES_KERNEL_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "noise/shot_lanes.hpp"

namespace hammer::noise::lanes {

/** CDF searches interleaved per group, to overlap their gathers. */
inline constexpr int kInterleave = 4;

static_assert(kChunkShots % kInterleave == 0,
              "a chunk must split into whole interleaved groups");

/**
 * One xoshiro256** step on the lanes of @p live; the others keep
 * their state.  Returns every lane's output (only live lanes' are
 * draws).  x * 5 and x * 9 are shift-adds, exactly mod 2^64.  Each
 * state word is updated by a masked op, so a masked-off lane keeps
 * its words through every step and the chain from one draw to the
 * next stays two ops deep.
 */
template <typename V>
inline typename V::U
next(typename V::U s[4], typename V::M live)
{
    using U = typename V::U;
    const U s1x5 = V::add(V::template shl<2>(s[1]), s[1]);
    const U rot = V::template rotl<7>(s1x5);
    const U result = V::add(V::template shl<3>(rot), rot);
    const U t = V::template shl<17>(s[1]);
    s[2] = V::maskXor(s[2], live, s[0]);
    s[3] = V::maskXor(s[3], live, s[1]);
    s[1] = V::maskXor(s[1], live, s[2]);
    s[0] = V::maskXor(s[0], live, s[3]);
    s[2] = V::maskXor(s[2], live, t);
    s[3] = V::template maskRotl<45>(s[3], live);
    return result;
}

/** Lanes whose Bernoulli trial at @p bound succeeds on draw x. */
template <typename V>
inline typename V::M
trial(typename V::U x, typename V::U bound)
{
    return V::lt(V::template shr<11>(x), bound);
}

/**
 * Branchless upper_bound over a 2^n CDF: the count c of entries
 * e with !(r < e), clamped to dim - 1.  Invariant before the step of
 * size s: pos <= c <= pos + 2s; the last compare adds the final
 * entry.  !(r < e) is std::upper_bound's own test, so a NaN draw
 * lands on the last state there and here.
 */
template <typename V>
inline void
search(const double *cdf, std::size_t dim, const typename V::D *r,
       typename V::U *pos)
{
    using U = typename V::U;
    for (int u = 0; u < kInterleave; ++u)
        pos[u] = V::set1(0);
    for (std::size_t step = dim >> 1; step > 0; step >>= 1) {
        const U stride = V::set1(step);
        const U probe = V::set1(step - 1);
        for (int u = 0; u < kInterleave; ++u) {
            const auto v = V::gatherCdf(cdf, V::add(pos[u], probe));
            pos[u] = V::select(V::notLess(r[u], v), pos[u],
                               V::add(pos[u], stride));
        }
    }
    const U one = V::set1(1);
    const U end = V::set1(dim);
    const U last = V::set1(dim - 1);
    for (int u = 0; u < kInterleave; ++u) {
        const auto v = V::gatherCdf(cdf, pos[u]);
        const U c = V::select(V::notLess(r[u], v), pos[u],
                              V::add(pos[u], one));
        pos[u] = V::select(V::eq(c, end), c, last);
    }
}

/** ShotLanes::outcomes for V. */
template <typename V>
void
outcomes(const double *cdf, std::size_t dimension, const double *r,
         std::size_t count, std::uint32_t *out)
{
    constexpr std::size_t kBlock = V::width * kInterleave;
    for (std::size_t i = 0; i < count; i += kBlock) {
        double draws[kBlock] = {};
        std::copy(r + i, r + std::min(count, i + kBlock), draws);
        typename V::D d[kInterleave];
        typename V::U pos[kInterleave];
        for (int u = 0; u < kInterleave; ++u)
            d[u] = V::loadDraws(draws + u * V::width);
        search<V>(cdf, dimension, d, pos);
        std::uint32_t found[kBlock];
        for (int u = 0; u < kInterleave; ++u)
            V::store32(found + u * V::width, pos[u]);
        std::copy(found, found + std::min(kBlock, count - i), out + i);
    }
}

/** ShotLanes::run for V. */
template <typename V>
void
run(const ShotLanePlan &plan, const common::Rng *streams,
    const int *quotas, int lanes, std::uint32_t *out)
{
    using U = typename V::U;
    using M = typename V::M;
    constexpr int W = V::width;

    // Lanes past `lanes` keep a zero state and a zero quota: they
    // never draw.
    std::uint64_t words[4][W] = {};
    std::uint64_t quota_words[W] = {};
    int most = 0;
    for (int l = 0; l < lanes; ++l) {
        const std::uint64_t *state = streams[l].state();
        for (int k = 0; k < 4; ++k)
            words[k][l] = state[k];
        quota_words[l] = static_cast<std::uint64_t>(quotas[l]);
        most = std::max(most, quotas[l]);
    }
    U s[4];
    for (int k = 0; k < 4; ++k)
        s[k] = V::load(words[k]);
    const U quota = V::load(quota_words);
    const U mask = V::set1(plan.mask);

    // 1. Every CDF draw of each lane, resolved and relabelled into
    //    logical order, kInterleave shots per round.
    for (int shot = 0; shot < most; shot += kInterleave) {
        typename V::D r[kInterleave];
        U pos[kInterleave];
        for (int u = 0; u < kInterleave; ++u) {
            const M live = V::lt(V::set1(shot + u), quota);
            r[u] = V::toDraw(next<V>(s, live), plan.total);
        }
        search<V>(plan.cdf, plan.dimension, r, pos);
        for (int u = 0; u < kInterleave; ++u) {
            U logical = V::set1(0);
            for (std::size_t b = 0; b < plan.relabelBytes; ++b) {
                const U byte = V::bitAnd(
                    V::shrVar(pos[u], static_cast<int>(8 * b)),
                    V::set1(0xFF));
                logical = V::bitOr(
                    logical,
                    V::gather(plan.relabel,
                              V::add(byte, V::set1(256 * b))));
            }
            V::store32(out + (shot + u) * W, V::bitAnd(logical, mask));
        }
    }

    // 2. Each shot's channel draws, in applyShotNoise's order.
    const U scramble = V::set1(plan.scrambleBound);
    const U burst = V::set1(plan.burstBound);
    const U pattern = V::set1(plan.burstPattern);
    for (int shot = 0; shot < most; ++shot) {
        std::uint32_t *slot = out + shot * W;
        U observed = V::load32(slot);
        U result = observed;
        M live = V::lt(V::set1(shot), quota);
        if (plan.scrambleBound != 0) {
            const M fire = V::maskAnd(live, trial<V>(next<V>(s, live),
                                                     scramble));
            result = V::select(fire, result,
                               V::bitAnd(next<V>(s, fire), mask));
            live = V::maskAndNot(live, fire);
        }
        if (plan.burstBound != 0) {
            const M fire =
                V::maskAnd(live, trial<V>(next<V>(s, live), burst));
            result = V::select(fire, result, V::bitXor(observed, pattern));
            live = V::maskAndNot(live, fire);
        }
        if (V::any(live)) {
            for (std::size_t p = 0; p < plan.pairBound.size(); ++p) {
                const M fire = V::maskAnd(
                    live, trial<V>(next<V>(s, live),
                                   V::set1(plan.pairBound[p])));
                observed =
                    V::maskXor(observed, fire, V::set1(plan.pairMask[p]));
            }
            // Bit q's own flip is the only later change to bit q, so
            // every bit's bound is read off `observed` as it stands
            // here, and the flips gather apart: no draw waits on the
            // outcome of the one before.
            U flips = V::set1(0);
            for (int q = 0; q < plan.measuredQubits; ++q) {
                const auto i = static_cast<std::size_t>(q);
                if ((plan.flipBound0[i] | plan.flipBound1[i]) == 0)
                    continue;
                const U bit = V::set1(std::uint64_t{1} << q);
                // The bound this lane's bit selects; a zero one
                // (probability 0.0) takes no draw.
                const U bound =
                    V::select(V::nonZero(V::bitAnd(observed, bit)),
                              V::set1(plan.flipBound0[i]),
                              V::set1(plan.flipBound1[i]));
                const M draw = V::maskAnd(live, V::nonZero(bound));
                const M fire =
                    V::maskAnd(draw, trial<V>(next<V>(s, draw), bound));
                flips = V::maskXor(flips, fire, bit);
            }
            result = V::select(live, result, V::bitXor(observed, flips));
        }
        V::store32(slot, result);
    }
}

} // namespace hammer::noise::lanes

#endif // HAMMER_NOISE_SHOT_LANES_KERNEL_HPP

/**
 * @file
 * Cross-tier parity for the runtime-dispatched SIMD kernel table.
 *
 * The contract under test (the bit-identity invariant of the SoA
 * engine): every supported ISA tier — scalar, SSE2, AVX2, NEON, and
 * avx512 through AVX2's table — produces EXACTLY the same amplitudes as the scalar reference for
 * every kernel, both single-state and batched, because all tiers
 * instantiate the same per-lane formulas and the build disables FMA
 * contraction.  EXPECT_EQ on doubles throughout; no tolerances.
 *
 * These tests force tiers in-process via setActiveKernels(), so one
 * binary run covers every tier the host supports.  The ctest
 * tier_parity_* legs additionally re-run the whole suite under
 * HAMMER_KERNELS=<tier> to exercise the env-probe path.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/circuit.hpp"
#include "sim/compiled.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"

namespace {

using hammer::common::Rng;
using namespace hammer::sim;

/** Scoped kernel-table override; always reverts to the probe. */
class TierGuard
{
  public:
    explicit TierGuard(KernelTier tier)
    {
        const KernelTable *table = kernelsForTier(tier);
        EXPECT_NE(table, nullptr)
            << "guard must only be built for supported tiers";
        setActiveKernels(table);
    }
    ~TierGuard() { setActiveKernels(nullptr); }
};

StateVector
randomState(int n, Rng &rng)
{
    StateVector sv(n);
    for (std::size_t i = 0; i < sv.dimension(); ++i)
        sv.setAmplitude(i, Amp(rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.0, 1.0)));
    return sv;
}

Mat2
randomMat(Rng &rng)
{
    Mat2 m;
    for (Amp &e : m)
        e = Amp(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return m;
}

void
expectBitIdentical(const StateVector &got, const StateVector &want,
                   const char *what)
{
    ASSERT_EQ(got.dimension(), want.dimension());
    for (std::size_t i = 0; i < got.dimension(); ++i) {
        ASSERT_EQ(got.amplitude(i).real(), want.amplitude(i).real())
            << what << ": re mismatch at index " << i;
        ASSERT_EQ(got.amplitude(i).imag(), want.amplitude(i).imag())
            << what << ": im mismatch at index " << i;
    }
}

/**
 * Every gate kernel once per qubit.  Templated so the same stream
 * drives a StateVector and every lane of a BatchedStateVector.
 */
template <typename State>
void
runAllKernels(State &sv, const Mat2 &m, Rng &rng)
{
    const int qubits = [&] {
        int q = 0;
        for (std::size_t d = sv.dimension(); d > 1; d >>= 1)
            ++q;
        return q;
    }();
    for (int q = 0; q < qubits; ++q) {
        sv.apply1q(m, q);
        sv.applyDiagonal(Amp(0.8, -0.1), Amp(-0.3, 0.95), q);
        sv.applyPhase(Amp(0.6, -0.8), q);
        sv.applyX(q);
        sv.applyY(q);
        if (qubits < 2)
            continue;
        const int p = (q + 1 +
                       static_cast<int>(rng.uniformInt(
                           static_cast<std::uint64_t>(qubits - 1)))) %
            qubits;
        if (p != q) {
            sv.applyCX(q, p);
            sv.applyCZ(q, p);
            sv.applySwap(q, p);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysSupported)
{
    EXPECT_TRUE(tierCompiled(KernelTier::Scalar));
    EXPECT_TRUE(tierSupported(KernelTier::Scalar));
    const auto tiers = supportedTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), KernelTier::Scalar);
    EXPECT_EQ(tiers.back(), bestSupportedTier());
}

TEST(KernelDispatch, TierNamesRoundTrip)
{
    for (const KernelTier tier :
         {KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2,
          KernelTier::Avx512, KernelTier::Neon}) {
        KernelTier parsed;
        ASSERT_TRUE(parseTier(tierName(tier), parsed));
        EXPECT_EQ(parsed, tier);
    }
    KernelTier parsed;
    EXPECT_FALSE(parseTier("avx1024", parsed));
    EXPECT_FALSE(parseTier("AVX2", parsed));
    EXPECT_FALSE(parseTier("", parsed));
}

TEST(KernelDispatch, LowerTierWalksEachIsaFamilyDownToScalar)
{
    using hammer::common::lowerTier;
    EXPECT_EQ(lowerTier(KernelTier::Avx512), KernelTier::Avx2);
    EXPECT_EQ(lowerTier(KernelTier::Avx2), KernelTier::Sse2);
    EXPECT_EQ(lowerTier(KernelTier::Sse2), KernelTier::Scalar);
    EXPECT_EQ(lowerTier(KernelTier::Neon), KernelTier::Scalar);
    EXPECT_EQ(lowerTier(KernelTier::Scalar), KernelTier::Scalar);
}

TEST(KernelDispatch, EverySupportedTierResolvesToATable)
{
    // A supported tier without a sim table of its own (avx512) runs
    // the highest table below it; activeKernels() dereferences this.
    for (const KernelTier tier : supportedTiers()) {
        const KernelTable *table = kernelsForTier(tier);
        ASSERT_NE(table, nullptr) << tierName(tier);
        EXPECT_EQ(kernelsForTier(table->tier), table) << tierName(tier);
        // Walk down from the tier: the table's tier must be the first
        // one on the way that has a table of its own.
        for (KernelTier t = tier; t != table->tier;
             t = hammer::common::lowerTier(t)) {
            ASSERT_NE(t, KernelTier::Scalar)
                << tierName(tier) << " resolved to "
                << tierName(table->tier) << ", which is not below it";
            EXPECT_NE(kernelsForTier(t)->tier, t) << tierName(t);
        }
    }
    EXPECT_EQ(&activeKernels(),
              kernelsForTier(hammer::common::probedTier()));
}

TEST(KernelDispatch, TablesDeclareTheirTier)
{
    for (const KernelTier tier : supportedTiers()) {
        const KernelTable *table = kernelsForTier(tier);
        ASSERT_NE(table, nullptr);
        // avx512 has no sim table of its own: it runs AVX2's.
        EXPECT_EQ(table->tier,
                  tier == KernelTier::Avx512 ? KernelTier::Avx2 : tier);
        EXPECT_GE(table->lanes, 1);
        EXPECT_EQ(kBatchLaneMultiple %
                      static_cast<std::size_t>(table->lanes),
                  0u)
            << "batch stride must be divisible by every tier width";
    }
}

TEST(KernelDispatch, UnsupportedTierHasNoTable)
{
    for (const KernelTier tier :
         {KernelTier::Sse2, KernelTier::Avx2, KernelTier::Avx512,
          KernelTier::Neon}) {
        if (!tierSupported(tier)) {
            EXPECT_EQ(kernelsForTier(tier), nullptr);
        }
    }
}

TEST(KernelDispatch, SetActiveKernelsOverridesAndReverts)
{
    const KernelTable &probed = activeKernels();
    setActiveKernels(&kScalarKernels);
    EXPECT_EQ(activeKernels().tier, KernelTier::Scalar);
    setActiveKernels(nullptr);
    EXPECT_EQ(activeKernels().tier, probed.tier);
}

// ---------------------------------------------------------------------------
// Single-state parity: every supported tier == scalar, exactly
// ---------------------------------------------------------------------------

TEST(TierParity, SingleStateKernelsMatchScalarExactly)
{
    // n in {1..4} exercises the scalar-fallback branches (mask below
    // vector width); n in {6, 9} the vector paths with several
    // iterations of the half/quarter-space loops.
    for (const int n : {1, 2, 3, 4, 6, 9}) {
        Rng seedRng(2000 + n);
        const StateVector init = randomState(n, seedRng);
        const Mat2 m = randomMat(seedRng);

        StateVector want = init;
        {
            TierGuard guard(KernelTier::Scalar);
            Rng r(77);
            runAllKernels(want, m, r);
        }
        for (const KernelTier tier : supportedTiers()) {
            StateVector got = init;
            {
                TierGuard guard(tier);
                Rng r(77);
                runAllKernels(got, m, r);
            }
            expectBitIdentical(got, want, tierName(tier));
        }
    }
}

TEST(TierParity, LowMaskPairKernelsMatchScalarBitForBit)
{
    // Masks 1 and 2 put both members of a pair in one register; the
    // wider tiers regroup registers by shuffles there (and fall back to
    // scalar below two registers of state).  Every dim from 2 to 64,
    // on raw planes followed by guard cells: a vector walk on a state
    // narrower than two registers would rewrite the guards.
    Rng rng(0x10F);
    const Mat2 m = randomMat(rng);
    const double mc[8] = {m[0].real(), m[0].imag(), m[1].real(),
                          m[1].imag(), m[2].real(), m[2].imag(),
                          m[3].real(), m[3].imag()};
    const double dc[4] = {0.8, -0.1, -0.3, 0.95};
    using Run = void (*)(const KernelTable &, double *, double *,
                         std::size_t, std::size_t, const double *,
                         const double *);
    const std::vector<std::pair<const char *, Run>> kernels = {
        {"apply1q",
         [](const KernelTable &k, double *re, double *im, std::size_t dim,
            std::size_t mask, const double *mat, const double *) {
             k.apply1q(re, im, dim, mask, mat);
         }},
        {"diag",
         [](const KernelTable &k, double *re, double *im, std::size_t dim,
            std::size_t mask, const double *, const double *d) {
             k.applyDiag(re, im, dim, mask, d);
         }},
        {"phase",
         [](const KernelTable &k, double *re, double *im, std::size_t dim,
            std::size_t mask, const double *, const double *) {
             k.applyPhase(re, im, dim, mask, 0.6, -0.8);
         }},
        {"x",
         [](const KernelTable &k, double *re, double *im, std::size_t dim,
            std::size_t mask, const double *, const double *) {
             k.applyX(re, im, dim, mask);
         }},
        {"y",
         [](const KernelTable &k, double *re, double *im, std::size_t dim,
            std::size_t mask, const double *, const double *) {
             k.applyY(re, im, dim, mask);
         }},
    };
    constexpr std::size_t kGuard = 8;
    for (const KernelTier tier : supportedTiers()) {
        const KernelTable &table = *kernelsForTier(tier);
        for (std::size_t dim = 2; dim <= 64; dim *= 2) {
            for (const std::size_t mask :
                 {std::size_t{1}, std::size_t{2}}) {
                if (mask >= dim)
                    continue;
                for (const auto &[name, run] : kernels) {
                    std::vector<double> re(dim + kGuard), im(dim + kGuard);
                    for (std::size_t i = 0; i < re.size(); ++i) {
                        re[i] = rng.uniform(-1.0, 1.0);
                        im[i] = rng.uniform(-1.0, 1.0);
                    }
                    std::vector<double> wantRe = re, wantIm = im;
                    run(kScalarKernels, wantRe.data(), wantIm.data(), dim,
                        mask, mc, dc);
                    run(table, re.data(), im.data(), dim, mask, mc, dc);
                    for (std::size_t i = 0; i < re.size(); ++i) {
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(re[i]),
                                  std::bit_cast<std::uint64_t>(wantRe[i]))
                            << tierName(tier) << " " << name << " dim "
                            << dim << " mask " << mask << " re[" << i
                            << "]" << (i >= dim ? " (guard)" : "");
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(im[i]),
                                  std::bit_cast<std::uint64_t>(wantIm[i]))
                            << tierName(tier) << " " << name << " dim "
                            << dim << " mask " << mask << " im[" << i
                            << "]" << (i >= dim ? " (guard)" : "");
                    }
                }
            }
        }
    }
}

TEST(TierParity, CompiledCircuitRunMatchesScalarExactly)
{
    Circuit c(7);
    Rng rng(31337);
    for (int i = 0; i < 160; ++i) {
        const int q = static_cast<int>(rng.uniformInt(7));
        const int p = (q + 1 + static_cast<int>(rng.uniformInt(6))) % 7;
        switch (rng.uniformInt(10)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.y(q); break;
          case 3: c.t(q); break;
          case 4: c.rz(q, rng.uniform(-3.0, 3.0)); break;
          case 5: c.ry(q, rng.uniform(-3.0, 3.0)); break;
          case 6: c.cx(q, p); break;
          case 7: c.cz(q, p); break;
          default: c.swap(q, p); break;
        }
    }
    const auto compiled = CompiledCircuit::compile(c);

    StateVector want(7);
    {
        TierGuard guard(KernelTier::Scalar);
        want = compiled.run();
    }
    for (const KernelTier tier : supportedTiers()) {
        TierGuard guard(tier);
        const StateVector got = compiled.run();
        expectBitIdentical(got, want, tierName(tier));
    }
}

TEST(TierParity, SamplingIdenticalAcrossTiers)
{
    Rng seedRng(404);
    const StateVector sv = randomState(8, seedRng);
    std::vector<hammer::common::Bits> want;
    {
        TierGuard guard(KernelTier::Scalar);
        Rng r(55);
        want = sv.sampleShots(r, 512);
    }
    for (const KernelTier tier : supportedTiers()) {
        TierGuard guard(tier);
        Rng r(55);
        EXPECT_EQ(sv.sampleShots(r, 512), want) << tierName(tier);
    }
}

// ---------------------------------------------------------------------------
// Batched parity: every lane == its own StateVector, exactly,
// including odd batch tails (B not a multiple of any vector width)
// ---------------------------------------------------------------------------

TEST(TierParity, BatchedLanesMatchSingleStateExactly)
{
    const int n = 5;
    Rng seedRng(9090);
    std::vector<StateVector> inits;
    for (int b = 0; b < 9; ++b)
        inits.push_back(randomState(n, seedRng));
    const Mat2 m = randomMat(seedRng);

    for (const KernelTier tier : supportedTiers()) {
        TierGuard guard(tier);
        for (const int lanes : {1, 2, 3, 5, 7, 8, 9}) {
            BatchedStateVector batch(n, lanes);
            std::vector<StateVector> singles;
            for (int b = 0; b < lanes; ++b) {
                batch.setLane(b, inits[static_cast<std::size_t>(b)]);
                singles.push_back(
                    inits[static_cast<std::size_t>(b)]);
            }

            Rng batchRng(13), singleRng(13);
            runAllKernels(batch, m, batchRng);
            for (auto &sv : singles) {
                Rng r(13); // every lane sees the same gate stream
                runAllKernels(sv, m, r);
            }
            (void)singleRng;

            for (int b = 0; b < lanes; ++b) {
                const StateVector got = batch.extractLane(b);
                expectBitIdentical(
                    got, singles[static_cast<std::size_t>(b)],
                    tierName(tier));
            }
        }
    }
}

TEST(TierParity, PerLaneInjectionsMatchSingleStateExactly)
{
    const int n = 4;
    Rng seedRng(717);
    std::vector<StateVector> inits;
    for (int b = 0; b < 5; ++b)
        inits.push_back(randomState(n, seedRng));

    for (const KernelTier tier : supportedTiers()) {
        TierGuard guard(tier);
        BatchedStateVector batch(n, 5);
        std::vector<StateVector> singles = inits;
        for (int b = 0; b < 5; ++b)
            batch.setLane(b, inits[static_cast<std::size_t>(b)]);

        // Shared gate, then a different injection per lane, then
        // another shared gate — the replayBatch access pattern.
        batch.applyCX(0, 2);
        for (auto &sv : singles)
            sv.applyCX(0, 2);

        batch.applyXLane(0, 1);
        singles[0].applyX(1);
        batch.applyYLane(1, 3);
        singles[1].applyY(3);
        batch.applyPhaseLane(2, Amp(-1.0, 0.0), 0);
        singles[2].applyPhase(Amp(-1.0, 0.0), 0);
        // lanes 3, 4: no injection.

        const Mat2 h = gateMatrix(GateKind::H);
        batch.apply1q(h, 2);
        for (auto &sv : singles)
            sv.apply1q(h, 2);

        for (int b = 0; b < 5; ++b) {
            expectBitIdentical(batch.extractLane(b),
                               singles[static_cast<std::size_t>(b)],
                               tierName(tier));
        }
    }
}

TEST(TierParity, FillFromBroadcastsAndPaddingLanesStayZero)
{
    Rng seedRng(818);
    const StateVector src = randomState(3, seedRng);
    for (const KernelTier tier : supportedTiers()) {
        TierGuard guard(tier);
        BatchedStateVector batch(3, 3); // stride pads 3 -> 8
        batch.fillFrom(src);
        batch.applyGate({GateKind::H, 1});

        StateVector want = src;
        want.applyGate({GateKind::H, 1});
        for (int b = 0; b < 3; ++b)
            expectBitIdentical(batch.extractLane(b), want,
                               tierName(tier));
    }
}

} // namespace

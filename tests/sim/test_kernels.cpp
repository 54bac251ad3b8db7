/**
 * @file
 * Property tests for the specialised state-vector kernels and the
 * compiled-circuit layer.
 *
 * The contract under test: every specialised kernel performs, per
 * amplitude, the same floating-point arithmetic as the generic
 * branchy 2x2 routine it replaced (exact equality — the zero matrix
 * entries only ever contribute exact +-0 products), while the fusion
 * pass, which genuinely reassociates arithmetic, stays within 1e-12.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "sim/circuit.hpp"
#include "sim/compiled.hpp"
#include "sim/statevector.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using namespace hammer::sim;

// ---------------------------------------------------------------------------
// Reference implementations: the pre-overhaul generic kernels,
// bit-for-bit (per-element branch over all 2^n indices).
// ---------------------------------------------------------------------------

/**
 * u * a + v * b with every complex product written out as real
 * multiplies and adds, in the textbook order the kernels use.  Left
 * as std::complex products, GCC's SLP vectoriser turns them into
 * vfmaddsub under -march=x86-64-v3 even with -ffp-contract=off, and
 * the fused roundings break exact equality in the reference itself.
 */
Amp
refDot2(const Amp &u, const Amp &a, const Amp &v, const Amp &b)
{
    const double ua_re = u.real() * a.real() - u.imag() * a.imag();
    const double ua_im = u.real() * a.imag() + u.imag() * a.real();
    const double vb_re = v.real() * b.real() - v.imag() * b.imag();
    const double vb_im = v.real() * b.imag() + v.imag() * b.real();
    return {ua_re + vb_re, ua_im + vb_im};
}

void
refApply1q(std::vector<Amp> &amps, const Mat2 &m, int q)
{
    const std::size_t mask = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & mask)
            continue;
        const std::size_t j = i | mask;
        const Amp a0 = amps[i];
        const Amp a1 = amps[j];
        amps[i] = refDot2(m[0], a0, m[1], a1);
        amps[j] = refDot2(m[2], a0, m[3], a1);
    }
}

void
refApplyCX(std::vector<Amp> &amps, int control, int target)
{
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if ((i & cmask) && !(i & tmask))
            std::swap(amps[i], amps[i | tmask]);
    }
}

void
refApplyCZ(std::vector<Amp> &amps, int a, int b)
{
    const std::size_t amask = std::size_t{1} << a;
    const std::size_t bmask = std::size_t{1} << b;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if ((i & amask) && (i & bmask))
            amps[i] = -amps[i];
    }
}

void
refApplySwap(std::vector<Amp> &amps, int a, int b)
{
    const std::size_t amask = std::size_t{1} << a;
    const std::size_t bmask = std::size_t{1} << b;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if ((i & amask) && !(i & bmask))
            std::swap(amps[i], amps[(i & ~amask) | bmask]);
    }
}

/** The pre-overhaul sampleShots: materialised CDF + binary search. */
std::vector<Bits>
refSampleShots(const std::vector<Amp> &amps, Rng &rng, int shots)
{
    std::vector<double> cdf(amps.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        acc += std::norm(amps[i]);
        cdf[i] = acc;
    }
    std::vector<Bits> out;
    out.reserve(static_cast<std::size_t>(shots));
    for (int s = 0; s < shots; ++s) {
        const double r = rng.uniform() * acc;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        const std::size_t idx = it == cdf.end()
            ? cdf.size() - 1
            : static_cast<std::size_t>(it - cdf.begin());
        out.push_back(idx);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/** Random dense state with no zero amplitudes (unnormalised). */
std::vector<Amp>
randomAmps(int n, Rng &rng)
{
    std::vector<Amp> amps(std::size_t{1} << n);
    for (Amp &a : amps)
        a = Amp(rng.uniform(0.05, 1.0) * (rng.bernoulli(0.5) ? 1 : -1),
                rng.uniform(0.05, 1.0) * (rng.bernoulli(0.5) ? 1 : -1));
    return amps;
}

StateVector
stateFrom(const std::vector<Amp> &amps, int n)
{
    StateVector sv(n);
    for (std::size_t i = 0; i < amps.size(); ++i)
        sv.setAmplitude(i, amps[i]);
    return sv;
}

void
expectExactlyEqual(const StateVector &sv, const std::vector<Amp> &ref)
{
    ASSERT_EQ(sv.dimension(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(sv.amplitude(i).real(), ref[i].real())
            << "re mismatch at index " << i;
        EXPECT_EQ(sv.amplitude(i).imag(), ref[i].imag())
            << "im mismatch at index " << i;
    }
}

Mat2
randomMat(Rng &rng)
{
    Mat2 m;
    for (Amp &e : m)
        e = Amp(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return m;
}

/** A random circuit mixing every gate kind (1q-chain heavy). */
Circuit
randomCircuit(int n, int gates, Rng &rng)
{
    Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        const int q = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(n)));
        int p = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(n)));
        if (p == q)
            p = (p + 1) % n;
        switch (rng.uniformInt(12)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.y(q); break;
          case 3: c.z(q); break;
          case 4: c.s(q); break;
          case 5: c.t(q); break;
          case 6: c.rx(q, rng.uniform(-3.0, 3.0)); break;
          case 7: c.ry(q, rng.uniform(-3.0, 3.0)); break;
          case 8: c.rz(q, rng.uniform(-3.0, 3.0)); break;
          case 9: c.cx(q, p); break;
          case 10: c.cz(q, p); break;
          default: c.swap(q, p); break;
        }
    }
    return c;
}

// ---------------------------------------------------------------------------
// Specialised kernels == generic reference, exactly
// ---------------------------------------------------------------------------

TEST(Kernels, StrideApply1qMatchesGenericExactly)
{
    Rng rng(101);
    for (int n : {1, 3, 6}) {
        for (int q = 0; q < n; ++q) {
            auto ref = randomAmps(n, rng);
            StateVector sv = stateFrom(ref, n);
            const Mat2 m = randomMat(rng);
            sv.apply1q(m, q);
            refApply1q(ref, m, q);
            expectExactlyEqual(sv, ref);
        }
    }
}

TEST(Kernels, PhaseKernelMatchesGenericExactly)
{
    Rng rng(102);
    for (const GateKind kind : {GateKind::Z, GateKind::S,
                                GateKind::Sdg, GateKind::T,
                                GateKind::Tdg}) {
        for (int q = 0; q < 4; ++q) {
            auto ref = randomAmps(4, rng);
            StateVector sv = stateFrom(ref, 4);
            sv.applyGate({kind, q});
            refApply1q(ref, gateMatrix(kind), q);
            expectExactlyEqual(sv, ref);
        }
    }
}

TEST(Kernels, PhaseKernelNeverTouchesZeroHalf)
{
    Rng rng(103);
    const auto before = randomAmps(5, rng);
    StateVector sv = stateFrom(before, 5);
    sv.applyPhase(Amp(0.3, -0.8), 2);
    const std::size_t mask = std::size_t{1} << 2;
    for (std::size_t i = 0; i < before.size(); ++i) {
        if (!(i & mask)) {
            EXPECT_EQ(sv.amplitude(i), before[i])
                << "|0> half must be bitwise untouched";
        }
    }
}

TEST(Kernels, DiagonalKernelMatchesGenericExactly)
{
    Rng rng(104);
    for (int q = 0; q < 4; ++q) {
        const double theta = rng.uniform(-3.0, 3.0);
        auto ref = randomAmps(4, rng);
        StateVector sv = stateFrom(ref, 4);
        sv.applyGate({GateKind::Rz, q, -1, theta});
        refApply1q(ref, gateMatrix(GateKind::Rz, theta), q);
        expectExactlyEqual(sv, ref);
    }
}

TEST(Kernels, PauliPermutationKernelsMatchGenericExactly)
{
    Rng rng(105);
    for (const GateKind kind : {GateKind::X, GateKind::Y}) {
        for (int q = 0; q < 5; ++q) {
            auto ref = randomAmps(5, rng);
            StateVector sv = stateFrom(ref, 5);
            sv.applyGate({kind, q});
            refApply1q(ref, gateMatrix(kind), q);
            expectExactlyEqual(sv, ref);
        }
    }
}

TEST(Kernels, TwoQubitKernelsMatchGenericExactly)
{
    Rng rng(106);
    const int n = 4;
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
            if (a == b)
                continue;
            auto ref = randomAmps(n, rng);
            StateVector sv = stateFrom(ref, n);
            sv.applyCX(a, b);
            refApplyCX(ref, a, b);
            expectExactlyEqual(sv, ref);

            sv.applyCZ(a, b);
            refApplyCZ(ref, a, b);
            expectExactlyEqual(sv, ref);

            sv.applySwap(a, b);
            refApplySwap(ref, a, b);
            expectExactlyEqual(sv, ref);
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled circuits
// ---------------------------------------------------------------------------

TEST(Compiled, UnfusedRunBitIdenticalToGateByGate)
{
    Rng rng(107);
    const Circuit c = randomCircuit(5, 60, rng);
    const auto compiled =
        CompiledCircuit::compile(c, {.fuse1q = false});
    ASSERT_EQ(compiled.ops().size(), c.size())
        << "unfused compilation must emit one op per source gate";

    StateVector direct(5);
    for (const Gate &g : c.gates())
        direct.applyGate(g);
    const StateVector ran = compiled.run();
    for (std::size_t i = 0; i < ran.dimension(); ++i) {
        EXPECT_EQ(ran.amplitude(i).real(), direct.amplitude(i).real());
        EXPECT_EQ(ran.amplitude(i).imag(), direct.amplitude(i).imag());
    }
}

TEST(Compiled, ClassificationPicksCheapestKernel)
{
    Circuit c(2);
    c.z(0).s(0).t(0).rz(0, 0.4).x(1).y(1).h(0).rx(1, 0.2)
     .cx(0, 1).cz(0, 1).swap(0, 1);
    const auto compiled =
        CompiledCircuit::compile(c, {.fuse1q = false});
    const std::vector<KernelKind> expected{
        KernelKind::Phase, KernelKind::Phase, KernelKind::Phase,
        KernelKind::Diag, KernelKind::PauliX, KernelKind::PauliY,
        KernelKind::Mat1q, KernelKind::Mat1q, KernelKind::CX,
        KernelKind::CZ, KernelKind::Swap};
    ASSERT_EQ(compiled.ops().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(compiled.ops()[i].kind, expected[i]) << "op " << i;
    EXPECT_EQ(compiled.stats().specialised, expected.size() - 2);
}

TEST(Compiled, FusionCollapsesRotationChains)
{
    // 1q chains fuse into one op per qubit segment; the cx flushes.
    Circuit c(2);
    c.rz(0, 0.3).rz(0, 0.5).t(0).h(1).ry(1, 0.2)
     .cx(0, 1).rx(0, 0.7).rz(0, -0.4);
    const auto compiled = CompiledCircuit::compile(c);
    // q0 chain (rz rz t -> diagonal product), q1 chain (h ry), cx,
    // trailing q0 chain (rx rz).
    ASSERT_EQ(compiled.ops().size(), 4u);
    EXPECT_EQ(compiled.ops()[0].kind, KernelKind::Diag)
        << "a fused diagonal chain must stay on the diagonal kernel";
    EXPECT_EQ(compiled.ops()[1].kind, KernelKind::Mat1q);
    EXPECT_EQ(compiled.ops()[2].kind, KernelKind::CX);
    EXPECT_EQ(compiled.ops()[3].kind, KernelKind::Mat1q);
    EXPECT_EQ(compiled.stats().sourceGates, 8u);
    EXPECT_EQ(compiled.stats().fused1q, 4u);
    EXPECT_NEAR(compiled.stats().fusionRatio(), 2.0, 1e-12);
}

TEST(Compiled, FusedMatchesUnfusedWithin1e12)
{
    Rng rng(108);
    for (int trial = 0; trial < 4; ++trial) {
        const Circuit c = randomCircuit(6, 120, rng);
        const StateVector fused = CompiledCircuit::compile(c).run();
        const StateVector plain =
            CompiledCircuit::compile(c, {.fuse1q = false}).run();
        for (std::size_t i = 0; i < fused.dimension(); ++i) {
            EXPECT_NEAR(std::abs(fused.amplitude(i) -
                                 plain.amplitude(i)),
                        0.0, 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

TEST(Sampling, SweepSampleShotsBitIdenticalToBinarySearch)
{
    Rng rng(109);
    const auto amps = randomAmps(6, rng);
    const StateVector sv = stateFrom(amps, 6);

    Rng a(42), b(42);
    const auto sweep = sv.sampleShots(a, 5000);
    const auto binary = refSampleShots(amps, b, 5000);
    ASSERT_EQ(sweep.size(), binary.size());
    for (std::size_t s = 0; s < sweep.size(); ++s)
        EXPECT_EQ(sweep[s], binary[s]) << "shot " << s;
    // Identical RNG consumption: the streams stay in lockstep.
    EXPECT_EQ(a(), b());
}

TEST(Sampling, SampleOutcomeNormOverloadIdentical)
{
    Rng rng(111);
    const auto amps = randomAmps(4, rng);
    const StateVector sv = stateFrom(amps, 4);
    const double total = sv.normSquared();
    Rng a(9), b(9);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(sv.sampleOutcome(a), sv.sampleOutcome(b, total));
}

TEST(Sampling, ZeroShotsConsumesNoRandomness)
{
    StateVector sv(3);
    Rng a(5), b(5);
    EXPECT_TRUE(sv.sampleShots(a, 0).empty());
    EXPECT_EQ(a(), b());
}

} // namespace

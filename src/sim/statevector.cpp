#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "sim/kernels.hpp"

namespace hammer::sim {

using common::Bits;
using common::require;

StateVector::StateVector(int num_qubits)
    : numQubits_(num_qubits)
{
    require(num_qubits >= 1 && num_qubits <= 24,
            "StateVector: qubit count must be in [1, 24]");
    const std::size_t dim = std::size_t{1} << num_qubits;
    re_.assign(dim, 0.0);
    im_.assign(dim, 0.0);
    re_[0] = 1.0;
}

Amp
StateVector::amplitude(Bits index) const
{
    require(index < re_.size(), "StateVector::amplitude: out of range");
    return Amp(re_[index], im_[index]);
}

void
StateVector::setAmplitude(Bits index, Amp value)
{
    require(index < re_.size(),
            "StateVector::setAmplitude: out of range");
    re_[index] = value.real();
    im_[index] = value.imag();
}

void
StateVector::apply1q(const Mat2 &m, int q)
{
    require(q >= 0 && q < numQubits_, "apply1q: qubit out of range");
    const std::size_t mask = std::size_t{1} << q;
    // Unpacked row-major matrix components: the textbook product/sum
    // the kernels compute is exactly what std::complex arithmetic
    // computes for finite values, minus the NaN-recovery branch that
    // blocks vectorisation (bit-identical results; the property
    // tests in tests/sim/test_kernels.cpp pin this).
    const double mc[8] = {m[0].real(), m[0].imag(), m[1].real(),
                          m[1].imag(), m[2].real(), m[2].imag(),
                          m[3].real(), m[3].imag()};
    activeKernels().apply1q(re_.data(), im_.data(), re_.size(), mask,
                            mc);
}

void
StateVector::applyDiagonal(Amp d0, Amp d1, int q)
{
    require(q >= 0 && q < numQubits_,
            "applyDiagonal: qubit out of range");
    const std::size_t mask = std::size_t{1} << q;
    const double dc[4] = {d0.real(), d0.imag(), d1.real(), d1.imag()};
    activeKernels().applyDiag(re_.data(), im_.data(), re_.size(), mask,
                              dc);
}

void
StateVector::applyPhase(Amp phase, int q)
{
    require(q >= 0 && q < numQubits_, "applyPhase: qubit out of range");
    const std::size_t mask = std::size_t{1} << q;
    activeKernels().applyPhase(re_.data(), im_.data(), re_.size(),
                               mask, phase.real(), phase.imag());
}

void
StateVector::applyX(int q)
{
    require(q >= 0 && q < numQubits_, "applyX: qubit out of range");
    const std::size_t mask = std::size_t{1} << q;
    activeKernels().applyX(re_.data(), im_.data(), re_.size(), mask);
}

void
StateVector::applyY(int q)
{
    require(q >= 0 && q < numQubits_, "applyY: qubit out of range");
    const std::size_t mask = std::size_t{1} << q;
    activeKernels().applyY(re_.data(), im_.data(), re_.size(), mask);
}

void
StateVector::applyCX(int control, int target)
{
    require(control >= 0 && control < numQubits_ &&
            target >= 0 && target < numQubits_ && control != target,
            "applyCX: bad qubit pair");
    activeKernels().applyCX(re_.data(), im_.data(), re_.size(),
                            std::size_t{1} << control,
                            std::size_t{1} << target);
}

void
StateVector::applyCZ(int a, int b)
{
    require(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_ &&
            a != b, "applyCZ: bad qubit pair");
    activeKernels().applyCZ(re_.data(), im_.data(), re_.size(),
                            std::size_t{1} << a, std::size_t{1} << b);
}

void
StateVector::applySwap(int a, int b)
{
    require(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_ &&
            a != b, "applySwap: bad qubit pair");
    activeKernels().applySwap(re_.data(), im_.data(), re_.size(),
                              std::size_t{1} << a,
                              std::size_t{1} << b);
}

void
StateVector::applyGate(const Gate &gate)
{
    switch (gate.kind) {
      case GateKind::CX:
        applyCX(gate.q0, gate.q1);
        return;
      case GateKind::CZ:
        applyCZ(gate.q0, gate.q1);
        return;
      case GateKind::Swap:
        applySwap(gate.q0, gate.q1);
        return;
      case GateKind::X:
        applyX(gate.q0);
        return;
      case GateKind::Y:
        applyY(gate.q0);
        return;
      case GateKind::Z:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
        applyPhase(gateMatrix(gate.kind)[3], gate.q0);
        return;
      case GateKind::Rz: {
        const Mat2 m = gateMatrix(GateKind::Rz, gate.theta);
        applyDiagonal(m[0], m[3], gate.q0);
        return;
      }
      default:
        apply1q(gateMatrix(gate.kind, gate.theta), gate.q0);
        return;
    }
}

double
StateVector::probability(Bits index) const
{
    require(index < re_.size(),
            "StateVector::probability: out of range");
    return re_[index] * re_[index] + im_[index] * im_[index];
}

double
StateVector::normSquared() const
{
    // Sequential accumulation in index order: an ordered reduction,
    // deliberately not vectorised or reassociated so the total is
    // bit-identical for every kernel tier and thread count.
    double total = 0.0;
    for (std::size_t i = 0; i < re_.size(); ++i)
        total += re_[i] * re_[i] + im_[i] * im_[i];
    return total;
}

void
StateVector::normalize()
{
    const double n2 = normSquared();
    require(n2 > 0.0, "StateVector::normalize: zero state");
    const double inv = 1.0 / std::sqrt(n2);
    for (std::size_t i = 0; i < re_.size(); ++i) {
        re_[i] *= inv;
        im_[i] *= inv;
    }
}

Bits
StateVector::sampleOutcome(common::Rng &rng) const
{
    return sampleOutcome(rng, normSquared());
}

Bits
StateVector::sampleOutcome(common::Rng &rng, double norm_total) const
{
    double r = rng.uniform() * norm_total;
    for (std::size_t i = 0; i < re_.size(); ++i) {
        r -= re_[i] * re_[i] + im_[i] * im_[i];
        if (r < 0.0)
            return i;
    }
    return re_.size() - 1;
}

std::vector<Bits>
StateVector::sampleShots(common::Rng &rng, int shots) const
{
    require(shots >= 0, "sampleShots: negative shot count");
    const double norm_total = normSquared();

    // One uniform per shot, drawn in shot order: the RNG stream is
    // the same whether shots are resolved here or one at a time.
    std::vector<double> draws(static_cast<std::size_t>(shots));
    for (double &r : draws)
        r = rng.uniform() * norm_total;

    std::vector<std::uint32_t> order(draws.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&draws](std::uint32_t a, std::uint32_t b) {
                  return draws[a] < draws[b];
              });

    // Single CDF sweep: outcome(r) is the first index whose running
    // prefix sum exceeds r — the upper_bound semantics of a
    // materialised-CDF binary search, without the 2^n CDF array.
    // Probabilities are fused into the sweep from the SoA planes; no
    // intermediate probability vector exists.
    std::vector<Bits> out(draws.size());
    std::size_t pos = 0;
    double acc = 0.0;
    for (std::size_t i = 0; i < re_.size() && pos < order.size();
         ++i) {
        acc += re_[i] * re_[i] + im_[i] * im_[i];
        while (pos < order.size() && draws[order[pos]] < acc) {
            out[order[pos]] = i;
            ++pos;
        }
    }
    // Draws at or beyond the accumulated total (rounding) land on the
    // last basis state.
    for (; pos < order.size(); ++pos)
        out[order[pos]] = re_.size() - 1;
    return out;
}

OutcomeCdf::OutcomeCdf(const StateVector &state)
    : cdf_(state.dimension())
{
    const double *re = state.reData();
    const double *im = state.imData();
    double acc = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
        acc += re[i] * re[i] + im[i] * im[i];
        cdf_[i] = acc;
    }
}

Bits
OutcomeCdf::outcome(double r) const
{
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<Bits>(it - cdf_.begin());
}

std::vector<Bits>
OutcomeCdf::sampleShots(common::Rng &rng, int shots) const
{
    require(shots >= 0, "sampleShots: negative shot count");
    const double norm_total = total();
    std::vector<Bits> out(static_cast<std::size_t>(shots));
    for (Bits &shot : out)
        shot = outcome(rng.uniform() * norm_total);
    return out;
}

} // namespace hammer::sim

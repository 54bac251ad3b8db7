#include "sim/density_matrix.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace hammer::sim {

using common::Bits;
using common::require;

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits)
{
    require(num_qubits >= 1 && num_qubits <= 10,
            "DensityMatrix: qubit count must be in [1, 10] "
            "(4^n memory)");
    dim_ = std::size_t{1} << num_qubits;
    rho_.assign(dim_ * dim_, Amp(0.0));
    rho_[0] = Amp(1.0);
}

Amp
DensityMatrix::element(Bits row, Bits col) const
{
    require(row < dim_ && col < dim_,
            "DensityMatrix::element: out of range");
    return rho_[index(row, col)];
}

void
DensityMatrix::apply1qLeft(const Mat2 &m, int q)
{
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t r = 0; r < dim_; ++r) {
        if (r & bit)
            continue;
        const std::size_t r1 = r | bit;
        for (std::size_t c = 0; c < dim_; ++c) {
            const Amp a0 = rho_[index(r, c)];
            const Amp a1 = rho_[index(r1, c)];
            rho_[index(r, c)] = m[0] * a0 + m[1] * a1;
            rho_[index(r1, c)] = m[2] * a0 + m[3] * a1;
        }
    }
}

void
DensityMatrix::apply1qRight(const Mat2 &m, int q)
{
    // rho -> rho M^dagger.
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t c = 0; c < dim_; ++c) {
        if (c & bit)
            continue;
        const std::size_t c1 = c | bit;
        for (std::size_t r = 0; r < dim_; ++r) {
            const Amp a0 = rho_[index(r, c)];
            const Amp a1 = rho_[index(r, c1)];
            rho_[index(r, c)] = mulConj(a0, m[0]) + mulConj(a1, m[1]);
            rho_[index(r, c1)] = mulConj(a0, m[2]) + mulConj(a1, m[3]);
        }
    }
}

void
DensityMatrix::applyGate(const Gate &gate)
{
    switch (gate.kind) {
      case GateKind::CX: {
        const std::size_t cbit = std::size_t{1} << gate.q0;
        const std::size_t tbit = std::size_t{1} << gate.q1;
        // Rows: permute |r> for r with control set.
        for (std::size_t r = 0; r < dim_; ++r) {
            if ((r & cbit) && !(r & tbit)) {
                for (std::size_t c = 0; c < dim_; ++c)
                    std::swap(rho_[index(r, c)],
                              rho_[index(r | tbit, c)]);
            }
        }
        // Columns: same permutation (real, self-adjoint).
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((c & cbit) && !(c & tbit)) {
                for (std::size_t r = 0; r < dim_; ++r)
                    std::swap(rho_[index(r, c)],
                              rho_[index(r, c | tbit)]);
            }
        }
        return;
      }
      case GateKind::CZ: {
        const std::size_t abit = std::size_t{1} << gate.q0;
        const std::size_t bbit = std::size_t{1} << gate.q1;
        auto flagged = [&](std::size_t x) {
            return (x & abit) && (x & bbit);
        };
        for (std::size_t r = 0; r < dim_; ++r) {
            for (std::size_t c = 0; c < dim_; ++c) {
                // Sign flips when exactly one side is |11> on (a,b).
                if (flagged(r) != flagged(c))
                    rho_[index(r, c)] = -rho_[index(r, c)];
            }
        }
        return;
      }
      case GateKind::Swap: {
        const std::size_t abit = std::size_t{1} << gate.q0;
        const std::size_t bbit = std::size_t{1} << gate.q1;
        auto partner = [&](std::size_t x) {
            return (x & ~(abit | bbit)) |
                   ((x & abit) ? bbit : std::size_t{0}) |
                   ((x & bbit) ? abit : std::size_t{0});
        };
        for (std::size_t r = 0; r < dim_; ++r) {
            if ((r & abit) && !(r & bbit)) {
                for (std::size_t c = 0; c < dim_; ++c)
                    std::swap(rho_[index(r, c)],
                              rho_[index(partner(r), c)]);
            }
        }
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((c & abit) && !(c & bbit)) {
                for (std::size_t r = 0; r < dim_; ++r)
                    std::swap(rho_[index(r, c)],
                              rho_[index(r, partner(c))]);
            }
        }
        return;
      }
      default: {
        const Mat2 m = gateMatrix(gate.kind, gate.theta);
        apply1qLeft(m, gate.q0);
        apply1qRight(m, gate.q0);
        return;
      }
    }
}

void
DensityMatrix::applyCircuit(const Circuit &circuit)
{
    require(circuit.numQubits() == numQubits_,
            "DensityMatrix::applyCircuit: width mismatch");
    for (const Gate &g : circuit.gates())
        applyGate(g);
}

void
DensityMatrix::mixToward(Bits mask, double strength)
{
    require(strength >= 0.0 && strength <= 1.0,
            "DensityMatrix::mixToward: bad strength");
    if (strength == 0.0)
        return;

    const int k = common::popcount(mask);
    const double inv_sub = 1.0 / static_cast<double>(std::size_t{1}
                                                     << k);

    // Enumerate the mask configurations once.
    std::vector<std::size_t> configs;
    {
        std::vector<int> mask_bits;
        for (int q = 0; q < numQubits_; ++q) {
            if ((mask >> q) & 1ull)
                mask_bits.push_back(q);
        }
        const std::size_t total = std::size_t{1} << k;
        for (std::size_t m = 0; m < total; ++m) {
            std::size_t cfg = 0;
            for (int b = 0; b < k; ++b) {
                if ((m >> b) & 1ull)
                    cfg |= std::size_t{1} <<
                           mask_bits[static_cast<std::size_t>(b)];
            }
            configs.push_back(cfg);
        }
    }

    const std::size_t rest_mask = (dim_ - 1) & ~mask;
    // Collect the partial trace over the mask qubits:
    // sums[(r_rest, c_rest)] = sum_m rho[r_rest|m][c_rest|m].
    // Then blend rho toward I_mask/2^k (x) that marginal.
    for (std::size_t r_rest = 0; r_rest < dim_; ++r_rest) {
        if (r_rest & ~rest_mask)
            continue;
        for (std::size_t c_rest = 0; c_rest < dim_; ++c_rest) {
            if (c_rest & ~rest_mask)
                continue;
            Amp sum(0.0);
            for (std::size_t cfg : configs)
                sum += rho_[index(r_rest | cfg, c_rest | cfg)];

            // Scale every block entry; the mask-diagonal blocks
            // additionally receive the mixed marginal.
            for (std::size_t rc : configs) {
                for (std::size_t cc : configs) {
                    Amp &cell = rho_[index(r_rest | rc, c_rest | cc)];
                    cell *= (1.0 - strength);
                    if (rc == cc)
                        cell += strength * inv_sub * sum;
                }
            }
        }
    }
}

void
DensityMatrix::applyDepolarizing1q(int q, double p)
{
    require(q >= 0 && q < numQubits_,
            "applyDepolarizing1q: qubit out of range");
    require(p >= 0.0 && p <= 0.75,
            "applyDepolarizing1q: p must be in [0, 3/4]");
    // (1-p) rho + (p/3) sum_{P != I} P rho P
    //   == (1 - 4p/3) rho + (4p/3) (I/2 (x) tr_q rho).
    mixToward(Bits{1} << q, 4.0 * p / 3.0);
}

void
DensityMatrix::applyDepolarizing2q(int a, int b, double p)
{
    require(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_ &&
            a != b, "applyDepolarizing2q: bad pair");
    require(p >= 0.0 && p <= 15.0 / 16.0,
            "applyDepolarizing2q: p must be in [0, 15/16]");
    // (1-p) rho + (p/15) sum_{P != II} P rho P
    //   == (1 - 16p/15) rho + (16p/15) (I/4 (x) tr_ab rho).
    mixToward((Bits{1} << a) | (Bits{1} << b), 16.0 * p / 15.0);
}

void
DensityMatrix::applyKraus1q(const std::vector<Mat2> &kraus, int q)
{
    require(q >= 0 && q < numQubits_,
            "applyKraus1q: qubit out of range");
    require(!kraus.empty(), "applyKraus1q: no Kraus operators");

    // Completeness: sum_k K_k^dagger K_k == I.
    Amp sum00(0.0), sum01(0.0), sum10(0.0), sum11(0.0);
    for (const Mat2 &k : kraus) {
        sum00 += std::conj(k[0]) * k[0] + std::conj(k[2]) * k[2];
        sum01 += std::conj(k[0]) * k[1] + std::conj(k[2]) * k[3];
        sum10 += std::conj(k[1]) * k[0] + std::conj(k[3]) * k[2];
        sum11 += std::conj(k[1]) * k[1] + std::conj(k[3]) * k[3];
    }
    require(std::abs(sum00 - Amp(1.0)) < 1e-9 &&
            std::abs(sum11 - Amp(1.0)) < 1e-9 &&
            std::abs(sum01) < 1e-9 && std::abs(sum10) < 1e-9,
            "applyKraus1q: Kraus operators are not trace-preserving");

    // rho' = sum_k K rho K^dagger, accumulated over copies.
    const std::vector<Amp> original = rho_;
    std::vector<Amp> accumulated(rho_.size(), Amp(0.0));
    for (const Mat2 &k : kraus) {
        rho_ = original;
        apply1qLeft(k, q);
        apply1qRight(k, q);
        for (std::size_t i = 0; i < rho_.size(); ++i)
            accumulated[i] += rho_[i];
    }
    rho_ = std::move(accumulated);
}

void
DensityMatrix::applyAmplitudeDamping(int q, double gamma)
{
    require(gamma >= 0.0 && gamma <= 1.0,
            "applyAmplitudeDamping: gamma must be in [0, 1]");
    const double s = std::sqrt(1.0 - gamma);
    const double r = std::sqrt(gamma);
    const Mat2 k0{Amp(1.0), Amp(0.0), Amp(0.0), Amp(s)};
    const Mat2 k1{Amp(0.0), Amp(r), Amp(0.0), Amp(0.0)};
    applyKraus1q({k0, k1}, q);
}

double
DensityMatrix::trace() const
{
    double t = 0.0;
    for (std::size_t r = 0; r < dim_; ++r)
        t += rho_[index(r, r)].real();
    return t;
}

double
DensityMatrix::purity() const
{
    // tr(rho^2) = sum_{r,c} |rho[r][c]|^2 for Hermitian rho.
    double p = 0.0;
    for (const Amp &a : rho_)
        p += std::norm(a);
    return p;
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> probs(dim_);
    for (std::size_t r = 0; r < dim_; ++r)
        probs[r] = std::max(0.0, rho_[index(r, r)].real());
    return probs;
}

} // namespace hammer::sim

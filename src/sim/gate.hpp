/**
 * @file
 * Gate set of the state-vector simulator.
 *
 * Covers the gates the paper's benchmark circuits are built from:
 * Clifford generators (H, S, CX, CZ), Paulis (X, Y, Z — also used as
 * injected errors by the noise model), parametric rotations
 * (Rx, Ry, Rz — the QAOA and random-unitary building blocks), SWAP
 * (inserted by the transpiler for routing), and T for completeness.
 */

#ifndef HAMMER_SIM_GATE_HPP
#define HAMMER_SIM_GATE_HPP

#include <array>
#include <complex>
#include <string>

namespace hammer::sim {

/** Complex amplitude type used across the simulator. */
using Amp = std::complex<double>;

/** 2x2 single-qubit unitary, row-major. */
using Mat2 = std::array<Amp, 4>;

/**
 * a * conj(b) as explicit real multiplies and adds.  GCC expands a
 * std::complex product with vfmaddsub under -march=x86-64-v3 even
 * with -ffp-contract=off, which rounds once where the baseline build
 * rounds twice; spelled out, every build computes the baseline's
 * bits (finite operands).
 */
inline Amp
mulConj(Amp a, Amp b)
{
    return {a.real() * b.real() + a.imag() * b.imag(),
            a.imag() * b.real() - a.real() * b.imag()};
}

/** Supported gate kinds. */
enum class GateKind
{
    H,      ///< Hadamard.
    X,      ///< Pauli-X.
    Y,      ///< Pauli-Y.
    Z,      ///< Pauli-Z.
    S,      ///< Phase gate sqrt(Z).
    Sdg,    ///< Inverse phase gate.
    T,      ///< pi/8 gate.
    Tdg,    ///< Inverse T.
    Rx,     ///< Rotation about X by theta.
    Ry,     ///< Rotation about Y by theta.
    Rz,     ///< Rotation about Z by theta.
    CX,     ///< Controlled-X.
    CZ,     ///< Controlled-Z.
    Swap,   ///< SWAP (used by the router).
};

/**
 * One circuit operation.
 *
 * Single-qubit gates use q0 and leave q1 == -1; two-qubit gates use
 * q0 (control for CX) and q1 (target).
 */
struct Gate
{
    GateKind kind;      ///< Which unitary.
    int q0;             ///< First (or only) qubit.
    int q1 = -1;        ///< Second qubit for two-qubit gates.
    double theta = 0.0; ///< Rotation angle for Rx/Ry/Rz.

    /** True for CX/CZ/SWAP. */
    bool isTwoQubit() const;

    /** Gate implementing the inverse unitary. */
    Gate inverse() const;

    /** Human-readable form, e.g. "cx q2, q5" or "rz(0.78) q1". */
    std::string toString() const;
};

/** True when @p kind names a two-qubit gate. */
bool isTwoQubitKind(GateKind kind);

/** Short lowercase mnemonic ("h", "cx", ...). */
std::string gateName(GateKind kind);

/**
 * The 2x2 matrix of a single-qubit gate.
 *
 * @pre kind is a single-qubit kind.
 * @param kind Gate kind.
 * @param theta Rotation angle (ignored for fixed gates).
 */
Mat2 gateMatrix(GateKind kind, double theta = 0.0);

} // namespace hammer::sim

#endif // HAMMER_SIM_GATE_HPP

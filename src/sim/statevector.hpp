/**
 * @file
 * Dense state-vector backend, structure-of-arrays layout.
 *
 * Qubit i maps to bit i of the basis-state index.  At the paper's
 * scale (<= 24 qubits) a dense complex vector is at most 256 MiB;
 * the benchmarks stay well below that.
 *
 * Amplitudes live in two separate 64-byte-aligned double planes
 * (re_/im_) instead of interleaved std::complex pairs: the gate
 * kernels then stream contiguous same-component runs, which is what
 * lets the SSE2/AVX2/NEON tiers (sim/kernels.hpp) issue full-width
 * vector loads.  Gate application dispatches through the runtime
 * kernel table (activeKernels()); all tiers run the same per-lane
 * formulas in the same order, so results are bit-identical to the
 * historical interleaved scalar engine.
 *
 * The kernel family is unchanged from the scalar engine:
 *
 *  - apply1q      — stride-based half-space iteration over
 *                   (pair, pair+2^q) amplitude pairs, no per-element
 *                   branch (dense unitaries: H, Y, Rx, Ry, fused
 *                   products).
 *  - applyDiagonal/applyPhase — diagonal unitaries (Z, S, Sdg, T,
 *                   Tdg, Rz) touch each amplitude once and never
 *                   load the pair partner; applyPhase skips the
 *                   untouched |0> half entirely.
 *  - applyX/applyCX/applySwap — pure amplitude permutations, no
 *                   arithmetic at all.
 *  - applyCZ      — quarter-space sign flip.
 *
 * Norm accumulation and CDF sampling are ordered reductions and stay
 * scalar-sequential regardless of the dispatched tier.  OutcomeCdf
 * materialises that CDF once for callers that draw many shot batches
 * from one state — the channel sampler and the trajectory replay
 * engine — with the same outcomes as sampleShots().
 */

#ifndef HAMMER_SIM_STATEVECTOR_HPP
#define HAMMER_SIM_STATEVECTOR_HPP

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "sim/gate.hpp"

namespace hammer::sim {

/**
 * Dense n-qubit state vector with in-place gate application.
 */
class StateVector
{
  public:
    /** Initialise to |0...0>. */
    explicit StateVector(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t dimension() const { return re_.size(); }

    /** Real-component plane (length 2^n, 64-byte aligned). */
    const double *reData() const { return re_.data(); }
    double *reData() { return re_.data(); }

    /** Imaginary-component plane (length 2^n, 64-byte aligned). */
    const double *imData() const { return im_.data(); }
    double *imData() { return im_.data(); }

    /** Amplitude of basis state @p index. */
    Amp amplitude(common::Bits index) const;

    /** Overwrite one amplitude (test hook; renormalise afterwards). */
    void setAmplitude(common::Bits index, Amp value);

    /** Apply a 2x2 unitary to qubit @p q (dense pair kernel). */
    void apply1q(const Mat2 &m, int q);

    /**
     * Apply the diagonal unitary diag(d0, d1) to qubit @p q.
     *
     * One multiply per amplitude; the pair partner is never loaded.
     */
    void applyDiagonal(Amp d0, Amp d1, int q);

    /**
     * Apply diag(1, phase) to qubit @p q (Z/S/Sdg/T/Tdg and friends).
     *
     * Touches only the 2^(n-1) amplitudes with bit q set.
     */
    void applyPhase(Amp phase, int q);

    /** Apply Pauli-X to qubit @p q (pure permutation). */
    void applyX(int q);

    /** Apply Pauli-Y to qubit @p q (permutation + +-i phases). */
    void applyY(int q);

    /** Apply CX with @p control and @p target. */
    void applyCX(int control, int target);

    /** Apply CZ on the (symmetric) pair. */
    void applyCZ(int a, int b);

    /** Apply SWAP on the pair. */
    void applySwap(int a, int b);

    /** Apply any Gate (dispatches to the specialised routines). */
    void applyGate(const Gate &gate);

    /** Probability of measuring basis state @p index. */
    double probability(common::Bits index) const;

    /** Sum of |amp|^2 (should stay 1 up to rounding). */
    double normSquared() const;

    /** Renormalise to unit norm. @pre norm > 0. */
    void normalize();

    /**
     * Sample one measurement outcome.
     *
     * O(2^n); computes the CDF total with one extra pass.  Callers
     * sampling repeatedly from an unchanged state should pass the
     * precomputed normSquared() to the overload below.
     */
    common::Bits sampleOutcome(common::Rng &rng) const;

    /**
     * Sample one outcome reusing an already-accumulated norm.
     *
     * @param norm_total The value normSquared() returns for this
     *        state; passing it avoids the per-call renorm pass.
     */
    common::Bits sampleOutcome(common::Rng &rng,
                               double norm_total) const;

    /**
     * Sample @p shots outcomes.
     *
     * Draws all uniforms up front (one per shot, in shot order — the
     * RNG stream is identical to sampling one by one), sorts them,
     * and resolves every shot in a single O(2^n + shots) sweep of the
     * implicit CDF, instead of shots x log(2^n) binary searches over
     * a materialised 2^n-entry CDF array.  Per-state probabilities
     * are computed on the fly from the SoA planes inside the sweep —
     * no intermediate probability vector is ever materialised.
     */
    std::vector<common::Bits> sampleShots(common::Rng &rng,
                                          int shots) const;

  private:
    int numQubits_;
    common::AlignedVector<double> re_;
    common::AlignedVector<double> im_;
};

/**
 * Materialised outcome CDF of one state, for drawing many shot
 * batches from it.  Both shot backends sample through it: the
 * trajectory replay engine's zero-error trajectories share one, and
 * the channel sampler builds one per job, releases the ideal state,
 * and draws every 1024-shot chunk from it.
 *
 * Entry i is the running sum StateVector::sampleShots reaches at
 * index i, accumulated in the same order, so total() equals the
 * state's normSquared().  sampleShots() draws the RNG exactly like
 * the state's sampleShots(rng, shots) and resolves each draw with
 * upper_bound — the first entry exceeding it, the sweep's own rule —
 * clamped to the last basis state, so both return the same outcomes.
 * It costs O(shots log 2^n) per batch instead of a 2^n sweep, and 8
 * bytes per amplitude instead of the state's 16.
 */
class OutcomeCdf
{
  public:
    explicit OutcomeCdf(const StateVector &state);

    std::size_t dimension() const { return cdf_.size(); }

    /** Sum of all outcome probabilities (the state's normSquared). */
    double total() const { return cdf_.back(); }

    /**
     * The outcome draw @p r resolves to: the first index whose CDF
     * entry exceeds it, or the last basis state when none does.
     */
    common::Bits outcome(double r) const;

    /** Same outcomes and RNG use as StateVector::sampleShots. */
    std::vector<common::Bits> sampleShots(common::Rng &rng,
                                          int shots) const;

  private:
    std::vector<double> cdf_;
};

} // namespace hammer::sim

#endif // HAMMER_SIM_STATEVECTOR_HPP

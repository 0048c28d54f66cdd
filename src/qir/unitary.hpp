/**
 * @file
 * Exact simulation utilities: a statevector simulator supporting
 * measurement with classical feed-forward (needed to validate the Cat-Comm
 * and TP-Comm protocol expansions) and a circuit-to-unitary builder for
 * unitary-equivalence testing of compiler passes.
 *
 * These are test/verification substrates: sizes are limited to a handful of
 * qubits (exponential state), which is ample for validating gate
 * decompositions, commutation rules, aggregation soundness, and protocol
 * lowering on representative instances.
 */
#pragma once

#include <vector>

#include "qir/circuit.hpp"
#include "qir/matrix.hpp"
#include "support/rng.hpp"

namespace autocomm::qir {

/**
 * Dense statevector over n qubits with a classical bit register.
 *
 * Qubit 0 is the most significant bit of the basis index, matching the
 * operand ordering convention of Gate::matrix().
 */
class Statevector
{
  public:
    /** Initialize to |0...0> over @p num_qubits qubits. */
    explicit Statevector(int num_qubits, int num_cbits = 0);

    /** Initialize from explicit amplitudes (must have 2^n entries). */
    Statevector(int num_qubits, std::vector<Complex> amps, int num_cbits = 0);

    int num_qubits() const { return num_qubits_; }
    const std::vector<Complex>& amplitudes() const { return amps_; }

    /** Classical bits (values 0/1) produced by measurements. */
    const std::vector<int>& cbits() const { return cbits_; }

    /**
     * Apply one gate. Measure collapses the state (outcome drawn from @p
     * rng, or forced via force_outcome if >= 0) and records the result;
     * Reset measures then flips to |0>; conditioned gates consult the
     * classical register; Barrier is a no-op.
     */
    void apply(const Gate& g, support::Rng& rng, int force_outcome = -1);

    /** Apply every gate of @p c in order. */
    void run(const Circuit& c, support::Rng& rng);

    /** Inner product <this|other|. */
    Complex inner(const Statevector& other) const;

    /** True iff states are equal up to a global phase. */
    bool equal_up_to_phase(const Statevector& other, double eps = 1e-9) const;

    /** Probability that qubit q measures 1. */
    double prob_one(QubitId q) const;

    /** L2 norm of the amplitude vector. */
    double norm() const;

  private:
    void apply_1q(const CMatrix& m, QubitId q);
    void apply_2q(const CMatrix& m, QubitId q0, QubitId q1);
    void apply_3q(const CMatrix& m, QubitId q0, QubitId q1, QubitId q2);
    int measure(QubitId q, support::Rng& rng, int force_outcome);

    int num_qubits_;
    std::vector<Complex> amps_;
    std::vector<int> cbits_;
};

/**
 * Full unitary of a measurement-free circuit; qubit 0 is the most
 * significant index bit. Practical up to ~11 qubits.
 */
CMatrix circuit_unitary(const Circuit& c);

/** Widest circuits circuits_equivalent() compares as dense unitaries. */
inline constexpr int kDenseEquivalenceMaxQubits = 6;

/**
 * True iff two measurement-free circuits implement the same unitary up to
 * global phase (false when the qubit counts differ).
 *
 * Up to kDenseEquivalenceMaxQubits qubits this compares the dense
 * unitaries (circuit_unitary). Wider circuits are simulated on a few
 * seeded Haar-random input states (random-stimuli equivalence checking,
 * after Burgholzer, Kueng & Wille): every output overlap
 * <U_a psi|U_b psi> must have modulus 1, and all of them the same phase.
 * Sound with probability 1, at the cost of a handful of statevector runs
 * instead of 2^n. Practical up to 20 qubits.
 */
bool circuits_equivalent(const Circuit& a, const Circuit& b,
                         double eps = 1e-8);

} // namespace autocomm::qir

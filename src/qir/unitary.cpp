#include "qir/unitary.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

#include "support/log.hpp"

namespace autocomm::qir {

Statevector::Statevector(int num_qubits, int num_cbits)
    : num_qubits_(num_qubits),
      amps_(std::size_t{1} << num_qubits),
      cbits_(static_cast<std::size_t>(num_cbits), 0)
{
    assert(num_qubits >= 0 && num_qubits <= 26);
    amps_[0] = 1.0;
}

Statevector::Statevector(int num_qubits, std::vector<Complex> amps,
                         int num_cbits)
    : num_qubits_(num_qubits),
      amps_(std::move(amps)),
      cbits_(static_cast<std::size_t>(num_cbits), 0)
{
    assert(amps_.size() == (std::size_t{1} << num_qubits));
}

void
Statevector::apply_1q(const CMatrix& m, QubitId q)
{
    // Bit position of qubit q in the basis index (qubit 0 = MSB).
    const int bit = num_qubits_ - 1 - q;
    const std::size_t stride = std::size_t{1} << bit;
    const std::size_t n = amps_.size();
    for (std::size_t base = 0; base < n; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            const std::size_t i1 = i0 + stride;
            const Complex a0 = amps_[i0], a1 = amps_[i1];
            amps_[i0] = m.at(0, 0) * a0 + m.at(0, 1) * a1;
            amps_[i1] = m.at(1, 0) * a0 + m.at(1, 1) * a1;
        }
    }
}

void
Statevector::apply_2q(const CMatrix& m, QubitId q0, QubitId q1)
{
    const int b0 = num_qubits_ - 1 - q0;
    const int b1 = num_qubits_ - 1 - q1;
    const std::size_t m0 = std::size_t{1} << b0;
    const std::size_t m1 = std::size_t{1} << b1;
    const std::size_t n = amps_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if ((i & m0) || (i & m1))
            continue;
        // i has both operand bits clear; gather the 4 related amplitudes in
        // (q0 q1) order: 00, 01, 10, 11.
        const std::size_t idx[4] = {i, i | m1, i | m0, i | m0 | m1};
        Complex v[4];
        for (int k = 0; k < 4; ++k)
            v[k] = amps_[idx[k]];
        for (int r = 0; r < 4; ++r) {
            Complex acc{};
            for (int c = 0; c < 4; ++c)
                acc += m.at(static_cast<std::size_t>(r),
                            static_cast<std::size_t>(c)) *
                       v[c];
            amps_[idx[r]] = acc;
        }
    }
}

void
Statevector::apply_3q(const CMatrix& m, QubitId q0, QubitId q1, QubitId q2)
{
    const std::size_t m0 = std::size_t{1} << (num_qubits_ - 1 - q0);
    const std::size_t m1 = std::size_t{1} << (num_qubits_ - 1 - q1);
    const std::size_t m2 = std::size_t{1} << (num_qubits_ - 1 - q2);
    const std::size_t n = amps_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if ((i & m0) || (i & m1) || (i & m2))
            continue;
        std::size_t idx[8];
        for (int k = 0; k < 8; ++k) {
            std::size_t j = i;
            if (k & 4)
                j |= m0;
            if (k & 2)
                j |= m1;
            if (k & 1)
                j |= m2;
            idx[k] = j;
        }
        Complex v[8];
        for (int k = 0; k < 8; ++k)
            v[k] = amps_[idx[k]];
        for (int r = 0; r < 8; ++r) {
            Complex acc{};
            for (int c = 0; c < 8; ++c)
                acc += m.at(static_cast<std::size_t>(r),
                            static_cast<std::size_t>(c)) *
                       v[c];
            amps_[idx[r]] = acc;
        }
    }
}

double
Statevector::prob_one(QubitId q) const
{
    const std::size_t mask = std::size_t{1} << (num_qubits_ - 1 - q);
    double p = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if (i & mask)
            p += std::norm(amps_[i]);
    return p;
}

int
Statevector::measure(QubitId q, support::Rng& rng, int force_outcome)
{
    const double p1 = prob_one(q);
    int outcome;
    if (force_outcome >= 0) {
        outcome = force_outcome;
        const double p = outcome ? p1 : 1.0 - p1;
        if (p < 1e-12)
            support::fatal("measure: forced outcome %d has probability ~0",
                           outcome);
    } else {
        outcome = rng.next_double() < p1 ? 1 : 0;
    }
    const std::size_t mask = std::size_t{1} << (num_qubits_ - 1 - q);
    const double keep_prob = outcome ? p1 : 1.0 - p1;
    const double scale = 1.0 / std::sqrt(keep_prob);
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        const bool bit = (i & mask) != 0;
        if (bit == static_cast<bool>(outcome))
            amps_[i] *= scale;
        else
            amps_[i] = 0.0;
    }
    return outcome;
}

void
Statevector::apply(const Gate& g, support::Rng& rng, int force_outcome)
{
    if (g.cond_bit >= 0) {
        assert(g.cond_bit < static_cast<CbitId>(cbits_.size()));
        if (cbits_[static_cast<std::size_t>(g.cond_bit)] != g.cond_value)
            return;
    }
    switch (g.kind) {
      case GateKind::Barrier:
        return;
      case GateKind::Measure: {
        const int out = measure(g.qs[0], rng, force_outcome);
        assert(g.cbit >= 0 && g.cbit < static_cast<CbitId>(cbits_.size()));
        cbits_[static_cast<std::size_t>(g.cbit)] = out;
        return;
      }
      case GateKind::Reset: {
        const int out = measure(g.qs[0], rng, force_outcome);
        if (out == 1)
            apply_1q(mat_1q(GateKind::X), g.qs[0]);
        return;
      }
      default:
        break;
    }
    const CMatrix m = g.matrix();
    if (g.num_qubits == 1)
        apply_1q(m, g.qs[0]);
    else if (g.num_qubits == 2)
        apply_2q(m, g.qs[0], g.qs[1]);
    else
        apply_3q(m, g.qs[0], g.qs[1], g.qs[2]);
}

void
Statevector::run(const Circuit& c, support::Rng& rng)
{
    assert(c.num_qubits() == num_qubits_);
    if (static_cast<std::size_t>(c.num_cbits()) > cbits_.size())
        cbits_.resize(static_cast<std::size_t>(c.num_cbits()), 0);
    for (const Gate& g : c)
        apply(g, rng);
}

Complex
Statevector::inner(const Statevector& other) const
{
    assert(amps_.size() == other.amps_.size());
    Complex acc{};
    for (std::size_t i = 0; i < amps_.size(); ++i)
        acc += std::conj(amps_[i]) * other.amps_[i];
    return acc;
}

bool
Statevector::equal_up_to_phase(const Statevector& other, double eps) const
{
    if (amps_.size() != other.amps_.size())
        return false;
    // |<a|b>| == 1 for unit vectors iff equal up to phase.
    return std::abs(std::abs(inner(other)) - 1.0) < eps;
}

double
Statevector::norm() const
{
    double s = 0.0;
    for (const Complex& z : amps_)
        s += std::norm(z);
    return std::sqrt(s);
}

namespace {

/** Apply every gate of the measurement-free circuit @p c to @p sv. */
void
run_unitary(const Circuit& c, Statevector& sv, support::Rng& rng)
{
    for (const Gate& g : c) {
        if (!is_unitary_gate(g.kind) && g.kind != GateKind::Barrier)
            support::fatal("unitary simulation: non-unitary gate %s",
                           gate_name(g.kind));
        sv.apply(g, rng);
    }
}

/** A seeded Haar-random state over @p n qubits (normalized complex
 * Gaussian amplitudes, Box-Muller). */
Statevector
random_state(int n, support::Rng& rng)
{
    std::vector<Complex> amps(std::size_t{1} << n);
    double norm2 = 0.0;
    for (Complex& z : amps) {
        const double r = std::sqrt(-2.0 * std::log(1.0 - rng.next_double()));
        const double t = 2.0 * std::numbers::pi * rng.next_double();
        z = Complex(r * std::cos(t), r * std::sin(t));
        norm2 += std::norm(z);
    }
    const double scale = 1.0 / std::sqrt(norm2);
    for (Complex& z : amps)
        z *= scale;
    return Statevector(n, std::move(amps));
}

} // namespace

CMatrix
circuit_unitary(const Circuit& c)
{
    const int n = c.num_qubits();
    if (n > 12)
        support::fatal("circuit_unitary: %d qubits is too large", n);
    const std::size_t dim = std::size_t{1} << n;
    CMatrix u(dim, dim);
    support::Rng rng(0);
    for (std::size_t col = 0; col < dim; ++col) {
        std::vector<Complex> amps(dim);
        amps[col] = 1.0;
        Statevector sv(n, std::move(amps));
        run_unitary(c, sv, rng);
        for (std::size_t row = 0; row < dim; ++row)
            u.at(row, col) = sv.amplitudes()[row];
    }
    return u;
}

bool
circuits_equivalent(const Circuit& a, const Circuit& b, double eps)
{
    if (a.num_qubits() != b.num_qubits())
        return false;
    const int n = a.num_qubits();
    if (n <= kDenseEquivalenceMaxQubits)
        return circuit_unitary(a).equal_up_to_phase(circuit_unitary(b), eps);
    if (n > 20)
        support::fatal("circuits_equivalent: %d qubits is too large", n);

    // U_b = e^{i phi} U_a iff <U_a psi|U_b psi> = e^{i phi} for every
    // psi. A random psi is an eigenvector of a non-scalar U_a^dag U_b
    // with probability 0, so |<.|.>| = 1 on one state already separates
    // the two; the common phase across states adds first-order
    // sensitivity to small relative phases.
    constexpr int kStimuli = 4;
    support::Rng rng(0x5eed);
    Complex phase{};
    for (int k = 0; k < kStimuli; ++k) {
        const Statevector psi = random_state(n, rng);
        Statevector sa = psi;
        Statevector sb = psi;
        run_unitary(a, sa, rng);
        run_unitary(b, sb, rng);
        const Complex overlap = sa.inner(sb);
        if (std::abs(std::abs(overlap) - 1.0) > eps)
            return false;
        if (k == 0)
            phase = overlap;
        else if (std::abs(overlap - phase) > eps)
            return false;
    }
    return true;
}

} // namespace autocomm::qir

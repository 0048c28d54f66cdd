/**
 * @file
 * Tests for the statevector simulator (including measurement collapse and
 * classical feed-forward) and the circuit-to-unitary builder.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <vector>

#include "qir/circuit.hpp"
#include "qir/unitary.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace {

using namespace autocomm::qir;
using autocomm::QubitId;
using autocomm::support::Rng;

TEST(Statevector, StartsInZeroState)
{
    Statevector sv(2);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1.0, 1e-12);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, XFlipsBasisState)
{
    Statevector sv(2);
    Rng rng(0);
    sv.apply(Gate::x(0), rng);
    // Qubit 0 is the MSB: |10> has index 2.
    EXPECT_NEAR(std::abs(sv.amplitudes()[2]), 1.0, 1e-12);
}

TEST(Statevector, HadamardCreatesSuperposition)
{
    Statevector sv(1);
    Rng rng(0);
    sv.apply(Gate::h(0), rng);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(sv.prob_one(0), 0.5, 1e-12);
}

TEST(Statevector, BellPairCorrelations)
{
    Circuit c(2);
    c.h(0).cx(0, 1);
    Statevector sv(2);
    Rng rng(0);
    sv.run(c, rng);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitudes()[3]), 1 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, 1e-12);
}

TEST(Statevector, MeasureCollapsesAndRecords)
{
    for (int forced = 0; forced <= 1; ++forced) {
        Circuit c(2, 1);
        c.h(0).cx(0, 1);
        Statevector sv(2, 1);
        Rng rng(0);
        sv.run(c, rng);
        sv.apply(Gate::measure(0, 0), rng, forced);
        EXPECT_EQ(sv.cbits()[0], forced);
        // Bell state: the other qubit collapses identically.
        EXPECT_NEAR(sv.prob_one(1), static_cast<double>(forced), 1e-12);
        EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
    }
}

TEST(Statevector, ConditionedGateRespectsClassicalBit)
{
    // Measure |1> into c0, then X on q1 conditioned on c0: q1 flips.
    Circuit c(2, 1);
    c.x(0).measure(0, 0).add(Gate::x(1).conditioned_on(0));
    Statevector sv(2, 1);
    Rng rng(0);
    sv.run(c, rng);
    EXPECT_NEAR(sv.prob_one(1), 1.0, 1e-12);

    // Without setting the bit, the conditioned gate must not fire.
    Circuit c2(2, 1);
    c2.measure(0, 0).add(Gate::x(1).conditioned_on(0));
    Statevector sv2(2, 1);
    sv2.run(c2, rng);
    EXPECT_NEAR(sv2.prob_one(1), 0.0, 1e-12);
}

TEST(Statevector, ResetForcesZero)
{
    Circuit c(1);
    c.x(0).reset(0);
    Statevector sv(1);
    Rng rng(0);
    sv.run(c, rng);
    EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
}

TEST(Statevector, TeleportationIdentityOnRandomState)
{
    // Teleport q0 -> q2 through EPR (q1, q2) with feed-forward.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        const double a = rng.next_double() * 3.0;
        const double b = rng.next_double() * 3.0;

        Circuit prep(3, 2);
        prep.u3(0, a, b, 0.3);
        Circuit tele(3, 2);
        tele.h(1).cx(1, 2);
        tele.cx(0, 1).h(0);
        tele.measure(1, 0).measure(0, 1);
        tele.add(Gate::x(2).conditioned_on(0));
        tele.add(Gate::z(2).conditioned_on(1));

        Statevector sv(3, 2);
        sv.run(prep, rng);
        sv.run(tele, rng);

        // Reference: the state prepared directly on q2, with q0/q1 in the
        // post-measurement basis state recorded by the classical bits.
        Circuit ref(3, 2);
        ref.u3(2, a, b, 0.3);
        if (sv.cbits()[1])
            ref.x(0);
        if (sv.cbits()[0])
            ref.x(1);
        Statevector expect(3, 2);
        Rng rng2(0);
        expect.run(ref, rng2);
        EXPECT_TRUE(sv.equal_up_to_phase(expect)) << "seed " << seed;
    }
}

TEST(Unitary, IdentityCircuit)
{
    Circuit c(2);
    EXPECT_TRUE(circuit_unitary(c).approx_equal(CMatrix::identity(4)));
}

TEST(Unitary, MatchesGateMatrix)
{
    Circuit c(2);
    c.cx(0, 1);
    EXPECT_TRUE(circuit_unitary(c).approx_equal(Gate::cx(0, 1).matrix()));
}

TEST(Unitary, RespectsQubitOrderConvention)
{
    // X on qubit 1 (LSB of a 2-qubit register) is I (x) X.
    Circuit c(2);
    c.x(1);
    const CMatrix u = circuit_unitary(c);
    EXPECT_EQ(u.at(0, 1), Complex{1});
    EXPECT_EQ(u.at(2, 3), Complex{1});
}

TEST(Unitary, CompositionOrderIsProgramOrder)
{
    // X then Z on one qubit: matrix is Z * X (later gate on the left).
    Circuit c(1);
    c.x(0).z(0);
    const CMatrix u = circuit_unitary(c);
    const CMatrix zx = Gate::z(0).matrix() * Gate::x(0).matrix();
    EXPECT_TRUE(u.approx_equal(zx));
}

TEST(Unitary, CircuitsEquivalentDetectsHXHequalsZ)
{
    Circuit a(1), b(1);
    a.h(0).x(0).h(0);
    b.z(0);
    EXPECT_TRUE(circuits_equivalent(a, b));
}

TEST(Unitary, CircuitsEquivalentRejectsDifferent)
{
    Circuit a(1), b(1);
    a.x(0);
    b.z(0);
    EXPECT_FALSE(circuits_equivalent(a, b));
}

TEST(Unitary, SwapEqualsThreeCx)
{
    Circuit a(2), b(2);
    a.swap(0, 1);
    b.cx(0, 1).cx(1, 0).cx(0, 1);
    EXPECT_TRUE(circuits_equivalent(a, b));
}

TEST(Unitary, GlobalPhaseIsIgnored)
{
    using std::numbers::pi;
    Circuit a(1), b(1);
    a.rz(0, pi / 2); // = S up to global phase e^{-i pi/4}
    b.s(0);
    EXPECT_TRUE(circuits_equivalent(a, b));
}

/**
 * A seeded random circuit over @p n qubits. With @p rewrite it builds
 * the same unitary from different gates: swap as three CX, CZ as H-CX-H,
 * and Rz(t) as P(t), which differs by the global phase e^{-it/2}.
 */
Circuit
random_circuit(int n, std::uint64_t seed, bool rewrite)
{
    Rng rng(seed);
    Circuit c(n);
    auto qubit = [&] { return static_cast<QubitId>(rng.next_below(n)); };
    for (int i = 0; i < 5 * n; ++i) {
        const QubitId a = qubit();
        QubitId b = qubit();
        if (b == a)
            b = (a + 1) % n;
        const double theta = rng.next_double() * 6.0;
        switch (rng.next_below(6)) {
          case 0:
            c.h(a);
            break;
          case 1:
            c.u3(a, theta, 0.5 * theta, 1.0);
            break;
          case 2:
            if (rewrite)
                c.p(a, theta);
            else
                c.rz(a, theta);
            break;
          case 3:
            c.cp(a, b, theta);
            break;
          case 4:
            if (rewrite)
                c.h(b).cx(a, b).h(b);
            else
                c.cz(a, b);
            break;
          default:
            if (rewrite)
                c.cx(a, b).cx(b, a).cx(a, b);
            else
                c.swap(a, b);
            break;
        }
    }
    return c;
}

/** @p c with @p extra inserted before its middle gate, or with the
 * middle gate dropped when @p extra is empty. */
Circuit
edit_middle(const Circuit& c, std::optional<Gate> extra)
{
    Circuit out(c.num_qubits());
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (i == c.size() / 2) {
            if (!extra)
                continue;
            out.add(*extra);
        }
        out.add(c[i]);
    }
    return out;
}

// Above kDenseEquivalenceMaxQubits circuits_equivalent decides on random
// states; the dense unitary comparison is the oracle it must agree with.
TEST(Unitary, RandomStimuliAgreeWithDenseOracle)
{
    for (int n = kDenseEquivalenceMaxQubits + 1;
         n <= kDenseEquivalenceMaxQubits + 3; ++n) {
        const Circuit a = random_circuit(n, 100 + n, false);
        const CMatrix ua = circuit_unitary(a);
        struct Pair
        {
            const char* what;
            Circuit b;
            bool equivalent;
        };
        const std::vector<Pair> pairs = {
            {"same", a, true},
            {"rewritten", random_circuit(n, 100 + n, true), true},
            {"extra T", edit_middle(a, Gate::t(n / 2)), false},
            {"dropped gate", edit_middle(a, std::nullopt), false},
            {"small CP", edit_middle(a, Gate::cp(0, n - 1, 1e-3)), false},
            // So faint that every overlap still has modulus 1 within
            // eps: only the common-phase requirement rejects it.
            {"faint CP", edit_middle(a, Gate::cp(1, n - 2, 1e-5)), false},
        };
        for (const Pair& p : pairs) {
            const bool dense =
                ua.equal_up_to_phase(circuit_unitary(p.b), 1e-8);
            EXPECT_EQ(dense, p.equivalent) << n << "q " << p.what;
            EXPECT_EQ(circuits_equivalent(a, p.b), dense)
                << n << "q " << p.what;
        }
    }
}

TEST(Unitary, CircuitsEquivalentRejectsOversizedCircuits)
{
    // Refused before any 2^n statevector is allocated.
    EXPECT_THROW(circuits_equivalent(Circuit(21), Circuit(21)),
                 autocomm::support::UserError);
}

} // namespace

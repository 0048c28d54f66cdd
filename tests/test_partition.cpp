/**
 * @file
 * Tests for the interaction graph and the OEE partitioner.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "circuits/library.hpp"
#include "circuits/qft.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/mappers.hpp"
#include "partition/oee.hpp"
#include "qir/decompose.hpp"

namespace {

using namespace autocomm;
using namespace autocomm::partition;

TEST(InteractionGraph, EdgeAccumulation)
{
    InteractionGraph g(3);
    g.add_edge(0, 1);
    g.add_edge(0, 1, 2);
    g.add_edge(1, 2);
    EXPECT_EQ(g.weight(0, 1), 3);
    EXPECT_EQ(g.weight(1, 0), 3);
    EXPECT_EQ(g.weight(0, 2), 0);
    EXPECT_EQ(g.degree(1), 4);
}

TEST(InteractionGraph, FromCircuitCountsMultiQubitGates)
{
    qir::Circuit c(3);
    c.h(0).cx(0, 1).cx(0, 1).cz(1, 2).ccx(0, 1, 2);
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    EXPECT_EQ(g.weight(0, 1), 3); // 2 cx + ccx pair (0,1)
    EXPECT_EQ(g.weight(1, 2), 2); // cz + ccx pair (1,2)
    EXPECT_EQ(g.weight(0, 2), 1); // ccx pair (0,2)
}

TEST(InteractionGraph, CutWeight)
{
    InteractionGraph g(4);
    g.add_edge(0, 1, 5);
    g.add_edge(2, 3, 5);
    g.add_edge(1, 2, 1);
    EXPECT_EQ(g.cut_weight({0, 0, 1, 1}), 1);
    EXPECT_EQ(g.cut_weight({0, 1, 0, 1}), 11);
}

TEST(Oee, RecoversObviousClusters)
{
    // Two 4-cliques connected by a single edge, but interleaved in index
    // order so the contiguous start is bad.
    InteractionGraph g(8);
    const int a[4] = {0, 2, 4, 6}, b[4] = {1, 3, 5, 7};
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j) {
            g.add_edge(a[i], a[j], 10);
            g.add_edge(b[i], b[j], 10);
        }
    g.add_edge(0, 1, 1);

    const auto part = oee_partition(g, 2);
    EXPECT_EQ(g.cut_weight(part), 1);
    // All of cluster a on one side.
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(part[static_cast<std::size_t>(a[i])],
                  part[static_cast<std::size_t>(a[0])]);
}

TEST(Oee, KeepsPartitionsBalanced)
{
    InteractionGraph g(12);
    for (int i = 0; i < 12; ++i)
        for (int j = i + 1; j < 12; ++j)
            g.add_edge(i, j, 1 + (i * j) % 3);
    const auto part = oee_partition(g, 3);
    int counts[3] = {0, 0, 0};
    for (NodeId p : part) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, 3);
        ++counts[p];
    }
    EXPECT_EQ(counts[0], 4);
    EXPECT_EQ(counts[1], 4);
    EXPECT_EQ(counts[2], 4);
}

TEST(Oee, NeverWorseThanContiguous)
{
    const qir::Circuit qft = qir::decompose(circuits::make_qft(24));
    const InteractionGraph g = InteractionGraph::from_circuit(qft);
    std::vector<NodeId> contiguous(24);
    for (int q = 0; q < 24; ++q)
        contiguous[static_cast<std::size_t>(q)] = q / 6;
    const auto oee = oee_partition(g, 4);
    EXPECT_LE(g.cut_weight(oee), g.cut_weight(contiguous));
}

TEST(Oee, SingleNodeIsTrivial)
{
    InteractionGraph g(4);
    g.add_edge(0, 1);
    const auto part = oee_partition(g, 1);
    for (NodeId p : part)
        EXPECT_EQ(p, 0);
}

TEST(Oee, DeterministicAcrossRuns)
{
    InteractionGraph g(10);
    for (int i = 0; i < 10; ++i)
        g.add_edge(i, (i + 3) % 10, 1 + i % 4);
    EXPECT_EQ(oee_partition(g, 2), oee_partition(g, 2));
}

// The unpruned O(n^2) pair scan, kept verbatim as the oracle for the
// pruned search in oee.cpp: both must pick the same exchange every step.
namespace reference {

/**
 * Incrementally maintained connectivity table: conn[q][p] = total edge
 * weight between qubit q and partition p. Makes pairwise exchange gains
 * O(1) and per-swap updates O(deg).
 */
class ConnTable
{
  public:
    ConnTable(const InteractionGraph& g, const std::vector<NodeId>& part,
              int num_parts)
        : g_(g), parts_(num_parts),
          conn_(static_cast<std::size_t>(g.num_qubits()) *
                    static_cast<std::size_t>(num_parts),
                0)
    {
        for (QubitId q = 0; q < g.num_qubits(); ++q)
            for (const auto& [v, w] : g.neighbors(q))
                at(q, part[static_cast<std::size_t>(v)]) += w;
    }

    long& at(QubitId q, NodeId p)
    {
        return conn_[static_cast<std::size_t>(q) *
                         static_cast<std::size_t>(parts_) +
                     static_cast<std::size_t>(p)];
    }

    long at(QubitId q, NodeId p) const
    {
        return conn_[static_cast<std::size_t>(q) *
                         static_cast<std::size_t>(parts_) +
                     static_cast<std::size_t>(p)];
    }

    /** Gain (cut decrease) of swapping partitions of a and b. */
    long
    swap_gain(const std::vector<NodeId>& part, QubitId a, QubitId b) const
    {
        const NodeId pa = part[static_cast<std::size_t>(a)];
        const NodeId pb = part[static_cast<std::size_t>(b)];
        // The direct a-b edge stays cut after the swap; it appears in both
        // D terms and must be subtracted twice.
        return at(a, pb) - at(a, pa) + at(b, pa) - at(b, pb) -
               2 * g_.weight(a, b);
    }

    /** Record that qubit @p q moved from partition @p from to @p to. */
    void
    moved(QubitId q, NodeId from, NodeId to)
    {
        for (const auto& [v, w] : g_.neighbors(q)) {
            at(v, from) -= w;
            at(v, to) += w;
        }
    }

  private:
    const InteractionGraph& g_;
    int parts_;
    std::vector<long> conn_;
};

std::vector<NodeId>
oee_refine(const InteractionGraph& g, std::vector<NodeId> part,
           int num_nodes, const OeeOptions& opts)
{
    const int n = g.num_qubits();
    if (num_nodes == 1 || n <= 1)
        return part;

    // KL locks every vertex once per pass in the classic formulation; for
    // large registers the tail of a pass is rarely profitable, so cap the
    // exchange sequence length (quality is unaffected in practice because
    // the roll-back keeps only the best prefix anyway).
    const int per_pass =
        opts.max_exchanges_per_pass > 0
            ? opts.max_exchanges_per_pass
            : std::min(std::max(1, n / 2), 64);

    for (int pass = 0; pass < opts.max_passes; ++pass) {
        std::vector<NodeId> work = part;
        ConnTable conn(g, work, num_nodes);
        std::vector<char> locked(static_cast<std::size_t>(n), 0);
        std::vector<std::pair<QubitId, QubitId>> sequence;
        std::vector<long> cumulative;
        long running = 0;

        for (int step = 0; step < per_pass; ++step) {
            long best_gain = std::numeric_limits<long>::min();
            QubitId best_a = kInvalidId, best_b = kInvalidId;
            for (QubitId a = 0; a < n; ++a) {
                if (locked[static_cast<std::size_t>(a)])
                    continue;
                for (QubitId b = a + 1; b < n; ++b) {
                    if (locked[static_cast<std::size_t>(b)])
                        continue;
                    if (work[static_cast<std::size_t>(a)] ==
                        work[static_cast<std::size_t>(b)])
                        continue;
                    const long gain = conn.swap_gain(work, a, b);
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_a = a;
                        best_b = b;
                    }
                }
            }
            if (best_a == kInvalidId)
                break; // nothing left to exchange
            const NodeId pa = work[static_cast<std::size_t>(best_a)];
            const NodeId pb = work[static_cast<std::size_t>(best_b)];
            work[static_cast<std::size_t>(best_a)] = pb;
            work[static_cast<std::size_t>(best_b)] = pa;
            conn.moved(best_a, pa, pb);
            conn.moved(best_b, pb, pa);
            locked[static_cast<std::size_t>(best_a)] = 1;
            locked[static_cast<std::size_t>(best_b)] = 1;
            running += best_gain;
            sequence.emplace_back(best_a, best_b);
            cumulative.push_back(running);
        }

        // Roll back to the best (strictly improving) prefix.
        long best_total = 0;
        std::size_t best_len = 0;
        for (std::size_t i = 0; i < cumulative.size(); ++i) {
            if (cumulative[i] > best_total) {
                best_total = cumulative[i];
                best_len = i + 1;
            }
        }
        if (best_len == 0)
            break; // pass produced no improvement: converged
        for (std::size_t i = 0; i < best_len; ++i)
            std::swap(part[static_cast<std::size_t>(sequence[i].first)],
                      part[static_cast<std::size_t>(sequence[i].second)]);
    }
    return part;
}

std::vector<NodeId>
oee_partition(const InteractionGraph& g, int num_nodes)
{
    const int n = g.num_qubits();
    const int per = (n + num_nodes - 1) / num_nodes;
    std::vector<NodeId> part(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
        part[static_cast<std::size_t>(q)] = q / per;
    return oee_refine(g, std::move(part), num_nodes, {});
}

} // namespace reference

/** Every OEE entry point equals the reference scan on @p g. */
void
expect_matches_reference(const InteractionGraph& g, int k,
                         const std::vector<int>& capacities,
                         const std::vector<NodeId>& initial)
{
    EXPECT_EQ(oee_partition(g, k), reference::oee_partition(g, k));
    EXPECT_EQ(oee_partition(g, capacities),
              reference::oee_refine(g, capacity_fill(g.num_qubits(),
                                                     capacities),
                                    static_cast<int>(capacities.size()),
                                    {}));
    EXPECT_EQ(oee_polish(g, initial, k),
              reference::oee_refine(g, initial, k, {}));
}

TEST(OeeExactness, RandomWeightedGraphsMatchUnprunedScan)
{
    std::mt19937 rng(12);
    const auto uniform = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        const int n = uniform(2, 80);
        const int k = uniform(2, 8);
        // Sparse to dense, with heavy and zero weights mixed in.
        const double density = 0.02 + 0.6 * uniform(0, 100) / 100.0;
        const int max_w = trial % 3 == 0 ? 1 : 9;
        InteractionGraph g(n);
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b)
                if (uniform(0, 999) < density * 1000)
                    g.add_edge(a, b, uniform(trial % 7 == 0 ? 0 : 1, max_w));

        std::vector<int> caps(static_cast<std::size_t>(k),
                              (n + k - 1) / k);
        if (trial % 2 == 1) {
            // Unequal capacities: random sizes covering n with slack.
            for (int& c : caps)
                c = uniform(0, n);
            caps[static_cast<std::size_t>(uniform(0, k - 1))] += n;
        }
        std::vector<NodeId> initial(static_cast<std::size_t>(n));
        for (NodeId& p : initial)
            p = uniform(0, k - 1);
        expect_matches_reference(g, k, caps, initial);
    }
}

TEST(OeeExactness, TieHeavyGraphsMatchUnprunedScan)
{
    for (const int n : {2, 7, 24, 41}) {
        for (const int k : {2, 3, 5}) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
            const std::vector<int> caps(static_cast<std::size_t>(k),
                                        (n + k - 1) / k);
            std::vector<NodeId> initial(static_cast<std::size_t>(n));
            for (int q = 0; q < n; ++q)
                initial[static_cast<std::size_t>(q)] = (q * 7 + 3) % k;

            InteractionGraph empty(n);
            expect_matches_reference(empty, k, caps, initial);

            InteractionGraph complete(n);
            for (int a = 0; a < n; ++a)
                for (int b = a + 1; b < n; ++b)
                    complete.add_edge(a, b);
            expect_matches_reference(complete, k, caps, initial);

            InteractionGraph star(n);
            for (int b = 1; b < n; ++b)
                star.add_edge(n / 2, (n / 2 + b) % n);
            expect_matches_reference(star, k, caps, initial);
        }
    }
}

TEST(OeeExactness, PaperCircuitsMatchUnprunedScan)
{
    for (const circuits::Family f :
         {circuits::Family::QFT, circuits::Family::QAOA,
          circuits::Family::MCTR}) {
        SCOPED_TRACE(circuits::family_name(f));
        const InteractionGraph g = InteractionGraph::from_circuit(
            qir::decompose(circuits::make_benchmark({f, 100, 10})));
        const std::vector<int> caps(10, 10);
        std::vector<NodeId> initial(100);
        for (int q = 0; q < 100; ++q)
            initial[static_cast<std::size_t>(q)] = q % 10;
        expect_matches_reference(g, 10, caps, initial);
    }
}

TEST(Mappers, RoundRobinStripes)
{
    const auto map = round_robin_map(6, 3);
    EXPECT_EQ(map.node_of(0), 0);
    EXPECT_EQ(map.node_of(1), 1);
    EXPECT_EQ(map.node_of(2), 2);
    EXPECT_EQ(map.node_of(3), 0);
}

TEST(Mappers, RandomIsBalancedAndSeeded)
{
    const auto a = random_map(20, 4, 9);
    const auto b = random_map(20, 4, 9);
    EXPECT_EQ(a.assignment(), b.assignment());
    std::vector<int> counts(4, 0);
    for (NodeId n : a.assignment())
        ++counts[static_cast<std::size_t>(n)];
    for (int c : counts)
        EXPECT_EQ(c, 5);
}

TEST(Mappers, ContiguousMatchesQubitMappingFactory)
{
    EXPECT_EQ(contiguous_map(9, 3).assignment(),
              hw::QubitMapping::contiguous(9, 3).assignment());
}

} // namespace

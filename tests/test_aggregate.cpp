/**
 * @file
 * Tests for the communication aggregation pass (paper §4.2 / Alg. 1):
 * structural invariants, the worked Figure-4 example, and the soundness
 * guarantee that block reordering preserves circuit semantics.
 */
#include <gtest/gtest.h>

#include "support/log.hpp"

#include <cstdint>
#include <set>
#include <string>

#include "autocomm/aggregate.hpp"
#include "circuits/library.hpp"
#include "circuits/qft.hpp"
#include "partition/mappers.hpp"
#include "qir/decompose.hpp"
#include "qir/unitary.hpp"

namespace {

using namespace autocomm;
using namespace autocomm::pass;
using qir::Circuit;

hw::QubitMapping
fig4_map()
{
    std::vector<NodeId> nodes;
    for (int n : circuits::figure4_mapping())
        nodes.push_back(n);
    return hw::QubitMapping(nodes);
}

/** Every remote gate appears in exactly one block; absorbed gates are
 * disjoint from members and from other blocks. */
void
check_partition_invariant(const Circuit& c, const hw::QubitMapping& map,
                          const std::vector<CommBlock>& blocks)
{
    std::set<std::size_t> seen;
    std::size_t remote_total = 0;
    for (std::size_t i = 0; i < c.size(); ++i)
        if (map.is_remote(c[i]))
            ++remote_total;

    std::size_t member_total = 0;
    for (const CommBlock& b : blocks) {
        EXPECT_FALSE(b.members.empty());
        EXPECT_TRUE(std::is_sorted(b.members.begin(), b.members.end()));
        EXPECT_TRUE(std::is_sorted(b.absorbed.begin(), b.absorbed.end()));
        for (std::size_t i : b.members) {
            EXPECT_TRUE(map.is_remote(c[i])) << "member " << i;
            EXPECT_TRUE(seen.insert(i).second) << "gate " << i << " twice";
            // Every member involves the hub and a qubit on remote_node.
            EXPECT_TRUE(c[i].acts_on(b.hub));
            const QubitId other =
                c[i].qs[0] == b.hub ? c[i].qs[1] : c[i].qs[0];
            EXPECT_EQ(map.node_of(other), b.remote_node);
            EXPECT_EQ(map.node_of(b.hub), b.hub_node);
        }
        for (std::size_t i : b.absorbed) {
            EXPECT_FALSE(map.is_remote(c[i])) << "absorbed remote " << i;
            EXPECT_TRUE(seen.insert(i).second) << "gate " << i << " twice";
            EXPECT_LT(i, b.members.back());
            EXPECT_GT(i, b.members.front());
        }
        ++member_total;
    }
    std::size_t members = 0;
    for (const CommBlock& b : blocks)
        members += b.members.size();
    EXPECT_EQ(members, remote_total);
}

TEST(Aggregate, SparseModeMakesOneBlockPerGate)
{
    const Circuit c = circuits::figure4_program();
    const auto map = fig4_map();
    AggregateOptions opts;
    opts.use_commutation = false;
    const auto blocks = aggregate(c, map, opts);
    EXPECT_EQ(blocks.size(), map.count_remote(c));
    for (const CommBlock& b : blocks) {
        EXPECT_EQ(b.members.size(), 1u);
        EXPECT_TRUE(b.absorbed.empty());
    }
    check_partition_invariant(c, map, blocks);
}

TEST(Aggregate, Figure4FormsBursts)
{
    const Circuit c = circuits::figure4_program();
    const auto map = fig4_map();
    const auto blocks = aggregate(c, map);
    check_partition_invariant(c, map, blocks);
    // Burst aggregation must beat sparse: fewer blocks than remote gates.
    EXPECT_LT(blocks.size(), map.count_remote(c));
    // The q2 <-> node A burst (the paper's q3/node-A pair) must exist with
    // at least 3 member gates.
    bool found_q2_burst = false;
    for (const CommBlock& b : blocks)
        if (b.hub == 2 && b.remote_node == 0 && b.members.size() >= 3)
            found_q2_burst = true;
    EXPECT_TRUE(found_q2_burst);
}

TEST(Aggregate, ReorderingPreservesSemantics_Figure4)
{
    const Circuit c = circuits::figure4_program();
    const auto map = fig4_map();
    const auto blocks = aggregate(c, map);
    std::vector<std::size_t> starts;
    const Circuit r = reorder_with_blocks(c, blocks, &starts);
    EXPECT_EQ(r.size(), c.size());
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
    ASSERT_EQ(starts.size(), blocks.size());
}

TEST(Aggregate, ReorderingPreservesSemantics_SmallQft)
{
    const Circuit c = qir::decompose(circuits::make_qft(8));
    const auto map = hw::QubitMapping::contiguous(8, 2);
    const auto blocks = aggregate(c, map);
    check_partition_invariant(c, map, blocks);
    const Circuit r = reorder_with_blocks(c, blocks);
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
}

TEST(Aggregate, ReorderingPreservesSemantics_RandomStress)
{
    // Random circuits over 8 qubits / 2 nodes: the reordered circuit must
    // always be unitary-equivalent to the original.
    support::Rng rng(2022);
    for (int trial = 0; trial < 12; ++trial) {
        Circuit c(8);
        for (int g = 0; g < 60; ++g) {
            const int kind = static_cast<int>(rng.next_below(6));
            const QubitId a = static_cast<QubitId>(rng.next_below(8));
            QubitId b = static_cast<QubitId>(rng.next_below(8));
            while (b == a)
                b = static_cast<QubitId>(rng.next_below(8));
            switch (kind) {
              case 0: c.cx(a, b); break;
              case 1: c.rz(a, rng.next_double()); break;
              case 2: c.h(a); break;
              case 3: c.t(a); break;
              case 4: c.cx(b, a); break;
              default: c.rx(a, rng.next_double()); break;
            }
        }
        const auto map = hw::QubitMapping::contiguous(8, 2);
        const auto blocks = aggregate(c, map);
        check_partition_invariant(c, map, blocks);
        const Circuit r = reorder_with_blocks(c, blocks);
        EXPECT_TRUE(qir::circuits_equivalent(c, r)) << "trial " << trial;
    }
}

TEST(Aggregate, QftBurstsGrowWithNodeSize)
{
    // With t qubits per node, QFT hubs accumulate ~2(t-1)+ remote CX per
    // block; larger nodes must produce larger maximal blocks.
    const Circuit c16 = qir::decompose(circuits::make_qft(16));
    const auto blocks4 =
        aggregate(c16, hw::QubitMapping::contiguous(16, 4));
    const auto blocks8 =
        aggregate(c16, hw::QubitMapping::contiguous(16, 8));
    std::size_t max4 = 0, max8 = 0;
    for (const auto& b : blocks4)
        max4 = std::max(max4, b.members.size());
    for (const auto& b : blocks8)
        max8 = std::max(max8, b.members.size());
    EXPECT_GT(max4, max8);
}

TEST(Aggregate, CommutationBeatsSparseOnQft)
{
    const Circuit c = qir::decompose(circuits::make_qft(20));
    const auto map = hw::QubitMapping::contiguous(20, 4);
    const auto burst = aggregate(c, map);
    AggregateOptions sparse;
    sparse.use_commutation = false;
    const auto single = aggregate(c, map, sparse);
    EXPECT_LT(burst.size(), single.size() / 3);
}

TEST(Aggregate, BarrierBreaksBlocks)
{
    // Two remote CX on the same pair, split by a barrier: two blocks.
    Circuit c(4);
    c.cx(0, 2).barrier().cx(0, 2);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    const auto blocks = aggregate(c, map);
    EXPECT_EQ(blocks.size(), 2u);

    Circuit c2(4);
    c2.cx(0, 2).cx(0, 2);
    EXPECT_EQ(aggregate(c2, map).size(), 1u);
}

TEST(Aggregate, NonCommutingRemoteGateBreaksBlock)
{
    // CX(0,2), then CX(2,3)... wait gates within one node are local; use
    // a remote gate on a different pair that shares the hub's far qubit.
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3); // {0,1},{2,3},{4,5}
    c.cx(0, 2);  // pair (0, node1)
    c.cx(4, 2);  // pair (4, node1) — shares target q2, commutes
    c.cx(0, 3);  // pair (0, node1) again
    const auto blocks = aggregate(c, map);
    // CX(4,2) shares q2 as target with CX(0,2): both X-type on q2, so the
    // q0 block may extend across it.
    bool has_two_gate_block = false;
    for (const auto& b : blocks)
        if (b.hub == 0 && b.members.size() == 2)
            has_two_gate_block = true;
    EXPECT_TRUE(has_two_gate_block);

    Circuit c2(6);
    c2.cx(0, 2); // pair (0, node1)
    c2.cx(2, 4); // q2 now a control: breaks X-axis context on q2...
    c2.cx(0, 2);
    const auto blocks2 = aggregate(c2, map);
    // ...but the interrupting gate is itself a complete block between the
    // two members, so iterative refinement nests it and the q0 burst
    // survives (both node1 comm qubits are in use while it runs).
    ASSERT_EQ(blocks2.size(), 2u);
    bool found_nested = false;
    for (std::size_t b = 0; b < blocks2.size(); ++b) {
        if (blocks2[b].hub == 0) {
            EXPECT_EQ(blocks2[b].members.size(), 2u);
            EXPECT_EQ(blocks2[b].children.size(), 1u);
        } else {
            EXPECT_NE(blocks2[b].parent, -1);
            found_nested = true;
        }
    }
    EXPECT_TRUE(found_nested);
}

TEST(Aggregate, NestingRespectsCommCapacity)
{
    // With comm_capacity 1 the same program cannot nest: sessions would
    // need two comm qubits on the shared node.
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3);
    c.cx(0, 2).cx(2, 4).cx(0, 2);
    AggregateOptions opts;
    opts.comm_capacity = 1;
    const auto blocks = aggregate(c, map, opts);
    for (const auto& b : blocks) {
        EXPECT_EQ(b.parent, -1);
        EXPECT_TRUE(b.children.empty());
    }
}

TEST(Aggregate, NestedReorderingPreservesSemantics)
{
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3);
    c.h(0).cx(0, 2).t(4).cx(2, 4).cx(0, 2).h(4).cx(2, 4).cx(0, 3);
    const auto blocks = aggregate(c, map);
    const Circuit r = reorder_with_blocks(c, blocks);
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
}

TEST(Aggregate, AbsorbsLocalGatesInsideWindow)
{
    Circuit c(4);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    c.cx(0, 2);
    c.h(2);      // local 1q on the remote target: not commuting (X vs H)
    c.cx(0, 2);
    const auto blocks = aggregate(c, map);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].members.size(), 2u);
    EXPECT_EQ(blocks[0].absorbed.size(), 1u);
    const Circuit r = reorder_with_blocks(c, blocks);
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
}

TEST(Aggregate, HubTwoQubitLocalGateBreaksBlock)
{
    // A local CX acting on the hub between two remote gates cannot be
    // absorbed and does not commute: the block must split.
    Circuit c(4);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    c.cx(0, 2);
    c.cx(1, 0); // local, touches hub q0 as target (X vs Diag: no commute)
    c.cx(0, 2);
    const auto blocks = aggregate(c, map);
    for (const auto& b : blocks)
        EXPECT_EQ(b.members.size(), 1u);
}

TEST(Aggregate, RejectsRemoteThreeQubitGate)
{
    Circuit c(4);
    c.ccx(0, 1, 3);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    EXPECT_THROW(aggregate(c, map), support::UserError);
}

TEST(Aggregate, DeterministicOutput)
{
    const Circuit c = qir::decompose(circuits::make_qft(12));
    const auto map = hw::QubitMapping::contiguous(12, 3);
    const auto a = aggregate(c, map);
    const auto b = aggregate(c, map);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].members, b[i].members);
        EXPECT_EQ(a[i].hub, b[i].hub);
    }
}

/** FNV-1a 64 of @p s. */
std::uint64_t
fnv1a64(const std::string& s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    return h;
}

/** One "hub,hub_node,remote_node,members,absorbed,children,parent" line
 * per block, in output order. */
std::string
block_table(const std::vector<CommBlock>& blocks)
{
    std::string out;
    for (const CommBlock& b : blocks)
        out += std::to_string(b.hub) + "," + std::to_string(b.hub_node) +
               "," + std::to_string(b.remote_node) + "," +
               std::to_string(b.members.size()) + "," +
               std::to_string(b.absorbed.size()) + "," +
               std::to_string(b.children.size()) + "," +
               std::to_string(b.parent) + "\n";
    return out;
}

// Pins the serial pass's exact output on a scan-dominated case (QFT:
// dense gaps) and a refinement-dominated one (MCTR: long merge chains).
// Every block's hub, hub/remote node, member/absorbed/children counts
// and parent feed the digest, so any drift in any block fails; the
// table is printed on failure for diffing. Nesting is pinned separately
// (NonCommutingRemoteGateBreaksBlock, NestingRespectsCommCapacity).
TEST(Aggregate, SerialOutputIsPinned)
{
    struct Case
    {
        const char* name;
        Circuit c;
        hw::QubitMapping map;
        std::size_t blocks;
        const char* first;
        std::uint64_t digest;
    };
    std::vector<Case> cases;
    cases.push_back({"QFT-60", qir::decompose(circuits::make_qft(60)),
                     hw::QubitMapping::contiguous(60, 6), 150,
                     "0,0,1,20,19,0,-1\n", 0x83d46870cf641c14ull});
    const circuits::BenchmarkSpec mctr =
        circuits::spec_for({circuits::Family::MCTR}, 80, 8);
    cases.push_back({"MCTR-80",
                     qir::decompose(circuits::make_benchmark(mctr, 2022)),
                     hw::QubitMapping::contiguous(80, 8), 1273,
                     "38,3,7,2,3,0,-1\n", 0x00f24e67f08c89c7ull});

    for (const Case& cs : cases) {
        const auto blocks = aggregate(cs.c, cs.map);
        ASSERT_EQ(blocks.size(), cs.blocks) << cs.name;
        const std::string table = block_table(blocks);
        EXPECT_EQ(table.substr(0, table.find('\n') + 1), cs.first)
            << cs.name;
        EXPECT_EQ(fnv1a64(table), cs.digest) << cs.name << "\n" << table;
    }
}

} // namespace

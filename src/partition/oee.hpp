/**
 * @file
 * Static "Overall Extreme Exchange" (OEE) qubit partitioner.
 *
 * The paper maps qubits to nodes with the Static Overall Extreme Exchange
 * strategy of Baker et al. [11]: a Kernighan–Lin-style multi-way exchange
 * heuristic. Starting from a balanced assignment, each pass greedily
 * applies the *extreme* (maximum-gain) pairwise exchange of two qubits in
 * different partitions — even when the immediate gain is negative, KL
 * hill-climbing style — locks the pair, and at pass end rolls back to the
 * best prefix of the exchange sequence. Passes repeat until no pass
 * improves the cut.
 *
 * Exactness contract: each step takes the unlocked cross-partition pair
 * (a, b), a < b, of largest gain; pairs are compared in (a ascending,
 * then b ascending) order with a strict `>`, so the lowest (a, b) wins
 * ties. The search prunes with an upper bound on the gain (Kernighan–Lin
 * 1970 style): the gain without its -2·w(a,b) term, which is valid
 * because edge weights are >= 0. A pair is skipped only when its bound
 * is <= the best gain so far, so the chosen pair — and every partition —
 * equals that of the full scan.
 *
 * Per-step cost, for n qubits: one O(1) bound test per unlocked pair,
 * O(n²) in all, plus an O(deg(a)) scatter of a's adjacency row for each
 * a with a pair that passes the bound, which makes each w(a,b) an O(1)
 * read. Each exchange then updates the connectivity table in
 * O(deg(a) + deg(b)).
 */
#pragma once

#include <vector>

#include "hw/machine.hpp"
#include "partition/interaction_graph.hpp"

namespace autocomm::partition {

/** Configuration for the OEE partitioner. */
struct OeeOptions
{
    /** Upper bound on improvement passes (safety valve). */
    int max_passes = 16;

    /**
     * Maximum exchanges considered per pass; 0 means n/2 (lock every
     * vertex at most once per pass, the KL default).
     */
    int max_exchanges_per_pass = 0;
};

/**
 * Partition the qubits of @p g into @p num_nodes balanced parts minimizing
 * the interaction cut. The initial assignment is contiguous (qubit q ->
 * node q/t), matching a static program layout.
 *
 * @return the qubit -> node assignment.
 */
std::vector<NodeId> oee_partition(const InteractionGraph& g, int num_nodes,
                                  const OeeOptions& opts = {});

/**
 * Capacity-aware OEE: partition into parts sized by the per-node
 * capacities. The initial assignment is the capacity-contiguous fill and
 * the pairwise exchanges preserve every node's load, so no node ever
 * exceeds its declared capacity. Throws support::UserError when
 * sum(capacities) < |qubits|. With equal capacities ceil(n/k) this is
 * exactly the homogeneous oee_partition above.
 */
std::vector<NodeId> oee_partition(const InteractionGraph& g,
                                  const std::vector<int>& capacities,
                                  const OeeOptions& opts = {});

/**
 * Run OEE's exchange passes from an explicit initial assignment instead
 * of the contiguous fill — the "polish" mode the multilevel partitioner
 * uses to seed a short flat-cut refinement (Mapper::MultilevelOee).
 * Exchanges preserve per-node loads, so whatever capacities @p initial
 * respects stay respected; the flat cut never increases.
 */
std::vector<NodeId> oee_polish(const InteractionGraph& g,
                               std::vector<NodeId> initial, int num_nodes,
                               const OeeOptions& opts = {});

/** Convenience: run OEE on a circuit's interaction graph. */
hw::QubitMapping oee_map(const qir::Circuit& c, int num_nodes,
                         const OeeOptions& opts = {});

/** Capacity-aware convenience over a machine shape. */
hw::QubitMapping oee_map(const qir::Circuit& c, const hw::Machine& m,
                         const OeeOptions& opts = {});

/**
 * Same, over a prebuilt interaction graph — lets callers that partition
 * one circuit against many machine shapes (e.g. driver::run_sweep)
 * construct the graph once instead of per configuration.
 */
hw::QubitMapping oee_map(const InteractionGraph& g, const hw::Machine& m,
                         const OeeOptions& opts = {});

} // namespace autocomm::partition

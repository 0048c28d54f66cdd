#include "partition/oee.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "partition/mappers.hpp"
#include "support/log.hpp"

namespace autocomm::partition {

namespace {

/**
 * Incrementally maintained connectivity table: conn[q][p] = total edge
 * weight between qubit q and partition p. Makes the partition terms of an
 * exchange gain O(1) and per-swap updates O(deg).
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

/**
 * The KL-style exchange loop shared by the homogeneous and
 * capacity-aware entry points. Exchanges swap two qubits' partitions, so
 * whatever per-node loads @p part starts with are invariant.
 */
std::vector<NodeId>
oee_refine(const InteractionGraph& g, std::vector<NodeId> part,
           int num_nodes, const OeeOptions& opts);

} // namespace

std::vector<NodeId>
oee_partition(const InteractionGraph& g, int num_nodes,
              const OeeOptions& opts)
{
    const int n = g.num_qubits();
    if (num_nodes <= 0)
        support::fatal("oee_partition: num_nodes must be positive");
    const int per = (n + num_nodes - 1) / num_nodes;

    std::vector<NodeId> part(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
        part[static_cast<std::size_t>(q)] = q / per;
    return oee_refine(g, std::move(part), num_nodes, opts);
}

std::vector<NodeId>
oee_partition(const InteractionGraph& g, const std::vector<int>& capacities,
              const OeeOptions& opts)
{
    return oee_refine(g, capacity_fill(g.num_qubits(), capacities),
                      static_cast<int>(capacities.size()), opts);
}

std::vector<NodeId>
oee_polish(const InteractionGraph& g, std::vector<NodeId> initial,
           int num_nodes, const OeeOptions& opts)
{
    return oee_refine(g, std::move(initial), num_nodes, opts);
}

namespace {

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

    const auto idx = [](QubitId q) { return static_cast<std::size_t>(q); };
    // Scatter of the current a's adjacency row: w_a[b] = weight(a, b).
    std::vector<long> w_a(idx(n), 0);

    for (int pass = 0; pass < opts.max_passes; ++pass) {
        std::vector<NodeId> work = part;
        ConnTable conn(g, work, num_nodes);
        std::vector<QubitId> unlocked(idx(n)); // ascending
        std::iota(unlocked.begin(), unlocked.end(), 0);
        std::vector<std::pair<QubitId, QubitId>> sequence;
        std::vector<long> cumulative;
        long running = 0;

        for (int step = 0; step < per_pass; ++step) {
            // gain(a, b) = at(a,pb) - at(a,pa) + at(b,pa) - at(b,pb)
            //              - 2 w(a,b),
            // the direct edge staying cut. As w(a,b) >= 0 the first four
            // terms bound the gain; a pair whose bound is <= best_gain
            // cannot win the strict `>` of the (a, b)-ordered scan (see
            // oee.hpp).
            long best_gain = std::numeric_limits<long>::min();
            QubitId best_a = kInvalidId, best_b = kInvalidId;
            for (std::size_t i = 0; i < unlocked.size(); ++i) {
                const QubitId a = unlocked[i];
                const NodeId pa = work[idx(a)];
                const long stay = conn.at(a, pa);
                bool scattered = false;
                for (std::size_t j = i + 1; j < unlocked.size(); ++j) {
                    const QubitId b = unlocked[j];
                    const NodeId pb = work[idx(b)];
                    if (pb == pa)
                        continue;
                    const long bound = conn.at(a, pb) - stay +
                                       conn.at(b, pa) - conn.at(b, pb);
                    if (bound <= best_gain)
                        continue;
                    if (!scattered) {
                        for (const auto& [v, w] : g.neighbors(a))
                            w_a[idx(v)] = w;
                        scattered = true;
                    }
                    const long gain = bound - 2 * w_a[idx(b)];
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_a = a;
                        best_b = b;
                    }
                }
                if (scattered)
                    for (const auto& [v, w] : g.neighbors(a))
                        w_a[idx(v)] = 0;
            }
            if (best_a == kInvalidId)
                break; // nothing left to exchange
            const NodeId pa = work[static_cast<std::size_t>(best_a)];
            const NodeId pb = work[static_cast<std::size_t>(best_b)];
            work[static_cast<std::size_t>(best_a)] = pb;
            work[static_cast<std::size_t>(best_b)] = pa;
            conn.moved(best_a, pa, pb);
            conn.moved(best_b, pb, pa);
            std::erase(unlocked, best_a);
            std::erase(unlocked, best_b);
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

} // namespace

hw::QubitMapping
oee_map(const qir::Circuit& c, int num_nodes, const OeeOptions& opts)
{
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    return hw::QubitMapping(oee_partition(g, num_nodes, opts));
}

hw::QubitMapping
oee_map(const qir::Circuit& c, const hw::Machine& m, const OeeOptions& opts)
{
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    return hw::QubitMapping(oee_partition(g, m.capacities(), opts));
}

hw::QubitMapping
oee_map(const InteractionGraph& g, const hw::Machine& m,
        const OeeOptions& opts)
{
    return hw::QubitMapping(oee_partition(g, m.capacities(), opts));
}

} // namespace autocomm::partition

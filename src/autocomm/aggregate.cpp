#include "autocomm/aggregate.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/decision.hpp"
#include "qir/commute.hpp"
#include "support/log.hpp"

namespace autocomm::pass {

namespace {

using qir::BlockContext;
using qir::Gate;
using qir::GateKind;

/** Growing block state during the per-pair scan. */
struct Builder
{
    std::vector<std::size_t> members;
    std::vector<std::size_t> absorbed;
    std::vector<std::size_t> children; ///< nested block ids
    BlockContext ctx;

    bool empty() const { return members.empty(); }

    void
    reset()
    {
        members.clear();
        absorbed.clear();
        children.clear();
        ctx = BlockContext();
    }
};

/** Fences that no block may extend across. */
bool
is_fence(const Gate& g)
{
    return !qir::is_unitary_gate(g.kind) || g.cond_bit >= 0;
}

struct PairInfo
{
    QubitId hub;
    NodeId rnode;
    std::vector<std::size_t> gates;
};

/** Scored refinement merge: what try_merge would fold into A. */
struct MergePlan
{
    std::vector<std::size_t> pending;
    std::vector<std::size_t> pending_children;
};

/** The aggregation pass state machine. */
struct Aggregator
{
    const qir::Circuit& c;
    const hw::QubitMapping& map;
    const AggregateOptions& opts;

    std::size_t n;
    long num_nodes;
    std::vector<char> remote;
    std::vector<int> owner;
    std::vector<CommBlock> out;
    std::vector<PairInfo> pairs;
    std::vector<std::size_t> order;

    // Memoized per finalized block: transitive qubit-touch set, per-node
    // session load, and accumulated commutation context (blocks are
    // frozen once finalized, except for acquiring a parent; refinement
    // merges invalidate explicitly).
    std::vector<std::vector<QubitId>> touch_cache;
    std::vector<std::vector<std::pair<NodeId, int>>> load_cache;
    std::vector<BlockContext> ctx_cache;

    Aggregator(const qir::Circuit& c_, const hw::QubitMapping& map_,
               const AggregateOptions& opts_)
        : c(c_), map(map_), opts(opts_), n(c_.size()),
          num_nodes(std::max(1, map_.num_nodes())), remote(n, 0),
          owner(n, -1)
    {
    }

    // ---- Block emission ------------------------------------------------

    void
    emit_block(std::vector<std::size_t> members,
               std::vector<std::size_t> absorbed,
               std::vector<std::size_t> children, QubitId hub, NodeId rnode)
    {
        if (members.empty())
            return;
        // Burst-pair outcome: a multi-gate block is an aggregation win
        // ("accept"); a single lone gate means the scan found nothing to
        // merge and communication stays per-gate ("reject").
        obs::decision("aggregate.burst",
                      members.size() + absorbed.size() >= 2 ? "accept"
                                                            : "reject",
                      obs::arg("hub", hub), obs::arg("rnode", rnode),
                      obs::arg("members", members.size()),
                      obs::arg("absorbed", absorbed.size()),
                      obs::arg("children", children.size()));
        CommBlock blk;
        blk.hub = hub;
        blk.hub_node = map.node_of(hub);
        blk.remote_node = rnode;
        blk.members = std::move(members);
        blk.absorbed = std::move(absorbed);
        blk.children = std::move(children);
        std::sort(blk.absorbed.begin(), blk.absorbed.end());
        std::sort(blk.children.begin(), blk.children.end(),
                  [&](std::size_t x, std::size_t y) {
                      return out[x].window_begin() < out[y].window_begin();
                  });
        const int id = static_cast<int>(out.size());
        for (std::size_t i : blk.members)
            owner[i] = id;
        for (std::size_t i : blk.absorbed)
            owner[i] = id;
        for (std::size_t ch : blk.children)
            out[ch].parent = id;
        out.push_back(std::move(blk));
    }

    void
    finalize(Builder& b, QubitId hub, NodeId rnode)
    {
        if (b.empty())
            return;
        emit_block(std::move(b.members), std::move(b.absorbed),
                   std::move(b.children), hub, rnode);
        b.reset();
    }

    // ---- Nesting support ----------------------------------------------
    // A complete, already-claimed block whose whole window falls inside
    // the interval being merged can ride along as a *nested child*: its
    // communication session overlaps the parent's, which the hardware
    // supports as long as no node needs more than comm_capacity sessions
    // at once (each session pins one comm qubit per endpoint).

    std::size_t
    top_ancestor(std::size_t b) const
    {
        while (out[b].parent != -1)
            b = static_cast<std::size_t>(out[b].parent);
        return b;
    }

    void
    ensure_cached(std::size_t b)
    {
        if (b < touch_cache.size() && !touch_cache[b].empty())
            return;
        if (touch_cache.size() < out.size()) {
            touch_cache.resize(out.size());
            load_cache.resize(out.size());
            ctx_cache.resize(out.size());
        }
        BlockContext ctx;
        std::vector<QubitId> touched;
        auto note = [&touched](QubitId q) {
            if (std::find(touched.begin(), touched.end(), q) ==
                touched.end())
                touched.push_back(q);
        };
        for (std::size_t i : out[b].members) {
            ctx.absorb(c[i]);
            for (int k = 0; k < c[i].num_qubits; ++k)
                note(c[i].qs[static_cast<std::size_t>(k)]);
        }
        for (std::size_t i : out[b].absorbed) {
            ctx.absorb(c[i]);
            for (int k = 0; k < c[i].num_qubits; ++k)
                note(c[i].qs[static_cast<std::size_t>(k)]);
        }

        // Session load: one comm qubit on the hub side; two on the remote
        // side (a TP block's return teleport transiently needs both the
        // vessel and the EPR source there — schemes are assigned later,
        // so count conservatively).
        std::vector<std::pair<NodeId, int>> load = {
            {out[b].hub_node, 1}, {out[b].remote_node, 2}};
        for (std::size_t ch : out[b].children) {
            ensure_cached(ch);
            ctx.merge(ctx_cache[ch]);
            for (QubitId q : touch_cache[ch])
                note(q);
            for (const auto& [node, l] : load_cache[ch]) {
                bool found = false;
                const int base =
                    (node == out[b].hub_node || node == out[b].remote_node)
                        ? 1
                        : 0;
                for (auto& [n2, cur] : load)
                    if (n2 == node) {
                        cur = std::max(cur, base + l);
                        found = true;
                    }
                if (!found)
                    load.emplace_back(node, l);
            }
        }
        touch_cache[b] = std::move(touched);
        load_cache[b] = std::move(load);
        ctx_cache[b] = std::move(ctx);
    }

    /** The touch set of block @p b (filling the memo on demand). */
    const std::vector<QubitId>&
    touches(std::size_t b)
    {
        ensure_cached(b);
        return touch_cache[b];
    }

    void
    invalidate_cache(std::size_t b)
    {
        if (b < touch_cache.size()) {
            touch_cache[b].clear();
            load_cache[b].clear();
            ctx_cache[b] = BlockContext();
        }
    }

    // ---- Preprocessing -------------------------------------------------

    void
    flag_remote()
    {
        for (std::size_t i = 0; i < n; ++i) {
            const Gate& g = c[i];
            if (g.num_qubits >= 2 && map.is_remote(g)) {
                if (g.num_qubits > 2)
                    support::fatal("aggregate: remote %d-qubit gate at "
                                   "%zu; decompose first",
                                   g.num_qubits, i);
                remote[i] = 1;
            }
        }
    }

    void
    rank_pairs()
    {
        std::unordered_map<long, std::size_t> pair_index;
        auto note_pair = [&](QubitId hub, NodeId rnode, std::size_t gate) {
            const long key = static_cast<long>(hub) * num_nodes + rnode;
            auto [it, inserted] = pair_index.try_emplace(key, pairs.size());
            if (inserted)
                pairs.push_back({hub, rnode, {}});
            pairs[it->second].gates.push_back(gate);
        };
        for (std::size_t i = 0; i < n; ++i) {
            if (!remote[i])
                continue;
            const Gate& g = c[i];
            note_pair(g.qs[0], map.node_of(g.qs[1]), i);
            note_pair(g.qs[1], map.node_of(g.qs[0]), i);
        }
        order.resize(pairs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (pairs[a].gates.size() != pairs[b].gates.size())
                          return pairs[a].gates.size() >
                                 pairs[b].gates.size();
                      if (pairs[a].hub != pairs[b].hub)
                          return pairs[a].hub < pairs[b].hub;
                      return pairs[a].rnode < pairs[b].rnode;
                  });
    }

    // ---- Linear merge per pair, densest pair first ---------------------

    void
    scan_pair(std::size_t pi)
    {
        const PairInfo& pair = pairs[pi];
        Builder cur;
        std::size_t prev = 0; // last member index (valid if !cur.empty())

        for (std::size_t idx : pair.gates) {
            if (owner[idx] != -1)
                continue; // claimed by an earlier block
            if (cur.empty()) {
                cur.members.push_back(idx);
                cur.ctx.absorb(c[idx]);
                prev = idx;
                continue;
            }

            // Attempt to extend across the interval (prev, idx).
            BlockContext ctx2 = cur.ctx;
            std::vector<std::size_t> pending;
            std::vector<std::size_t> pending_children;
            bool ok = true;
            for (std::size_t j = prev + 1; j < idx && ok; ++j) {
                const Gate& g = c[j];
                if (g.kind == GateKind::Barrier || is_fence(g)) {
                    ok = false;
                    break;
                }
                if (owner[j] != -1) {
                    const std::size_t top =
                        top_ancestor(static_cast<std::size_t>(owner[j]));
                    const bool already_nested =
                        std::find(pending_children.begin(),
                                  pending_children.end(),
                                  top) != pending_children.end() ||
                        std::find(cur.children.begin(), cur.children.end(),
                                  top) != cur.children.end();
                    if (already_nested)
                        continue; // inside a nested child: handled
                    if (ctx2.commutes(g))
                        continue; // whole-block push-out, gate by gate
                    // Try to nest the complete block `top`.
                    const CommBlock& cb = out[top];
                    ok = false;
                    if (opts.absorb_local_gates &&
                        cb.window_begin() > prev && cb.window_end() < idx) {
                        const std::vector<QubitId>& tt = touches(top);
                        const bool hits_hub =
                            std::find(tt.begin(), tt.end(), pair.hub) !=
                            tt.end();
                        bool window_clash = false;
                        auto overlaps = [&](std::size_t other) {
                            return out[other].window_begin() <=
                                       cb.window_end() &&
                                   cb.window_begin() <=
                                       out[other].window_end();
                        };
                        for (std::size_t sib : cur.children)
                            window_clash |= overlaps(sib);
                        for (std::size_t sib : pending_children)
                            window_clash |= overlaps(sib);
                        bool capacity_ok = true;
                        const NodeId parent_hub_node =
                            map.node_of(pair.hub);
                        for (const auto& [node, l] : load_cache[top]) {
                            const int parent_use =
                                (node == parent_hub_node ||
                                 node == pair.rnode)
                                    ? 1
                                    : 0;
                            if (l + parent_use > opts.comm_capacity)
                                capacity_ok = false;
                        }
                        if (!hits_hub && !window_clash && capacity_ok) {
                            pending_children.push_back(top);
                            // Later push-outs must commute past the
                            // nested child's gates too (descendants
                            // included — the memoized context carries
                            // their axis masks).
                            ctx2.merge(ctx_cache[top]);
                            ok = true;
                        }
                    }
                    continue;
                }
                if (ctx2.commutes(g))
                    continue; // push out of the window
                const bool touches_hub = g.acts_on(pair.hub);
                if (g.is_single_qubit() && opts.absorb_local_gates) {
                    pending.push_back(j);
                    ctx2.absorb(g);
                } else if (g.num_qubits >= 2 && !remote[j] &&
                           !touches_hub && opts.absorb_local_gates) {
                    pending.push_back(j);
                    ctx2.absorb(g);
                } else {
                    ok = false;
                }
            }

            if (ok) {
                cur.members.push_back(idx);
                ctx2.absorb(c[idx]);
                cur.ctx = std::move(ctx2);
                cur.absorbed.insert(cur.absorbed.end(), pending.begin(),
                                    pending.end());
                cur.children.insert(cur.children.end(),
                                    pending_children.begin(),
                                    pending_children.end());
                prev = idx;
            } else {
                finalize(cur, pair.hub, pair.rnode);
                cur.members.push_back(idx);
                cur.ctx.absorb(c[idx]);
                prev = idx;
            }
        }
        finalize(cur, pair.hub, pair.rnode);
    }

    // ---- Iterative refinement (paper §4.2): block-level merging --------
    // The per-pair scans above fragment when a not-yet-formed block of
    // another pair interrupts an interval. Now that every remote gate is
    // claimed, repeatedly merge adjacent same-pair blocks, nesting the
    // complete blocks that lie between them, until a fixpoint.

    /**
     * Score the merge of adjacent same-pair blocks @p a and @p b2 into
     * @p plan without mutating any block (only the memo caches fill).
     */
    bool
    evaluate_merge(std::size_t a, std::size_t b2, MergePlan& plan)
    {
        const CommBlock& A = out[a];
        const CommBlock& B = out[b2];
        const std::size_t lo = A.members.back();
        const std::size_t hi = B.members.front();

        ensure_cached(a);
        ensure_cached(b2);
        BlockContext ctx = ctx_cache[a];
        ctx.merge(ctx_cache[b2]);

        for (std::size_t j = lo + 1; j < hi; ++j) {
            const Gate& g = c[j];
            if (g.kind == GateKind::Barrier || is_fence(g))
                return false;
            if (owner[j] != -1) {
                const std::size_t top =
                    top_ancestor(static_cast<std::size_t>(owner[j]));
                if (top == a || top == b2)
                    continue; // absorbed gate of A inside the gap
                const bool already =
                    std::find(plan.pending_children.begin(),
                              plan.pending_children.end(),
                              top) != plan.pending_children.end();
                if (already)
                    continue;
                if (ctx.commutes(g))
                    continue;
                const CommBlock& cb = out[top];
                if (!(cb.window_begin() > lo && cb.window_end() < hi))
                    return false;
                const std::vector<QubitId>& tt = touches(top);
                if (std::find(tt.begin(), tt.end(), A.hub) != tt.end())
                    return false;
                for (std::size_t sib : plan.pending_children)
                    if (out[sib].window_begin() <= cb.window_end() &&
                        cb.window_begin() <= out[sib].window_end())
                        return false;
                for (std::size_t sib : A.children)
                    if (out[sib].window_begin() <= cb.window_end() &&
                        cb.window_begin() <= out[sib].window_end())
                        return false;
                for (const auto& [node, l] : load_cache[top]) {
                    const int parent_use =
                        (node == A.hub_node || node == A.remote_node) ? 1
                                                                      : 0;
                    if (l + parent_use > opts.comm_capacity)
                        return false;
                }
                plan.pending_children.push_back(top);
                // Later push-outs must clear the nested child's gates
                // (including its own descendants').
                ctx.merge(ctx_cache[top]);
                continue;
            }
            if (ctx.commutes(g))
                continue;
            const bool touches_hub = g.acts_on(A.hub);
            if (g.is_single_qubit() && opts.absorb_local_gates) {
                plan.pending.push_back(j);
                ctx.absorb(g);
            } else if (g.num_qubits >= 2 && !remote[j] && !touches_hub &&
                       opts.absorb_local_gates) {
                plan.pending.push_back(j);
                ctx.absorb(g);
            } else {
                return false;
            }
        }
        return true;
    }

    /** Commit: fold B and the gap into A. */
    void
    commit_merge(std::size_t a, std::size_t b2, MergePlan& plan)
    {
        CommBlock& A = out[a];
        CommBlock& B = out[b2];
        const int a_id = static_cast<int>(a);
        A.members.insert(A.members.end(), B.members.begin(),
                         B.members.end());
        A.absorbed.insert(A.absorbed.end(), B.absorbed.begin(),
                          B.absorbed.end());
        A.absorbed.insert(A.absorbed.end(), plan.pending.begin(),
                          plan.pending.end());
        std::sort(A.absorbed.begin(), A.absorbed.end());
        for (std::size_t i : B.members)
            owner[i] = a_id;
        for (std::size_t i : B.absorbed)
            owner[i] = a_id;
        for (std::size_t i : plan.pending)
            owner[i] = a_id;
        for (std::size_t ch : B.children) {
            out[ch].parent = a_id;
            A.children.push_back(ch);
        }
        for (std::size_t ch : plan.pending_children) {
            out[ch].parent = a_id;
            A.children.push_back(ch);
        }
        std::sort(A.children.begin(), A.children.end(),
                  [&](std::size_t x, std::size_t y) {
                      return out[x].window_begin() < out[y].window_begin();
                  });
        B.members.clear();
        B.absorbed.clear();
        B.children.clear();
        invalidate_cache(a);
        invalidate_cache(b2);
    }

    /** Record the outcome of one refinement merge candidate. Called
     * before commit_merge mutates the blocks, so the gain (gates folded
     * from B plus the gap gates the plan claims) is still readable. */
    void
    note_merge(std::size_t a, std::size_t b2, const MergePlan& plan,
               bool merged)
    {
        if (!obs::enabled())
            return;
        const CommBlock& A = out[a];
        const CommBlock& B = out[b2];
        obs::decision(
            "aggregate.merge", merged ? "commit" : "reject",
            obs::arg("hub", A.hub), obs::arg("rnode", A.remote_node),
            obs::arg("left", a), obs::arg("right", b2),
            obs::arg("gain_gates",
                     merged ? B.members.size() + B.absorbed.size() +
                                  plan.pending.size()
                            : std::size_t{0}));
    }

    bool
    try_merge(std::size_t a, std::size_t b2)
    {
        MergePlan plan;
        if (!evaluate_merge(a, b2, plan)) {
            note_merge(a, b2, plan, false);
            return false;
        }
        note_merge(a, b2, plan, true);
        commit_merge(a, b2, plan);
        return true;
    }

    bool
    alive_pair(std::size_t a, std::size_t b2) const
    {
        // An earlier merge this round may have emptied a block or
        // absorbed it as a nested child; the group lists are a
        // round-start snapshot, so re-check.
        return !out[a].members.empty() && !out[b2].members.empty() &&
               out[a].parent == -1 && out[b2].parent == -1;
    }

    void
    refine_phase()
    {
        if (!(opts.use_commutation && opts.absorb_local_gates))
            return;
        for (int round = 0; round < 8; ++round) {
            bool changed = false;
            // Group alive top-level blocks by (hub, remote node), each
            // group in window order.
            std::unordered_map<long, std::vector<std::size_t>> groups;
            for (std::size_t b = 0; b < out.size(); ++b) {
                if (out[b].members.empty() || out[b].parent != -1)
                    continue;
                groups[static_cast<long>(out[b].hub) * num_nodes +
                       out[b].remote_node]
                    .push_back(b);
            }
            for (auto& [key, list] : groups) {
                (void)key;
                std::sort(list.begin(), list.end(),
                          [&](std::size_t x, std::size_t y) {
                              return out[x].window_begin() <
                                     out[y].window_begin();
                          });
            }
            for (const auto& [key, list] : groups) {
                (void)key;
                for (std::size_t i = 0; i + 1 < list.size(); ++i) {
                    if (!alive_pair(list[i], list[i + 1]))
                        continue;
                    if (try_merge(list[i], list[i + 1]))
                        changed = true;
                }
            }
            if (!changed)
                break;
        }

        // Drop emptied blocks, remapping indices.
        std::vector<long> new_index(out.size(), -1);
        std::vector<CommBlock> compact;
        for (std::size_t b = 0; b < out.size(); ++b) {
            if (out[b].members.empty())
                continue;
            new_index[b] = static_cast<long>(compact.size());
            compact.push_back(std::move(out[b]));
        }
        for (CommBlock& blk : compact) {
            if (blk.parent != -1)
                blk.parent =
                    new_index[static_cast<std::size_t>(blk.parent)];
            std::size_t w = 0;
            for (std::size_t ch : blk.children)
                if (new_index[ch] != -1)
                    blk.children[w++] =
                        static_cast<std::size_t>(new_index[ch]);
            blk.children.resize(w);
        }
        out = std::move(compact);
    }

    // ---- Final deterministic order -------------------------------------

    std::vector<CommBlock>
    sorted_output()
    {
        // Deterministic block order: by window start (remapping the
        // parent/children links through the permutation).
        std::vector<std::size_t> perm(out.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        std::sort(perm.begin(), perm.end(),
                  [&](std::size_t a, std::size_t b) {
                      return out[a].window_begin() < out[b].window_begin();
                  });
        std::vector<std::size_t> inverse(out.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            inverse[perm[i]] = i;
        std::vector<CommBlock> sorted;
        sorted.reserve(out.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            sorted.push_back(std::move(out[perm[i]]));
        for (CommBlock& blk : sorted) {
            if (blk.parent != -1)
                blk.parent = static_cast<long>(
                    inverse[static_cast<std::size_t>(blk.parent)]);
            for (std::size_t& ch : blk.children)
                ch = inverse[ch];
        }
        return sorted;
    }

    std::vector<CommBlock>
    run()
    {
        flag_remote();

        if (!opts.use_commutation) {
            // Sparse communication: one block per remote gate (the
            // paper's "aggregation without gate commutation" arm,
            // Fig. 17a).
            for (std::size_t i = 0; i < n; ++i) {
                if (!remote[i])
                    continue;
                emit_block({i}, {}, {}, c[i].qs[0],
                           map.node_of(c[i].qs[1]));
            }
            return std::move(out);
        }

        rank_pairs();
        for (std::size_t pi : order)
            scan_pair(pi);
        refine_phase();
        return sorted_output();
    }
};

} // namespace

std::vector<CommBlock>
aggregate(const qir::Circuit& c, const hw::QubitMapping& map,
          const AggregateOptions& opts)
{
    Aggregator agg(c, map, opts);
    return agg.run();
}

} // namespace autocomm::pass

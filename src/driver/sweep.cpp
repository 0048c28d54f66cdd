#include "driver/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "baseline/gptp.hpp"
#include "cache/key.hpp"
#include "circuits/qasm_source.hpp"
#include "cache/store.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/oee.hpp"
#include "qir/decompose.hpp"
#include "support/log.hpp"
#include "support/threadpool.hpp"

namespace autocomm::driver {

std::vector<OptionSet>
builtin_option_sets()
{
    std::vector<OptionSet> sets;
    sets.push_back({"default", {}});

    OptionSet sparse{"sparse", {}};
    sparse.opts.aggregate.use_commutation = false;
    sets.push_back(sparse);

    OptionSet catonly{"catonly", {}};
    catonly.opts.assign.allow_tp = false;
    sets.push_back(catonly);

    OptionSet noprefetch{"noprefetch", {}};
    noprefetch.opts.schedule.epr_prefetch = false;
    sets.push_back(noprefetch);

    OptionSet nofusion{"nofusion", {}};
    nofusion.opts.schedule.tp_fusion = false;
    sets.push_back(nofusion);
    return sets;
}

std::optional<OptionSet>
find_option_set(const std::string& name)
{
    for (OptionSet& s : builtin_option_sets())
        if (s.name == name)
            return std::move(s);
    return std::nullopt;
}

std::string
SweepCell::label() const
{
    std::string out = spec.label();
    if (!shape.empty())
        out += "@" + shape;
    if (topology != hw::Topology::AllToAll)
        out += std::string("+") + hw::topology_name(topology);
    if (link_fidelity != 1.0)
        out += support::strprintf("~f%g", link_fidelity);
    if (target_fidelity > 0.0)
        out += support::strprintf("~t%g", target_fidelity);
    if (link_bandwidth > 0)
        out += support::strprintf("~b%d", link_bandwidth);
    if (!link_fidelity_overrides.empty())
        out += "~F(" + override_spec(link_fidelity_overrides) + ")";
    if (!link_bandwidth_overrides.empty())
        out += "~B(" + override_spec(link_bandwidth_overrides) + ")";
    return out + "/" + options_label();
}

std::string
SweepCell::options_label() const
{
    if (partitioner == partition::Mapper::Oee)
        return options.name;
    return options.name + "!" + partition::mapper_name(partitioner);
}

std::string
override_spec(const std::vector<LinkValue>& overrides)
{
    std::string out;
    for (const LinkValue& o : overrides) {
        if (!out.empty())
            out += ",";
        out += support::strprintf("%d-%d:%g", o.a, o.b, o.value);
    }
    return out;
}

std::vector<SweepCell>
SweepGrid::cells() const
{
    // The shape axis replaces the node-count axis when present; a shape
    // fixes its own node count.
    std::vector<std::pair<int, std::string>> machines;
    if (shapes.empty()) {
        for (int n : node_counts)
            machines.emplace_back(n, std::string{});
    } else {
        for (const std::string& s : shapes)
            machines.emplace_back(static_cast<int>(hw::parse_shape(s).size()),
                                  s);
    }

    std::vector<SweepCell> out;
    out.reserve(families.size() * qubit_counts.size() * machines.size() *
                topologies.size() * link_fidelities.size() *
                target_fidelities.size() * link_bandwidths.size() *
                partitioners.size() * option_sets.size());
    // A QASM family entry pins its own qubit count, so the qubit axis
    // collapses to a single point for it (expanding it per qubit value
    // would emit identical duplicate cells).
    for (const circuits::FamilySpec& f : families) {
        std::vector<int> qubits = qubit_counts;
        if (f.family == circuits::Family::QASM)
            qubits = {f.qasm_qubits};
        for (int q : qubits)
            for (const auto& [n, shape] : machines)
                for (hw::Topology t : topologies)
                    for (double lf : link_fidelities)
                        for (double tf : target_fidelities)
                            for (int bw : link_bandwidths)
                                for (partition::Mapper pm : partitioners)
                                    for (const OptionSet& o :
                                         option_sets) {
                                        SweepCell cell;
                                        cell.spec =
                                            circuits::spec_for(f, q, n);
                                        cell.options = o;
                                        cell.seed = seed;
                                        cell.shape = shape;
                                        cell.topology = t;
                                        cell.link_fidelity = lf;
                                        cell.target_fidelity = tf;
                                        cell.link_bandwidth = bw;
                                        cell.link_fidelity_overrides =
                                            link_fidelity_overrides;
                                        cell.link_bandwidth_overrides =
                                            link_bandwidth_overrides;
                                        cell.partitioner = pm;
                                        cell.with_baseline =
                                            with_baseline;
                                        out.push_back(std::move(cell));
                                    }
    }
    return out;
}

std::vector<SweepCell>
cells_from_specs(const std::vector<circuits::BenchmarkSpec>& specs,
                 const OptionSet& options, std::uint64_t seed,
                 bool with_baseline, bool stats_only, bool with_gptp)
{
    std::vector<SweepCell> out;
    out.reserve(specs.size());
    for (const circuits::BenchmarkSpec& spec : specs) {
        SweepCell cell;
        cell.spec = spec;
        cell.options = options;
        cell.seed = seed;
        cell.with_baseline = with_baseline;
        cell.with_gptp = with_gptp;
        cell.stats_only = stats_only;
        out.push_back(std::move(cell));
    }
    return out;
}

namespace {

/** A failure that may not reproduce (anything but a deterministic
 * UserError) — such error rows must never enter the result cache. */
bool
is_transient(const std::exception& e)
{
    return dynamic_cast<const support::UserError*>(&e) == nullptr;
}

/**
 * Refuse a compiled row whose latencies are garbage: the makespan and the
 * baseline latency factors must be finite and non-negative. The message
 * starts with the violated rule's name. A std::runtime_error, not a
 * UserError, so the failed row is never cached: it is a compiler defect,
 * not a property of the cell.
 */
void
check_latencies(const SweepRow& row)
{
    const auto bad = [](double v) { return !std::isfinite(v) || v < 0.0; };
    const auto fail = [&row](const char* rule, double v) {
        throw std::runtime_error(support::strprintf(
            "%s: %g is not a finite non-negative latency (%s)", rule, v,
            row.cell.label().c_str()));
    };
    if (bad(row.schedule.makespan))
        fail("makespan-range", row.schedule.makespan);
    if (row.factors && bad(row.factors->lat_dec_factor))
        fail("latency-factor-range", row.factors->lat_dec_factor);
    if (row.gptp_factors && bad(row.gptp_factors->lat_dec_factor))
        fail("gptp-latency-factor-range", row.gptp_factors->lat_dec_factor);
}

/** Throw the same UserErrors prepare_cell would for a malformed cell
 * geometry (non-positive counts, shape/node-count mismatch). */
void
validate_cell_geometry(const circuits::BenchmarkSpec& spec,
                       const std::string& shape)
{
    if (spec.num_qubits <= 0 || spec.num_nodes <= 0)
        support::fatal("sweep cell %s: qubit and node counts must be "
                       "positive", spec.label().c_str());
    if (!shape.empty()) {
        const std::vector<int> caps = hw::parse_shape(shape);
        if (static_cast<int>(caps.size()) != spec.num_nodes)
            support::fatal("sweep cell %s: shape \"%s\" has %zu nodes, "
                           "spec says %d", spec.label().c_str(),
                           shape.c_str(), caps.size(), spec.num_nodes);
    }
}

/** Derive the machine for a cell: shape, topology, and link noise. */
hw::Machine
machine_for(const circuits::BenchmarkSpec& spec, const std::string& shape,
            hw::Topology topology, double link_fidelity,
            double target_fidelity, int link_bandwidth,
            const std::vector<LinkValue>& link_fidelity_overrides,
            const std::vector<LinkValue>& link_bandwidth_overrides)
{
    hw::Machine m;
    if (shape.empty()) {
        m = hw::Machine::homogeneous(
            spec.num_nodes,
            (spec.num_qubits + spec.num_nodes - 1) / spec.num_nodes,
            topology);
    } else {
        m = hw::Machine::from_capacities(hw::parse_shape(shape), topology);
    }
    m.link.fidelity = link_fidelity;
    m.link.bandwidth = link_bandwidth;
    m.purify.target_fidelity = target_fidelity;
    // Overrides must name physical links of this topology — a spec like
    // 0-2 on a ring would otherwise be silently inert (nothing routes
    // over a non-edge) while still coloring the label, CSV, and cache
    // key. The factory's routing is still min-hop here (overrides are
    // not applied yet), so hops == 1 identifies exactly the edges; the
    // range check must come first because the all-to-all fallback
    // answers 1 for any pair.
    auto check_link = [&m](const LinkValue& o, const char* kind) {
        if (o.a >= m.num_nodes || o.b >= m.num_nodes)
            support::fatal("link %s override %d-%d names a node outside "
                           "this %d-node machine", kind, o.a, o.b,
                           m.num_nodes);
        if (m.hops(o.a, o.b) != 1)
            support::fatal("link %s override %d-%d: %d-%d is not a "
                           "physical link of the %s topology", kind, o.a,
                           o.b, o.a, o.b, hw::topology_name(m.topology));
    };
    for (const LinkValue& o : link_fidelity_overrides) {
        check_link(o, "fidelity");
        m.link.set_link_fidelity(o.a, o.b, o.value);
    }
    for (const LinkValue& o : link_bandwidth_overrides) {
        check_link(o, "bandwidth");
        m.link.set_link_bandwidth(o.a, o.b, static_cast<int>(o.value));
    }
    if (!link_fidelity_overrides.empty()) {
        // Per-link fidelity overrides make min-hop routes suboptimal;
        // rebuild so the router can detour around the degraded fibers.
        m.build_routing();
    }
    // Catch overrides naming nodes this machine does not have here, with
    // the cell's geometry in hand, rather than deep inside the pipeline.
    m.validate_noise();
    // Uniform link fidelities never change the routing already built by
    // the factory, so no rebuild is needed for the plain axes.
    return m;
}

/**
 * What every cell of one plan group shares: the decomposed program and
 * its stats, the qubit mapping and its remote-CX count, and the
 * machine-independent plan — or the exception building it threw, which
 * each cell rethrows once its own machine has validated, so a group's
 * rows equal run_cell's on every error path.
 */
struct SharedPlan
{
    const qir::Circuit* circuit = nullptr;
    qir::CircuitStats stats{};
    const hw::QubitMapping* mapping = nullptr;
    std::size_t remote_cx = 0;
    /** Absent when every cell of the group is stats-only. */
    std::optional<pass::CompilePlan> plan;
    std::exception_ptr plan_error;
};

/** Build @p shared's plan for @p opts, capturing any failure. */
void
build_plan(SharedPlan& shared, const pass::CompileOptions& opts)
{
    try {
        shared.plan = pass::plan(*shared.circuit, *shared.mapping,
                                 opts.aggregate, opts.assign);
    } catch (...) {
        shared.plan_error = std::current_exception();
    }
}

/** The per-machine half of run_cell: derive and validate the cell's
 * machine, schedule the shared plan on it, run the baselines. */
SweepRow
run_planned_cell(const SweepCell& cell, const SharedPlan& shared)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();

    SweepRow row;
    row.cell = cell;

    support::inform("compiling %s...", cell.label().c_str());
    const hw::Machine machine =
        machine_for(cell.spec, cell.shape, cell.topology,
                    cell.link_fidelity, cell.target_fidelity,
                    cell.link_bandwidth, cell.link_fidelity_overrides,
                    cell.link_bandwidth_overrides);
    const hw::QubitMapping& mapping = *shared.mapping;
    mapping.validate(machine);

    row.stats = shared.stats;
    row.remote_cx = shared.remote_cx;

    if (cell.stats_only) {
        row.ok = true;
        row.compile_seconds =
            std::chrono::duration<double>(clock::now() - t0).count();
        return row;
    }

    if (shared.plan_error)
        std::rethrow_exception(shared.plan_error);
    row.metrics = shared.plan->metrics;
    row.schedule = pass::schedule_plan(*shared.plan, mapping, machine,
                                       cell.options.opts.schedule);

    if (cell.with_baseline) {
        const pass::CompileResult ferrari =
            baseline::compile_ferrari(*shared.circuit, mapping, machine);
        row.factors = baseline::relative_factors(
            ferrari.metrics.total_comms, ferrari.schedule.makespan,
            row.metrics.total_comms, row.schedule.makespan);
    }

    if (cell.with_gptp) {
        const baseline::GptpResult gp =
            baseline::compile_gptp(*shared.circuit, mapping, machine);
        row.gptp_factors = baseline::relative_factors(
            gp.total_comms, gp.makespan, row.metrics.total_comms,
            row.schedule.makespan);
    }

    check_latencies(row);
    row.ok = true;
    row.compile_seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    return row;
}

} // namespace

PreparedCell
prepare_cell(const circuits::BenchmarkSpec& spec, std::uint64_t seed,
             const std::string& shape, hw::Topology topology,
             double link_fidelity, double target_fidelity,
             int link_bandwidth,
             const std::vector<LinkValue>& link_fidelity_overrides,
             const std::vector<LinkValue>& link_bandwidth_overrides,
             partition::Mapper partitioner)
{
    validate_cell_geometry(spec, shape);

    PreparedCell p;
    {
        obs::Span span("decompose", spec.label());
        p.circuit = qir::decompose(circuits::make_benchmark(spec, seed));
    }
    p.machine = machine_for(spec, shape, topology, link_fidelity,
                            target_fidelity, link_bandwidth,
                            link_fidelity_overrides,
                            link_bandwidth_overrides);
    std::optional<partition::InteractionGraph> g;
    {
        obs::Span span("graph", spec.label());
        g = partition::InteractionGraph::from_circuit(p.circuit);
    }
    {
        obs::Span span("partition", spec.label());
        p.mapping = partition::map_with(partitioner, *g, p.machine);
    }
    p.mapping.validate(p.machine);
    return p;
}

SweepRow
run_cell(const SweepCell& cell)
{
    const PreparedCell p =
        prepare_cell(cell.spec, cell.seed, cell.shape, cell.topology,
                     cell.link_fidelity, cell.target_fidelity,
                     cell.link_bandwidth, cell.link_fidelity_overrides,
                     cell.link_bandwidth_overrides, cell.partitioner);
    SharedPlan shared;
    shared.circuit = &p.circuit;
    shared.stats = p.circuit.stats();
    shared.mapping = &p.mapping;
    shared.remote_cx = p.mapping.count_remote(p.circuit);
    if (!cell.stats_only)
        build_plan(shared, cell.options.opts);
    return run_planned_cell(cell, shared);
}

std::vector<SweepRow>
run_sweep(const std::vector<SweepCell>& cells, const SweepOptions& opts)
{
    std::vector<SweepRow> rows(cells.size());
    if (cells.empty())
        return rows;

    // ---- Consult the persistent result store ----
    // Cache-hit cells skip grouping below entirely, so an option-set
    // whose cells all hit never even prepares its circuit or mapping —
    // a fully warm sweep performs zero compilation work.
    std::vector<char> cached(cells.size(), 0);
    std::vector<cache::CellKey> keys;
    if (opts.store) {
        keys.reserve(cells.size());
        for (const SweepCell& cell : cells)
            keys.push_back(cache::cell_key(cell, opts.store->salt()));
        for (std::size_t i = 0; i < cells.size(); ++i) {
            // Scope the lookup so its cache.hits/cache.misses land in
            // the cell's own stats bucket.
            obs::CellScope scope(cells[i].label());
            if (std::optional<SweepRow> hit =
                    opts.store->lookup(keys[i], cells[i])) {
                // A cached error row honors the same contract a fresh
                // one would: rethrow_errors callers get the exception,
                // not an in-row failure.
                if (!hit->ok && opts.rethrow_errors)
                    throw support::UserError(hit->error);
                rows[i] = std::move(*hit);
                cached[i] = 1;
            }
        }
    }

    // Error rows are cacheable only when the failure is deterministic
    // (a UserError: bad geometry, unreachable target, ...). A transient
    // failure — bad_alloc under memory pressure, say — must not be
    // served as a permanent error on every later run.
    std::vector<char> transient(cells.size(), 0);

    // ---- Group cells by shared preparation and planning work ----
    // Four levels: program -> mapping -> plan -> cell.
    //  - Cells differing only in topology, noise, option set, or shape
    //    share the generated circuit and its interaction graph.
    //  - Under OEE, which sees only the circuit and the node capacities,
    //    cells differing only in topology, noise, or option set also
    //    share the qubit mapping. A topology/fidelity-aware partitioner
    //    reads the machine's routing table and link model, so its
    //    mapping groups additionally split on the topology and noise
    //    axes (see mkey below).
    //  - Aggregation, assignment, and reordering (pass::plan) read only
    //    the circuit, the mapping, and their own options, so cells of a
    //    mapping group with equal aggregate and assign options share one
    //    plan across the topology, noise, and schedule-option axes.
    // Memoizing these levels turns an ablation grid's preparation and
    // planning cost from O(cells) into O(distinct plans).
    struct Program
    {
        qir::Circuit circuit;
        qir::CircuitStats stats{};
        std::optional<partition::InteractionGraph> graph;
        std::string error;
        bool transient_error = false;
    };
    struct Mapping
    {
        std::size_t program = 0;
        std::vector<int> capacities;
        /** Exemplar cell of the group (machine recipe for non-OEE
         * partitioners; every cell in the group derives the identical
         * machine by construction of the key). */
        const SweepCell* cell = nullptr;
        std::optional<hw::QubitMapping> map;
        std::size_t remote_cx = 0;
        std::string error;
        bool transient_error = false;
        std::vector<std::size_t> plans;
    };
    struct Plan
    {
        std::size_t mapping = 0;
        /** Exemplar options: the group's aggregate and assign options
         * (schedule options vary freely within the group). */
        const pass::CompileOptions* opts = nullptr;
        std::vector<std::size_t> cells;
    };

    std::map<std::string, std::size_t> program_index;
    std::map<std::string, std::size_t> mapping_index;
    std::vector<Program> programs;
    std::vector<Mapping> mappings;
    std::vector<Plan> plans;
    std::vector<const SweepCell*> program_cell; // exemplar per program

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell& cell = cells[i];
        if (cached[i])
            continue;
        try {
            validate_cell_geometry(cell.spec, cell.shape);
        } catch (const std::exception& e) {
            if (opts.rethrow_errors)
                throw;
            rows[i].cell = cell;
            rows[i].ok = false;
            rows[i].error = e.what();
            transient[i] = is_transient(e);
            continue;
        }
        // num_nodes is part of the program key even though no current
        // family reads it from the spec — if one ever becomes
        // node-aware, sharing a circuit across node counts would
        // silently diverge from run_cell(). The axes this cache is for
        // (option set, topology, noise) never vary the key. QASM specs
        // key on their file path too: two files with equal qubit counts
        // are different programs.
        const std::string pkey = support::strprintf(
            "%s|%d|%d|%llu|%s", circuits::family_name(cell.spec.family),
            cell.spec.num_qubits, cell.spec.num_nodes,
            static_cast<unsigned long long>(cell.seed),
            cell.spec.qasm_path.c_str());
        auto [pit, pnew] = program_index.emplace(pkey, programs.size());
        if (pnew) {
            programs.emplace_back();
            program_cell.push_back(&cell);
        }

        // OEE reads only the capacities, so its groups deliberately span
        // the topology and noise axes (exactly the PR-4 behavior). The
        // multilevel partitioners read the machine's routing table and
        // link fidelities, so their groups must split on everything the
        // derived machine depends on; values are serialized exactly
        // (%.17g) — the display form %g is not injective.
        std::string mkey = support::strprintf(
            "%s|%s|%s", pkey.c_str(), cell.shape.c_str(),
            partition::mapper_name(cell.partitioner));
        if (cell.partitioner != partition::Mapper::Oee) {
            auto exact_overrides = [](const std::vector<LinkValue>& list) {
                std::string out;
                for (const LinkValue& o : list)
                    out += support::strprintf("%d-%d:%.17g,", o.a, o.b,
                                              o.value);
                return out;
            };
            mkey += support::strprintf(
                "|%s|%.17g|%.17g|%d|%s|%s",
                hw::topology_name(cell.topology), cell.link_fidelity,
                cell.target_fidelity, cell.link_bandwidth,
                exact_overrides(cell.link_fidelity_overrides).c_str(),
                exact_overrides(cell.link_bandwidth_overrides).c_str());
        }
        auto [mit, mnew] = mapping_index.emplace(mkey, mappings.size());
        if (mnew) {
            Mapping mp;
            mp.program = pit->second;
            mp.cell = &cell;
            mp.capacities =
                cell.shape.empty()
                    ? std::vector<int>(
                          static_cast<std::size_t>(cell.spec.num_nodes),
                          (cell.spec.num_qubits + cell.spec.num_nodes - 1) /
                              cell.spec.num_nodes)
                    : hw::parse_shape(cell.shape);
            mappings.push_back(std::move(mp));
        }
        // A plan group is the mapping group plus the options pass::plan
        // reads; defaulted operator== splits groups on any new field.
        const pass::CompileOptions& copts = cell.options.opts;
        std::vector<std::size_t>& mplans = mappings[mit->second].plans;
        auto same_plan = [&](std::size_t g) {
            return plans[g].opts->aggregate == copts.aggregate &&
                   plans[g].opts->assign == copts.assign;
        };
        const auto git = std::find_if(mplans.begin(), mplans.end(), same_plan);
        std::size_t g = plans.size();
        if (git != mplans.end()) {
            g = *git;
        } else {
            mplans.push_back(g);
            plans.push_back({mit->second, &copts, {}});
        }
        plans[g].cells.push_back(i);
    }

    support::ThreadPool pool(opts.num_threads);

    // ---- Stage pipeline over the preparation DAG ----
    // program -> its mapping groups -> their plan groups -> their cells,
    // with no barrier between stages: a plan starts the moment its own
    // mapping is ready, while unrelated programs are still decomposing
    // and other groups are still partitioning. The program, mapping,
    // and plan stages are memoized and stay unscoped; each plan task
    // then compiles its group's cells inline, one CellScope each, and
    // frees the plan, so at most one plan per worker is live. Warm
    // cache-hit cells never enter the pipeline at all. Rows are written
    // by index, so the output order is the cell order no matter which
    // worker finishes first — the result is byte-identical for every
    // thread count.
    std::vector<std::vector<std::size_t>> mappings_of_program(
        programs.size());
    for (std::size_t m = 0; m < mappings.size(); ++m)
        mappings_of_program[mappings[m].program].push_back(m);

    // Completion tracking for dynamically submitted continuations, plus
    // per-slot exception capture so rethrow_errors callers get the same
    // deterministic exception the barrier phases would have thrown: the
    // lowest-index failure of the earliest failing stage.
    std::mutex pipe_mu;
    std::condition_variable pipe_done;
    std::size_t outstanding = 0;
    std::vector<std::exception_ptr> pexc(programs.size());
    std::vector<std::exception_ptr> mexc(mappings.size());
    std::vector<std::exception_ptr> cexc(cells.size());
    std::exception_ptr stray; // escaped a stage's own handler: a bug

    auto launch = [&](auto&& body) {
        {
            std::lock_guard<std::mutex> lock(pipe_mu);
            ++outstanding;
        }
        pool.submit([&, body = std::forward<decltype(body)>(body)]() {
            try {
                body();
            } catch (...) {
                std::lock_guard<std::mutex> lock(pipe_mu);
                if (!stray)
                    stray = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(pipe_mu);
            if (--outstanding == 0)
                pipe_done.notify_all();
        });
    };

    // Stage 4: compile one cell against its group's shared plan.
    auto cell_stage = [&](std::size_t i, const Mapping& mp,
                          const SharedPlan& shared) {
        // Everything this cell records — schedule spans, EPR counters,
        // cache traffic — attributes to its label in the stats JSON's
        // `cells` section. The memoized stages stay unscoped on purpose:
        // their work is shared across cells.
        obs::CellScope scope(cells[i].label());
        obs::count("pipeline.cells_started");
        obs::Span span("cell", cells[i].label());
        try {
            if (!mp.error.empty()) {
                transient[i] = mp.transient_error;
                throw support::UserError(mp.error);
            }
            rows[i] = run_planned_cell(cells[i], shared);
            obs::count("pipeline.cells_completed");
        } catch (const std::exception& e) {
            if (opts.rethrow_errors) {
                cexc[i] = std::current_exception();
                return;
            }
            rows[i].cell = cells[i];
            rows[i].ok = false;
            rows[i].error = e.what();
            if (is_transient(e))
                transient[i] = 1;
        }
    };

    // Stage 3: plan one group (unscoped), then run its cells inline.
    auto plan_stage = [&](std::size_t g) {
        const Plan& pl = plans[g];
        const Mapping& mp = mappings[pl.mapping];
        SharedPlan shared;
        if (mp.error.empty()) {
            const Program& prog = programs[mp.program];
            shared.circuit = &prog.circuit;
            shared.stats = prog.stats;
            shared.mapping = &*mp.map;
            shared.remote_cx = mp.remote_cx;
            if (std::any_of(pl.cells.begin(), pl.cells.end(),
                            [&](std::size_t i) {
                                return !cells[i].stats_only;
                            }))
                build_plan(shared, *pl.opts);
        }
        for (std::size_t i : pl.cells)
            cell_stage(i, mp, shared);
    };

    // Stage 2: partition one mapping group. OEE sees only the
    // capacities; the multilevel partitioners derive the group's machine
    // (routing table + link model) from its exemplar cell.
    auto mapping_stage = [&](std::size_t m) {
        Mapping& mp = mappings[m];
        const Program& prog = programs[mp.program];
        bool ready = false;
        if (!prog.error.empty()) {
            mp.error = prog.error;
            mp.transient_error = prog.transient_error;
            ready = true; // cells report the recorded error per row
        } else {
            try {
                obs::Span span("partition", mp.cell->label());
                if (mp.cell->partitioner == partition::Mapper::Oee) {
                    mp.map = hw::QubitMapping(partition::oee_partition(
                        *prog.graph, mp.capacities));
                } else {
                    const hw::Machine machine = machine_for(
                        mp.cell->spec, mp.cell->shape, mp.cell->topology,
                        mp.cell->link_fidelity, mp.cell->target_fidelity,
                        mp.cell->link_bandwidth,
                        mp.cell->link_fidelity_overrides,
                        mp.cell->link_bandwidth_overrides);
                    mp.map = partition::map_with(mp.cell->partitioner,
                                                 *prog.graph, machine);
                }
                span.finish();
                mp.remote_cx = mp.map->count_remote(prog.circuit);
                ready = true;
            } catch (const std::exception& e) {
                if (opts.rethrow_errors) {
                    mexc[m] = std::current_exception();
                } else {
                    mp.error = e.what();
                    mp.transient_error = is_transient(e);
                    ready = true;
                }
            }
        }
        if (ready)
            for (std::size_t g : mp.plans)
                launch([&, g]() { plan_stage(g); });
    };

    // Stage 1: generate + decompose one distinct program, build its
    // interaction graph.
    auto program_stage = [&](std::size_t p) {
        bool ready = false;
        try {
            {
                obs::Span span("decompose", program_cell[p]->spec.label());
                programs[p].circuit = qir::decompose(
                    circuits::make_benchmark(program_cell[p]->spec,
                                             program_cell[p]->seed));
            }
            {
                obs::Span span("graph", program_cell[p]->spec.label());
                programs[p].graph =
                    partition::InteractionGraph::from_circuit(
                        programs[p].circuit);
            }
            programs[p].stats = programs[p].circuit.stats();
            ready = true;
        } catch (const std::exception& e) {
            if (opts.rethrow_errors) {
                pexc[p] = std::current_exception();
            } else {
                programs[p].error = e.what();
                programs[p].transient_error = is_transient(e);
                ready = true; // downstream stages record the error per row
            }
        }
        if (ready)
            for (std::size_t m : mappings_of_program[p])
                launch([&, m]() { mapping_stage(m); });
    };

    for (std::size_t p = 0; p < programs.size(); ++p)
        launch([&, p]() { program_stage(p); });
    {
        std::unique_lock<std::mutex> lock(pipe_mu);
        pipe_done.wait(lock, [&]() { return outstanding == 0; });
    }
    if (stray)
        std::rethrow_exception(stray);
    for (std::exception_ptr& e : pexc)
        if (e)
            std::rethrow_exception(e);
    for (std::exception_ptr& e : mexc)
        if (e)
            std::rethrow_exception(e);
    for (std::exception_ptr& e : cexc)
        if (e)
            std::rethrow_exception(e);

    // ---- Record freshly compiled rows ----
    // Deterministic error rows are recorded too: a capacity mismatch or
    // unreachable purification target re-fails identically every run.
    // Persisting (flush) is the caller's call.
    if (opts.store)
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (!cached[i] && !transient[i])
                opts.store->insert(keys[i], rows[i]);
    return rows;
}

support::CsvWriter
sweep_csv(const std::vector<SweepRow>& rows)
{
    support::CsvWriter csv(
        {"name", "options", "qubits", "nodes", "topology", "shape",
         "link_fidelity", "target_fidelity", "link_bandwidth",
         "fidelity_overrides", "bandwidth_overrides", "ok",
         "error", "gates", "cx", "rem_cx", "blocks", "tot_comm", "tp_comm",
         "cat_comm", "peak_rem_cx", "makespan", "epr_pairs", "hops_total",
         "epr_raw", "purify_rounds", "program_fidelity", "improv_factor",
         "lat_dec_factor"});
    for (const SweepRow& r : rows) {
        csv.start_row();
        csv.add(r.cell.spec.label());
        csv.add(r.cell.options_label());
        csv.add(static_cast<long long>(r.cell.spec.num_qubits));
        csv.add(static_cast<long long>(r.cell.spec.num_nodes));
        csv.add(std::string(hw::topology_name(r.cell.topology)));
        csv.add(r.cell.shape);
        csv.add(r.cell.link_fidelity);
        csv.add(r.cell.target_fidelity);
        csv.add(static_cast<long long>(r.cell.link_bandwidth));
        csv.add(override_spec(r.cell.link_fidelity_overrides));
        csv.add(override_spec(r.cell.link_bandwidth_overrides));
        csv.add(static_cast<long long>(r.ok ? 1 : 0));
        csv.add(r.error);
        csv.add(static_cast<long long>(r.stats.total_gates));
        csv.add(static_cast<long long>(r.stats.cx_gates));
        csv.add(static_cast<long long>(r.remote_cx));
        csv.add(static_cast<long long>(r.metrics.num_blocks));
        csv.add(static_cast<long long>(r.metrics.total_comms));
        csv.add(static_cast<long long>(r.metrics.tp_comms));
        csv.add(static_cast<long long>(r.metrics.cat_comms));
        csv.add(r.metrics.peak_rem_cx);
        csv.add(r.schedule.makespan);
        csv.add(static_cast<long long>(r.schedule.epr_pairs));
        csv.add(static_cast<long long>(r.schedule.hops_total));
        csv.add(static_cast<long long>(r.schedule.epr_raw_pairs));
        csv.add(static_cast<long long>(r.schedule.purify_rounds));
        csv.add(r.schedule.program_fidelity());
        csv.add(r.factors ? r.factors->improv_factor : 0.0);
        csv.add(r.factors ? r.factors->lat_dec_factor : 0.0);
    }
    return csv;
}

namespace {

std::vector<std::string>
split_list(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t sep_at = s.find(sep, start);
        const std::size_t end =
            sep_at == std::string::npos ? s.size() : sep_at;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (sep_at == std::string::npos)
            break;
        start = sep_at + 1;
    }
    return out;
}

} // namespace

std::vector<int>
parse_int_list(const std::string& list, const char* flag, long min_value,
               long max_value)
{
    std::vector<int> out;
    for (const std::string& tok : split_list(list, ',')) {
        char* end = nullptr;
        const long v = std::strtol(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || v < min_value ||
            v > max_value)
            support::fatal("%s: \"%s\" is not an integer in [%ld, %ld]",
                           flag, tok.c_str(), min_value, max_value);
        out.push_back(static_cast<int>(v));
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<double>
parse_fidelity_list(const std::string& list, const char* flag,
                    bool zero_disables)
{
    std::vector<double> out;
    for (const std::string& tok : split_list(list, ',')) {
        char* end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        // Raw link fidelities live in (0.25, 1] — above the maximally
        // mixed Werner floor (see noise::LinkModel::validate).
        // Purification targets (zero_disables) live in (0, 1) — the
        // recurrence reaches 1 only asymptotically — with 0 meaning
        // "purification off".
        const bool in_range = zero_disables
                                  ? ((v > 0.0 && v < 1.0) || v == 0.0)
                                  : (v > 0.25 && v <= 1.0);
        if (end == tok.c_str() || *end != '\0' || !in_range)
            support::fatal("%s: \"%s\" is not a fidelity in %s", flag,
                           tok.c_str(),
                           zero_disables ? "(0, 1) (or 0 to disable)"
                                         : "(0.25, 1]");
        out.push_back(v);
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<hw::Topology>
parse_topology_list(const std::string& list, const char* flag)
{
    std::vector<hw::Topology> out;
    for (const std::string& tok : split_list(list, ',')) {
        const auto t = hw::parse_topology(tok);
        if (!t)
            support::fatal("%s: unknown topology \"%s\" (expected "
                           "all_to_all, ring, grid, or star)",
                           flag, tok.c_str());
        out.push_back(*t);
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<circuits::FamilySpec>
parse_family_list(const std::string& list, const char* flag)
{
    std::vector<circuits::FamilySpec> out;
    for (const std::string& tok : split_list(list, ',')) {
        std::optional<std::vector<circuits::FamilySpec>> specs;
        try {
            specs = circuits::parse_family_spec(tok);
        } catch (const support::UserError& e) {
            // A recognized qasm:/qasmdir: token with a bad payload —
            // re-raise with the flag named.
            support::fatal("%s: \"%s\": %s", flag, tok.c_str(), e.what());
        }
        if (!specs)
            support::fatal("%s: unknown family \"%s\" (expected MCTR, "
                           "RCA, QFT, BV, QAOA, UCCSD, qasm:<path>, or "
                           "qasmdir:<dir>)",
                           flag, tok.c_str());
        out.insert(out.end(), specs->begin(), specs->end());
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<partition::Mapper>
parse_mapper_list(const std::string& list, const char* flag)
{
    std::vector<partition::Mapper> out;
    for (const std::string& tok : split_list(list, ',')) {
        const auto m = partition::parse_mapper(tok);
        if (!m)
            support::fatal("%s: unknown partitioner \"%s\" (expected "
                           "oee, multilevel, or multilevel+oee)",
                           flag, tok.c_str());
        out.push_back(*m);
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<LinkValue>
parse_override_list(const std::string& list, const char* flag,
                    bool integer_value)
{
    std::vector<LinkValue> out;
    for (const std::string& tok : split_list(list, ',')) {
        const std::size_t dash = tok.find('-');
        const std::size_t colon = tok.find(':', dash + 1);
        if (dash == std::string::npos || colon == std::string::npos)
            support::fatal("%s: \"%s\" is not an \"a-b:value\" override",
                           flag, tok.c_str());

        const std::string a_tok = tok.substr(0, dash);
        const std::string b_tok = tok.substr(dash + 1, colon - dash - 1);
        const std::string v_tok = tok.substr(colon + 1);
        char* end = nullptr;
        const long a = std::strtol(a_tok.c_str(), &end, 10);
        if (a_tok.empty() || *end != '\0' || a < 0)
            support::fatal("%s: \"%s\": node \"%s\" is not a non-negative "
                           "integer", flag, tok.c_str(), a_tok.c_str());
        const long b = std::strtol(b_tok.c_str(), &end, 10);
        if (b_tok.empty() || *end != '\0' || b < 0)
            support::fatal("%s: \"%s\": node \"%s\" is not a non-negative "
                           "integer", flag, tok.c_str(), b_tok.c_str());
        if (a == b)
            support::fatal("%s: \"%s\": a link connects two distinct "
                           "nodes", flag, tok.c_str());

        LinkValue o;
        o.a = static_cast<int>(std::min(a, b));
        o.b = static_cast<int>(std::max(a, b));
        if (integer_value) {
            const long v = std::strtol(v_tok.c_str(), &end, 10);
            if (v_tok.empty() || *end != '\0' || v < 0 || v > 1'000'000)
                support::fatal("%s: \"%s\": bandwidth \"%s\" is not an "
                               "integer in [0, 1000000] (0 = unlimited)",
                               flag, tok.c_str(), v_tok.c_str());
            o.value = static_cast<double>(v);
        } else {
            const double v = std::strtod(v_tok.c_str(), &end);
            if (v_tok.empty() || *end != '\0' || v <= 0.25 || v > 1.0)
                support::fatal("%s: \"%s\": fidelity \"%s\" is not in "
                               "(0.25, 1]", flag, tok.c_str(),
                               v_tok.c_str());
            o.value = v;
        }
        for (const LinkValue& seen : out)
            if (seen.a == o.a && seen.b == o.b)
                support::fatal("%s: link %d-%d overridden twice", flag,
                               o.a, o.b);
        out.push_back(o);
    }
    if (out.empty())
        support::fatal("%s: empty override list", flag);
    std::sort(out.begin(), out.end(), [](const LinkValue& x,
                                         const LinkValue& y) {
        return std::make_pair(x.a, x.b) < std::make_pair(y.a, y.b);
    });
    return out;
}

ShardSpec
parse_shard(const std::string& spec, const char* flag)
{
    const std::size_t slash = spec.find('/');
    const std::string i_tok =
        slash == std::string::npos ? std::string{} : spec.substr(0, slash);
    const std::string n_tok =
        slash == std::string::npos ? std::string{} : spec.substr(slash + 1);
    char* end = nullptr;
    const long i = std::strtol(i_tok.c_str(), &end, 10);
    const bool i_ok = !i_tok.empty() && *end == '\0';
    const long n = std::strtol(n_tok.c_str(), &end, 10);
    const bool n_ok = !n_tok.empty() && *end == '\0';
    if (!i_ok || !n_ok || i < 0 || n < 1 || i >= n)
        support::fatal("%s: \"%s\" is not an \"i/N\" shard spec with "
                       "0 <= i < N", flag, spec.c_str());
    return ShardSpec{static_cast<int>(i), static_cast<int>(n)};
}

std::vector<std::string>
parse_shape_list(const std::string& list, const char* flag)
{
    std::vector<std::string> out;
    for (const std::string& tok : split_list(list, ';')) {
        try {
            hw::parse_shape(tok); // validate eagerly
        } catch (const support::UserError& e) {
            support::fatal("%s: bad shape \"%s\": %s", flag, tok.c_str(),
                           e.what());
        }
        out.push_back(tok);
    }
    if (out.empty())
        support::fatal("%s: empty shape list", flag);
    return out;
}

} // namespace autocomm::driver

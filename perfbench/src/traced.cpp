#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>

#include "autocomm/pipeline.hpp"
#include "baseline/ferrari.hpp"
#include "bench.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "circuits/library.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/mapper.hpp"
#include "qir/decompose.hpp"
#include "support/log.hpp"
#include "verify/check.hpp"

namespace perfbench {

namespace {

namespace ac = autocomm;
using ac::partition::Mapper;

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Records nested spans into a vector the caller owns. */
class Tracer
{
  public:
    explicit Tracer(std::vector<Span>& spans) : spans_(spans) {}

    /** RAII span; @p name must have static storage duration. */
    class Scope
    {
      public:
        Scope(Tracer& t, const char* name, int cell)
            : t_(t), index_(static_cast<int>(t.spans_.size())),
              prev_(t.current_)
        {
            t_.spans_.push_back({name, now_ns(), 0, prev_, cell});
            t_.current_ = index_;
        }
        ~Scope()
        {
            t_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
            t_.current_ = prev_;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& t_;
        int index_;
        int prev_;
    };

  private:
    std::vector<Span>& spans_;
    int current_ = -1;
};

/**
 * The machine run_sweep derives for @p c. Mirrors the private
 * machine_for of driver/sweep.cpp for the cells the workloads build (no
 * machine shape, no per-link overrides); the traced rows must equal the
 * production rows, so any drift between the two fails the comparison.
 */
ac::hw::Machine
machine_for(const SweepCell& c)
{
    if (!c.shape.empty() || !c.link_fidelity_overrides.empty() ||
        !c.link_bandwidth_overrides.empty() || c.with_gptp || c.stats_only)
        ac::support::fatal("traced replay: cell %s uses a feature the "
                           "workloads do not", c.label().c_str());
    const int nodes = c.spec.num_nodes;
    ac::hw::Machine m = ac::hw::Machine::homogeneous(
        nodes, (c.spec.num_qubits + nodes - 1) / nodes, c.topology);
    m.link.fidelity = c.link_fidelity;
    m.link.bandwidth = c.link_bandwidth;
    m.purify.target_fidelity = c.target_fidelity;
    m.validate_noise();
    return m;
}

/** run_sweep's preparation keys: cells with equal program keys share the
 * circuit and graph; cells with equal mapping keys share the mapping. */
std::string
program_key(const SweepCell& c)
{
    return ac::support::strprintf(
        "%s|%d|%d|%llu|%s", ac::circuits::family_name(c.spec.family),
        c.spec.num_qubits, c.spec.num_nodes,
        static_cast<unsigned long long>(c.seed), c.spec.qasm_path.c_str());
}

std::string
mapping_key(const SweepCell& c)
{
    std::string key = program_key(c) + "|" + c.shape + "|" +
                      ac::partition::mapper_name(c.partitioner);
    if (c.partitioner != Mapper::Oee)
        key += ac::support::strprintf(
            "|%s|%.17g|%.17g|%d", ac::hw::topology_name(c.topology),
            c.link_fidelity, c.target_fidelity, c.link_bandwidth);
    return key;
}

struct Totals
{
    double oee_cut = 0, multilevel_cut = 0;
    double gates = 0, preparations = 0, compiled = 0;
    double blocks = 0, remote_gates = 0, comms = 0, cat_comms = 0;
    double hops = 0, purify_rounds = 0, detours = 0, teleports = 0,
           fused_links = 0;
    double violations = 0;
};

/** Compile one cell against its shared preparation, one span per pass,
 * then check the result with the verify oracles. */
SweepRow
compile_cell(const SweepCell& cell, int id, const ac::qir::Circuit& circ,
             const ac::hw::QubitMapping& map, Tracer& t, Totals& k)
{
    namespace pass = ac::pass;
    Tracer::Scope cell_span(t, "driver.cell", id);
    SweepRow row;
    row.cell = cell;
    std::optional<ac::hw::Machine> m;
    {
        Tracer::Scope s(t, "driver.machine", id);
        m = machine_for(cell);
    }
    map.validate(*m);
    row.stats = circ.stats();
    row.remote_cx = map.count_remote(circ);
    // pass::compile's own input validation.
    m->validate_shape();
    m->validate_routing();
    m->validate_noise();

    const pass::CompileOptions& opts = cell.options.opts;
    pass::CompileResult r;
    {
        Tracer::Scope s(t, "autocomm.aggregate", id);
        r.blocks = pass::aggregate(circ, map, opts.aggregate);
    }
    {
        Tracer::Scope s(t, "autocomm.assign", id);
        pass::assign_schemes(circ, r.blocks, opts.assign);
    }
    {
        Tracer::Scope s(t, "autocomm.reorder", id);
        r.metrics = pass::compute_metrics(circ, r.blocks);
        r.reordered = pass::reorder_with_blocks(circ, r.blocks,
                                                &r.block_start);
    }
    {
        Tracer::Scope s(t, "autocomm.schedule", id);
        r.schedule = pass::schedule_program(r.reordered, r.blocks,
                                            r.block_start, map, *m,
                                            opts.schedule);
    }
    std::optional<pass::CompileResult> ferrari;
    if (cell.with_baseline) {
        Tracer::Scope s(t, "baseline.ferrari", id);
        ferrari = ac::baseline::compile_ferrari(circ, map, *m);
        row.factors = ac::baseline::relative_factors(*ferrari, r);
    }
    {
        Tracer::Scope s(t, "verify.check", id);
        ac::verify::CheckReport report = ac::verify::check_schedule(
            r.schedule, *m);
        report.merge(ac::verify::check_metrics(r.metrics, circ, map));
        if (ferrari)
            report.merge(ac::verify::check_cross(r, *ferrari));
        k.violations += static_cast<double>(report.violations.size());
    }
    k.compiled += 1;
    k.blocks += static_cast<double>(r.metrics.num_blocks);
    k.remote_gates += static_cast<double>(r.metrics.remote_gates);
    k.comms += static_cast<double>(r.metrics.total_comms);
    k.cat_comms += static_cast<double>(r.metrics.cat_comms);
    k.hops += static_cast<double>(r.schedule.hops_total);
    k.purify_rounds += static_cast<double>(r.schedule.purify_rounds);
    k.detours += static_cast<double>(r.schedule.detours);
    k.teleports += static_cast<double>(r.schedule.teleports);
    k.fused_links += static_cast<double>(r.schedule.fused_links);
    row.metrics = std::move(r.metrics);
    row.schedule = std::move(r.schedule);
    row.ok = true;
    return row;
}

/** Compile cells @p todo of @p cells, preparing each distinct program
 * and mapping once, in first-use order. */
void
compile_cells(const std::vector<SweepCell>& cells,
              const std::vector<std::size_t>& todo,
              std::vector<SweepRow>& rows, Tracer& t, Totals& k)
{
    struct Group
    {
        std::size_t exemplar = 0;
        std::vector<std::size_t> members; // cells, or mapping groups
    };
    std::map<std::string, std::size_t> program_of, mapping_of;
    std::vector<Group> programs, mappings;
    for (std::size_t i : todo) {
        auto [m, mnew] = mapping_of.emplace(mapping_key(cells[i]),
                                            mappings.size());
        if (mnew) {
            mappings.push_back({i, {}});
            auto [p, pnew] = program_of.emplace(program_key(cells[i]),
                                                programs.size());
            if (pnew)
                programs.push_back({i, {}});
            programs[p->second].members.push_back(m->second);
        }
        mappings[m->second].members.push_back(i);
    }

    auto fail = [&](std::size_t i, const std::exception& e) {
        rows[i] = SweepRow{};
        rows[i].cell = cells[i];
        rows[i].error = e.what();
    };
    for (const Group& prog : programs) {
        const SweepCell& pc = cells[prog.exemplar];
        const int pid = static_cast<int>(prog.exemplar);
        Tracer::Scope prog_span(t, "driver.program", pid);
        ac::qir::Circuit circ;
        std::optional<ac::partition::InteractionGraph> g;
        try {
            ac::qir::Circuit logical;
            {
                Tracer::Scope s(t, "circuits.generate", pid);
                logical = ac::circuits::make_benchmark(pc.spec, pc.seed);
            }
            {
                Tracer::Scope s(t, "qir.decompose", pid);
                circ = ac::qir::decompose(logical);
            }
            {
                Tracer::Scope s(t, "partition.graph", pid);
                g = ac::partition::InteractionGraph::from_circuit(circ);
            }
        } catch (const std::exception& e) {
            for (std::size_t m : prog.members)
                for (std::size_t i : mappings[m].members)
                    fail(i, e);
            continue;
        }
        k.gates += static_cast<double>(circ.stats().total_gates);
        for (std::size_t m : prog.members) {
            const Group& mg = mappings[m];
            const SweepCell& mc = cells[mg.exemplar];
            const int mid = static_cast<int>(mg.exemplar);
            std::optional<ac::hw::QubitMapping> map;
            try {
                std::optional<ac::hw::Machine> machine;
                {
                    Tracer::Scope s(t, "driver.machine", mid);
                    machine = machine_for(mc);
                }
                Tracer::Scope s(t, mc.partitioner == Mapper::Oee
                                       ? "partition.oee"
                                       : "multilevel.map",
                                mid);
                map = ac::partition::map_with(mc.partitioner, *g, *machine);
            } catch (const std::exception& e) {
                for (std::size_t i : mg.members)
                    fail(i, e);
                continue;
            }
            k.preparations += 1;
            (mc.partitioner == Mapper::Oee ? k.oee_cut : k.multilevel_cut) +=
                static_cast<double>(g->cut_weight(map->assignment()));
            for (std::size_t i : mg.members) {
                try {
                    rows[i] = compile_cell(cells[i], static_cast<int>(i),
                                           circ, *map, t, k);
                } catch (const std::exception& e) {
                    fail(i, e);
                }
            }
        }
    }
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

Replay
traced_replay(const Workload& w, const std::string& scratch_dir)
{
    Replay out;
    Tracer t(out.spans);
    Totals k;
    const std::vector<SweepCell>& cells = w.cells;
    std::vector<SweepRow> rows(cells.size());
    double lookups = 0, hits = 0, bytes = 0;

    if (w.shape != Shape::CacheRoundtrip) {
        std::vector<std::size_t> all(cells.size());
        for (std::size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        compile_cells(cells, all, rows, t, k);
        out.rows = std::move(rows);
    } else {
        // run_sweep with a store: key and look up every cell, compile the
        // misses, insert them; the caller flushes. The warm pass reopens
        // the store, as run_iteration does.
        namespace cache = ac::cache;
        const std::string dir = fresh_dir(scratch_dir);
        std::vector<cache::CellKey> keys;
        std::vector<std::size_t> misses;
        std::unique_ptr<cache::ResultStore> store;
        {
            Tracer::Scope s(t, "cache.open", -1);
            store = std::make_unique<cache::ResultStore>(dir);
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Tracer::Scope s(t, "cache.lookup", static_cast<int>(i));
            keys.push_back(cache::cell_key(cells[i], store->salt()));
            std::optional<SweepRow> hit = store->lookup(keys[i], cells[i]);
            lookups += 1;
            if (hit) {
                hits += 1;
                rows[i] = std::move(*hit);
            } else {
                misses.push_back(i);
            }
        }
        compile_cells(cells, misses, rows, t, k);
        for (std::size_t i : misses) {
            Tracer::Scope s(t, "cache.insert", static_cast<int>(i));
            store->insert(keys[i], rows[i]);
        }
        {
            Tracer::Scope s(t, "cache.flush", -1);
            store->flush();
        }
        store.reset();
        {
            Tracer::Scope s(t, "cache.open", -1);
            store = std::make_unique<cache::ResultStore>(dir);
        }
        out.rows = rows;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Tracer::Scope s(t, "cache.lookup", static_cast<int>(i));
            std::optional<SweepRow> hit = store->lookup(
                cache::cell_key(cells[i], store->salt()), cells[i]);
            lookups += 1;
            if (hit)
                hits += 1;
            out.rows.push_back(hit ? std::move(*hit) : SweepRow{});
        }
        bytes = static_cast<double>(store->approx_bytes());
        store.reset();
        std::filesystem::remove_all(dir);
    }

    out.counts = {
        {"partition.cut_weight", k.oee_cut},
        {"multilevel.cut_weight", k.multilevel_cut},
        {"qir.gates", k.gates},
        {"autocomm.blocks", k.blocks},
        {"autocomm.remote_gates", k.remote_gates},
        {"autocomm.rem_cx_per_comm", ratio(k.remote_gates, k.comms)},
        {"autocomm.cat_share", ratio(k.cat_comms, k.comms)},
        {"autocomm.hops_total", k.hops},
        {"autocomm.purify_rounds", k.purify_rounds},
        {"autocomm.detours", k.detours},
        {"autocomm.teleports", k.teleports},
        {"autocomm.fused_links", k.fused_links},
        {"driver.preparations", k.preparations},
        {"driver.cells_per_preparation", ratio(k.compiled, k.preparations)},
        {"cache.bytes", bytes},
        {"cache.hit_ratio", ratio(hits, lookups)},
        {"verify.violations", k.violations},
    };
    return out;
}

std::map<std::string, double>
self_ms(const std::vector<Span>& spans)
{
    std::vector<std::uint64_t> nested(spans.size(), 0);
    for (const Span& s : spans)
        if (s.parent >= 0)
            nested[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] +=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                nested[i]) / 1e6;
    return out;
}

} // namespace perfbench

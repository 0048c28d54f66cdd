/**
 * @file
 * Compiler self-profiling: per-pass wall-time breakdown of one AutoComm
 * compilation — circuit generation+decompose, interaction-graph build,
 * partitioning (OEE, or the multilevel pipeline with its
 * coarsen/initial/refine phases broken out), aggregation, scheme
 * assignment, block reorder+metrics, and the latency-simulating
 * scheduler. Not a paper table — this measures the compiler, not the
 * compiled programs.
 *
 *   bench_compiler_perf                             # default grid
 *   bench_compiler_perf --families QFT,UCCSD --qubits 100,200 --reps 5
 *   bench_compiler_perf --partitioner multilevel    # phase-split rows
 *   bench_compiler_perf --csv perf.csv              # machine-readable
 *
 * Each rep compiles the cell with driver::run_cell — the code a sweep
 * runs — on the default all-to-all machine, and the minimum over --reps
 * repetitions is reported (the usual denoising for wall-clock
 * microbenchmarks).
 *
 * Timing comes from the obs subsystem: every pass runs under an
 * obs::Span, and a rep's per-pass time is the growth of the pass's
 * registry histogram across that rep — one timing source of truth with
 * the trace, and --trace-out of this binary shows the very spans being
 * measured.
 */
#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "circuits/library.hpp"
#include "common.hpp"
#include "driver/sweep.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/mapper.hpp"
#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

namespace {

using namespace autocomm;

/** The per-pass timings of one compilation, in milliseconds. The
 * partition bucket is additionally split into the multilevel phases
 * (coarsen/initial/refine; all zero under OEE, which has no phases). */
struct Breakdown
{
    double decompose = 0.0;
    double graph = 0.0;
    double partition = 0.0;
    double coarsen = 0.0;
    double initial = 0.0;
    double refine = 0.0;
    double aggregate = 0.0;
    double assign = 0.0;
    double reorder = 0.0;
    double schedule = 0.0;

    double
    total() const
    {
        return decompose + graph + partition + aggregate + assign +
               reorder + schedule;
    }

    void
    take_min(const Breakdown& o)
    {
        decompose = std::min(decompose, o.decompose);
        graph = std::min(graph, o.graph);
        partition = std::min(partition, o.partition);
        coarsen = std::min(coarsen, o.coarsen);
        initial = std::min(initial, o.initial);
        refine = std::min(refine, o.refine);
        aggregate = std::min(aggregate, o.aggregate);
        assign = std::min(assign, o.assign);
        reorder = std::min(reorder, o.reorder);
        schedule = std::min(schedule, o.schedule);
    }
};

/** The span/histogram names of the ten profiled passes, in Breakdown
 * field order. */
constexpr std::array<const char*, 10> kPassNames = {
    "decompose", "graph",     "partition", "coarsen", "initial",
    "refine",    "aggregate", "assign",    "reorder", "schedule"};

/** Current registry histogram sums (ns) of the ten passes; absent
 * histograms (a pass that never ran) read as zero. */
std::array<std::uint64_t, kPassNames.size()>
pass_sums_ns()
{
    std::array<std::uint64_t, kPassNames.size()> out{};
    const obs::Registry& reg = obs::Registry::instance();
    for (std::size_t i = 0; i < kPassNames.size(); ++i) {
        const obs::Histogram* h = reg.find_histogram(kPassNames[i]);
        out[i] = h != nullptr ? h->sum() : 0;
    }
    return out;
}

/** One driver::run_cell compile of @p cell; per-pass times are the
 * growth of each pass's registry histogram over this rep. */
Breakdown
profile_once(const driver::SweepCell& cell, std::size_t* gates)
{
    const auto before = pass_sums_ns();
    const driver::SweepRow row = driver::run_cell(cell);
    *gates = row.stats.total_gates;

    const auto after = pass_sums_ns();
    std::array<double, kPassNames.size()> ms;
    for (std::size_t i = 0; i < kPassNames.size(); ++i)
        ms[i] = static_cast<double>(after[i] - before[i]) / 1e6;

    Breakdown b;
    b.decompose = ms[0];
    b.graph = ms[1];
    b.partition = ms[2];
    b.coarsen = ms[3];
    b.initial = ms[4];
    b.refine = ms[5];
    b.aggregate = ms[6];
    b.assign = ms[7];
    b.reorder = ms[8];
    b.schedule = ms[9];
    return b;
}

int
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --families LIST  comma list of MCTR,RCA,QFT,BV,QAOA,UCCSD "
        "(default QFT,MCTR)\n"
        "  --qubits LIST    circuit widths (default 50,100,200)\n"
        "  --partitioner P  oee, multilevel, or multilevel+oee "
        "(default oee);\n"
        "                   multilevel splits the partition bucket into\n"
        "                   coarsen/initial/refine columns\n"
        "  --reps N         repetitions per cell, min reported "
        "(default 3)\n"
        "  --csv PATH       write the breakdown as CSV\n"
        "  --trace-out FILE write a Chrome trace-event JSON of the "
        "profiled spans\n"
        "  --stats-out FILE write per-pass latency percentiles as JSON\n"
        "  --explain-out FILE write the decision explain report as "
        "JSON\n"
        "  --explain-top N  payload samples kept per decision bucket\n"
        "  --ring N         keep only the last N trace events per thread "
        "(0 = all)\n"
        "  --sample-ms N    sample RSS/pool/cache gauges every N ms\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<circuits::FamilySpec> families = {circuits::Family::QFT,
                                                  circuits::Family::MCTR};
    std::vector<int> qubits = {50, 100, 200};
    partition::Mapper mapper = partition::Mapper::Oee;
    int reps = 3;
    std::string csv_path;
    bench::ObsCli obs_cli;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                support::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        try {
            if (arg == "--families") {
                families = driver::parse_family_list(value(), "--families");
            } else if (arg == "--qubits") {
                qubits = driver::parse_int_list(value(), "--qubits");
            } else if (arg == "--partitioner") {
                const std::vector<partition::Mapper> list =
                    driver::parse_mapper_list(value(), "--partitioner");
                // Unlike bench_sweep/bench_partition this flag is not an
                // axis: one breakdown table per run.
                if (list.size() != 1)
                    support::fatal("--partitioner: expected exactly one "
                                   "partitioner (got %zu); run once per "
                                   "mode", list.size());
                mapper = list.front();
            } else if (arg == "--reps") {
                reps = driver::parse_int(value(), "--reps", 1, 1000);
            } else if (arg == "--csv") {
                csv_path = value();
            } else if (bench::parse_obs_flag(obs_cli, argc, argv, i)) {
                // handled
            } else {
                return usage(argv[0]);
            }
        } catch (const support::UserError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }

    support::Table t({"Circuit", "#gate", "decomp (ms)", "graph (ms)",
                      "partition (ms)", "coarsen (ms)", "initial (ms)",
                      "refine (ms)", "aggregate (ms)", "assign (ms)",
                      "reorder (ms)", "schedule (ms)", "total (ms)"});
    support::CsvWriter csv({"name", "qubits", "nodes", "partitioner",
                            "gates", "decompose_ms", "graph_ms",
                            "partition_ms", "coarsen_ms", "initial_ms",
                            "refine_ms", "aggregate_ms", "assign_ms",
                            "reorder_ms", "schedule_ms", "total_ms"});

    // The breakdown IS the obs registry here, so recording is always on
    // for this binary (apply_obs_cli still handles AUTOCOMM_TRACE and
    // lane naming for the optional exports).
    bench::apply_obs_cli(obs_cli);
    obs::set_lane_name("main");
    obs::set_enabled(true);

    for (const circuits::FamilySpec& f : families) {
        const std::vector<int> fam_qubits =
            f.family == circuits::Family::QASM
                ? std::vector<int>{f.qasm_qubits}
                : qubits;
        for (int q : fam_qubits) {
            driver::SweepCell cell;
            cell.spec = circuits::spec_for(f, q, std::max(2, q / 10));
            cell.partitioner = mapper;
            const circuits::BenchmarkSpec& spec = cell.spec;
            std::size_t gates = 0;
            Breakdown best;
            try {
                best = profile_once(cell, &gates);
                for (int r = 1; r < reps; ++r)
                    best.take_min(profile_once(cell, &gates));
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: %s: %s\n",
                             cell.label().c_str(), e.what());
                return 1;
            }

            t.start_row();
            t.add(spec.label());
            t.add(gates);
            t.add(best.decompose, 2);
            t.add(best.graph, 2);
            t.add(best.partition, 2);
            t.add(best.coarsen, 2);
            t.add(best.initial, 2);
            t.add(best.refine, 2);
            t.add(best.aggregate, 2);
            t.add(best.assign, 2);
            t.add(best.reorder, 2);
            t.add(best.schedule, 2);
            t.add(best.total(), 2);

            csv.start_row();
            csv.add(spec.label());
            csv.add(static_cast<long long>(q));
            csv.add(static_cast<long long>(spec.num_nodes));
            csv.add(std::string(partition::mapper_name(mapper)));
            csv.add(static_cast<long long>(gates));
            csv.add(best.decompose);
            csv.add(best.graph);
            csv.add(best.partition);
            csv.add(best.coarsen);
            csv.add(best.initial);
            csv.add(best.refine);
            csv.add(best.aggregate);
            csv.add(best.assign);
            csv.add(best.reorder);
            csv.add(best.schedule);
            csv.add(best.total());
        }
    }
    t.print();

    if (!csv_path.empty()) {
        csv.write_file(csv_path);
    } else if (auto dir = bench::csv_dir()) {
        csv.write_file(*dir + "/compiler_perf.csv");
    }
    bench::finish_obs_cli(obs_cli);
    return 0;
}

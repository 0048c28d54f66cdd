/**
 * @file
 * Fidelity/latency trade-off sweep: makespan, raw-EPR cost, and program
 * fidelity vs. the purification target, across link topologies — the
 * scenario axis the paper's perfect-link machine model could not explore.
 *
 *   bench_fidelity                                  # defaults below
 *   bench_fidelity --family QAOA --qubits 32 --nodes 4 \
 *       --link-fidelity 0.97 --targets 0,0.9,0.99 --topology ring,star \
 *       --link-bandwidth 2 --csv fidelity.csv
 *
 * A target of 0 is the "consume raw pairs" reference point; rising
 * targets buy program fidelity with 2^rounds raw pairs (and purification
 * latency) per consumed pair.
 */
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "common.hpp"
#include "driver/sweep.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace autocomm;

int
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --family F          MCTR,RCA,QFT,BV,QAOA,UCCSD (default QFT)\n"
        "  --qubits N          circuit width (default 32)\n"
        "  --nodes N           node count (default 4)\n"
        "  --link-fidelity F   raw per-link EPR fidelity (default 0.96)\n"
        "  --targets LIST      purification targets, 0 = off\n"
        "                      (default 0,0.9,0.95,0.99,0.995)\n"
        "  --topology LIST     link topologies (default all four)\n"
        "  --link-bandwidth N  concurrent preps per link, 0 = unlimited\n"
        "  --link-fidelity-override LIST\n"
        "                      per-link fidelity overrides "
        "(\"0-1:0.92,2-3:0.85\")\n"
        "  --link-bandwidth-override LIST\n"
        "                      per-link bandwidth overrides (\"0-1:2\")\n"
        "  --threads N         worker threads\n"
        "  --csv PATH          write the rows as CSV\n"
        "  --cache-dir DIR     persistent result cache (see bench_sweep)\n"
        "  --cache-stats       print cache hit/miss/stale counters\n"
        "  --trace-out FILE    write a Chrome trace-event JSON\n"
        "  --stats-out FILE    write counters/latency summaries as JSON\n"
        "  --explain-out FILE  write the decision explain report as JSON\n"
        "  --explain-top N     payload samples kept per decision bucket\n"
        "  --ring N            keep only the last N trace events per "
        "thread\n"
        "  --sample-ms N       sample RSS/pool/cache gauges every N ms\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {32};
    grid.node_counts = {4};
    grid.topologies = hw::all_topologies();
    grid.link_fidelities = {0.96};
    grid.target_fidelities = {0.0, 0.9, 0.95, 0.99, 0.995};

    driver::SweepOptions sweep_opts;
    sweep_opts.num_threads = support::default_thread_count();
    std::string csv_path;
    std::string cache_dir;
    bool cache_stats = false;
    bench::ObsCli obs_cli;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                support::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        try {
            if (arg == "--family") {
                grid.families =
                    driver::parse_family_list(value(), "--family");
            } else if (arg == "--qubits") {
                grid.qubit_counts = {
                    driver::parse_int(value(), "--qubits")};
            } else if (arg == "--nodes") {
                grid.node_counts = {driver::parse_int(value(), "--nodes")};
            } else if (arg == "--link-fidelity") {
                grid.link_fidelities = {
                    driver::parse_fidelity(value(), "--link-fidelity")};
            } else if (arg == "--targets") {
                grid.target_fidelities = driver::parse_fidelity_list(
                    value(), "--targets", /*zero_disables=*/true);
            } else if (arg == "--topology") {
                grid.topologies =
                    driver::parse_topology_list(value(), "--topology");
            } else if (arg == "--link-bandwidth") {
                grid.link_bandwidths = {driver::parse_int(
                    value(), "--link-bandwidth", /*min_value=*/0)};
            } else if (arg == "--link-fidelity-override") {
                grid.link_fidelity_overrides = driver::parse_override_list(
                    value(), "--link-fidelity-override",
                    /*integer_value=*/false);
            } else if (arg == "--link-bandwidth-override") {
                grid.link_bandwidth_overrides = driver::parse_override_list(
                    value(), "--link-bandwidth-override",
                    /*integer_value=*/true);
            } else if (arg == "--threads") {
                sweep_opts.num_threads = static_cast<std::size_t>(
                    driver::parse_int(value(), "--threads"));
            } else if (arg == "--csv") {
                csv_path = value();
            } else if (arg == "--cache-dir") {
                cache_dir = value();
            } else if (arg == "--cache-stats") {
                cache_stats = true;
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

    if (cache_stats && cache_dir.empty()) {
        std::fprintf(stderr, "error: --cache-stats needs --cache-dir\n");
        return 2;
    }

    bench::apply_obs_cli(obs_cli);

    const std::vector<driver::SweepCell> cells = grid.cells();
    std::printf("== Fidelity/latency trade-off: %zu cells "
                "(link fidelity %g) ==\n",
                cells.size(), grid.link_fidelities.at(0));

    std::optional<cache::ResultStore> store;
    if (!cache_dir.empty()) {
        try {
            store.emplace(cache_dir);
        } catch (const support::UserError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
        sweep_opts.store = &*store;
    }
    const std::vector<driver::SweepRow> rows =
        driver::run_sweep(cells, sweep_opts);
    if (store) {
        store->flush();
        if (cache_stats)
            std::printf("cache-stats: %s\n", store->stats_line().c_str());
    }
    bench::finish_obs_cli(obs_cli);

    support::Table t({"Topology", "Target", "Rounds", "EPR", "Raw EPR",
                      "Cost x", "Makespan", "Fidelity"});
    std::size_t failures = 0;
    for (const driver::SweepRow& r : rows) {
        t.start_row();
        t.add(hw::topology_name(r.cell.topology));
        t.add(r.cell.target_fidelity, 3);
        if (!r.ok) {
            ++failures;
            std::fprintf(stderr, "error: %s: %s\n", r.cell.label().c_str(),
                         r.error.c_str());
            continue;
        }
        t.add(r.schedule.purify_rounds);
        t.add(r.schedule.epr_pairs);
        t.add(r.schedule.epr_raw_pairs);
        t.add(r.schedule.epr_pairs
                  ? static_cast<double>(r.schedule.epr_raw_pairs) /
                        static_cast<double>(r.schedule.epr_pairs)
                  : 0.0,
              2);
        t.add(r.schedule.makespan, 1);
        t.add(r.schedule.program_fidelity(), 6);
    }
    t.print();

    if (!csv_path.empty()) {
        driver::sweep_csv(rows).write_file(csv_path);
    } else if (auto dir = bench::csv_dir()) {
        driver::sweep_csv(rows).write_file(*dir + "/fidelity.csv");
    }
    return failures == 0 ? 0 : 1;
}

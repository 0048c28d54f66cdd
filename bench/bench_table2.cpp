/**
 * @file
 * Table 2 reproduction: the benchmark suite characteristics — qubits,
 * nodes, total gates, CX count, and remote CX count under the OEE
 * ("Static Overall Extreme Exchange") qubit mapping.
 *
 * Rows are compiled through the driver::run_sweep thread pool (thread
 * count from AUTOCOMM_THREADS), sharing the grid machinery with
 * bench_sweep; output order stays the suite order.
 *
 * Note vs the paper: our QFT uses the textbook n(n-1)/2-rotation ladder
 * (the paper's QFT gate count is ~2x ours; the remote-CX structure — what
 * the compiler optimizes — matches; see EXPERIMENTS.md).
 */
#include <cstdio>

#include "common.hpp"
#include "driver/sweep.hpp"
#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

int
main(int argc, char** argv)
{
    using namespace autocomm;
    using support::Table;

    bench::CacheCli cache;
    bench::ObsCli obs_cli;
    for (int i = 1; i < argc; ++i) {
        try {
            if (!bench::parse_cache_flag(cache, argc, argv, i) &&
                !bench::parse_obs_flag(obs_cli, argc, argv, i)) {
                std::printf("usage: %s [--cache-dir DIR] [--cache-stats] "
                            "[--trace-out FILE] [--stats-out FILE] "
                            "[--explain-out FILE] [--explain-top N] "
                            "[--ring N] [--sample-ms N]\n", argv[0]);
                return 2;
            }
        } catch (const support::UserError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }
    bench::apply_obs_cli(obs_cli);

    std::puts("== Table 2: benchmark programs (OEE qubit mapping) ==");
    Table t({"Name", "#qubit", "#node", "#gate", "#CX", "#REM CX"});
    support::CsvWriter csv(
        {"name", "qubits", "nodes", "gates", "cx", "rem_cx"});

    std::string stats_line;
    const std::vector<driver::SweepRow> rows = bench::run_sweep_cached(
        driver::cells_from_specs(bench::suite(), {}, 2022,
                                 /*with_baseline=*/false,
                                 /*stats_only=*/true),
        {}, cache.dir, &stats_line);

    const bool ok = bench::rows_ok(rows);
    for (const driver::SweepRow& r : rows) {
        if (!r.ok)
            continue;
        t.start_row();
        t.add(r.cell.spec.label());
        t.add(r.cell.spec.num_qubits);
        t.add(r.cell.spec.num_nodes);
        t.add(r.stats.total_gates);
        t.add(r.stats.cx_gates);
        t.add(r.remote_cx);

        csv.start_row();
        csv.add(r.cell.spec.label());
        csv.add(static_cast<long long>(r.cell.spec.num_qubits));
        csv.add(static_cast<long long>(r.cell.spec.num_nodes));
        csv.add(static_cast<long long>(r.stats.total_gates));
        csv.add(static_cast<long long>(r.stats.cx_gates));
        csv.add(static_cast<long long>(r.remote_cx));
    }
    t.print();
    if (cache.stats)
        std::printf("cache-stats: %s\n", stats_line.c_str());
    if (auto dir = bench::csv_dir())
        csv.write_file(*dir + "/table2.csv");
    bench::finish_obs_cli(obs_cli);
    return ok ? 0 : 1;
}

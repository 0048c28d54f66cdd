/**
 * @file
 * Table 3 reproduction: AutoComm results and relative performance to the
 * Ferrari et al. per-remote-CX Cat-Comm baseline:
 *
 *   Tot Comm | TP-Comm | Peak #REM CX | Improv. factor | LAT-DEC factor
 *
 * plus the paper's §5.2 headline aggregates (75.6% average communication
 * reduction, 71.4% average latency reduction).
 *
 * Rows are compiled through the driver::run_sweep thread pool (thread
 * count from AUTOCOMM_THREADS), sharing the grid machinery with
 * bench_sweep; output order stays the suite order.
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

    std::puts("== Table 3: AutoComm vs per-CX Cat-Comm baseline ==");
    Table t({"Name", "Tot Comm", "TP-Comm", "Peak #REM CX",
             "Improv. factor", "LAT-DEC factor"});
    support::CsvWriter csv({"name", "tot_comm", "tp_comm", "peak_rem_cx",
                            "improv_factor", "lat_dec_factor"});

    double improv_sum = 0, lat_sum = 0;
    double comm_reduction_sum = 0, lat_reduction_sum = 0;
    int nrows = 0;

    std::string stats_line;
    const std::vector<driver::SweepRow> rows = bench::run_sweep_cached(
        driver::cells_from_specs(bench::suite(), {}, 2022,
                                 /*with_baseline=*/true),
        {}, cache.dir, &stats_line);

    const bool ok = bench::rows_ok(rows);
    for (const driver::SweepRow& r : rows) {
        if (!r.ok)
            continue;
        t.start_row();
        t.add(r.cell.spec.label());
        t.add(r.metrics.total_comms);
        t.add(r.metrics.tp_comms);
        t.add(r.metrics.peak_rem_cx, 1);
        t.add(r.factors->improv_factor, 2);
        t.add(r.factors->lat_dec_factor, 2);

        csv.start_row();
        csv.add(r.cell.spec.label());
        csv.add(static_cast<long long>(r.metrics.total_comms));
        csv.add(static_cast<long long>(r.metrics.tp_comms));
        csv.add(r.metrics.peak_rem_cx);
        csv.add(r.factors->improv_factor);
        csv.add(r.factors->lat_dec_factor);

        improv_sum += r.factors->improv_factor;
        lat_sum += r.factors->lat_dec_factor;
        comm_reduction_sum += 1.0 - 1.0 / r.factors->improv_factor;
        lat_reduction_sum += 1.0 - 1.0 / r.factors->lat_dec_factor;
        ++nrows;
    }
    t.print();
    if (cache.stats)
        std::printf("cache-stats: %s\n", stats_line.c_str());
    bench::finish_obs_cli(obs_cli);

    if (nrows == 0) {
        std::fprintf(stderr, "error: no rows compiled\n");
        return 1;
    }
    std::printf("\nAverages over %d programs:\n", nrows);
    std::printf("  improv. factor (comm):   %.2fx  (paper: 4.1x)\n",
                improv_sum / nrows);
    std::printf("  LAT-DEC factor:          %.2fx  (paper: 3.5x)\n",
                lat_sum / nrows);
    std::printf("  comm resource reduction: %.1f%%  (paper: 75.6%%)\n",
                100.0 * comm_reduction_sum / nrows);
    std::printf("  latency reduction:       %.1f%%  (paper: 71.4%%)\n",
                100.0 * lat_reduction_sum / nrows);

    if (auto dir = bench::csv_dir())
        csv.write_file(*dir + "/table3.csv");
    return ok ? 0 : 1;
}

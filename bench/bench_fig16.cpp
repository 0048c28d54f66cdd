/**
 * @file
 * Figure 16 reproduction: AutoComm relative to the GP-TP compiler (the
 * graph-partition compiler of Baker et al. with TP-Comm remote SWAPs),
 * per benchmark family, averaged over the Table-2 configurations:
 *
 *   Improv. factor = GP-TP comms / AutoComm comms
 *   LAT-DEC factor = GP-TP latency / AutoComm latency
 *
 * Rows are compiled through the driver::run_sweep thread pool (thread
 * count from AUTOCOMM_THREADS) with the GP-TP baseline enabled per cell,
 * sharing the grid machinery with bench_sweep, and served from the
 * persistent result store when AUTOCOMM_CACHE_DIR is set.
 */
#include <cstdio>
#include <map>

#include "common.hpp"
#include "driver/sweep.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

int
main()
{
    using namespace autocomm;

    std::puts("== Figure 16: AutoComm vs GP-TP (averaged per family) ==");

    struct Acc
    {
        double improv = 0, lat = 0;
        int n = 0;
    };
    std::map<std::string, Acc> acc;

    const std::vector<driver::SweepRow> rows = bench::run_sweep_cached(
        driver::cells_from_specs(bench::suite(), {}, 2022,
                                 /*with_baseline=*/false,
                                 /*stats_only=*/false, /*with_gptp=*/true),
        {});

    const bool ok = bench::rows_ok(rows);
    for (const driver::SweepRow& r : rows) {
        if (!r.ok || !r.gptp_factors ||
            r.gptp_factors->improv_factor <= 0 ||
            r.gptp_factors->lat_dec_factor <= 0)
            continue;
        Acc& a = acc[circuits::family_name(r.cell.spec.family)];
        a.improv += r.gptp_factors->improv_factor;
        a.lat += r.gptp_factors->lat_dec_factor;
        a.n += 1;
    }

    support::Table t({"Family", "Improv. factor", "LAT-DEC factor"});
    support::CsvWriter csv({"family", "improv", "lat_dec"});
    // Paper order: RCA, QAOA, MCTR, UCCSD, QFT, BV (ascending advantage).
    for (const char* fam : {"RCA", "QAOA", "MCTR", "UCCSD", "QFT", "BV"}) {
        const auto it = acc.find(fam);
        if (it == acc.end())
            continue;
        t.start_row();
        t.add(fam);
        t.add(it->second.improv / it->second.n, 2);
        t.add(it->second.lat / it->second.n, 2);
        csv.start_row();
        csv.add(std::string(fam));
        csv.add(it->second.improv / it->second.n);
        csv.add(it->second.lat / it->second.n);
    }
    t.print();
    std::puts("\npaper reference (improv): RCA 1.3, QAOA 1.6, MCTR 2.8, "
              "UCCSD 3.3, QFT 5.3, BV 12.9");
    std::puts("paper reference (lat):    RCA 2.7, QAOA 2.4, MCTR 3.9, "
              "UCCSD 3.5, QFT 6.6, BV 10.3");

    if (auto dir = bench::csv_dir())
        csv.write_file(*dir + "/fig16.csv");
    return ok ? 0 : 1;
}

/**
 * @file
 * Figure 15 reproduction: the burst-communication distribution assembled
 * by AutoComm — Pr[one communication carries >= X remote CX] for each
 * benchmark family, split into (a) building blocks (MCTR/RCA/QFT) and
 * (b) real-world applications (BV/QAOA/UCCSD), exactly the paper's two
 * panels. Also prints the §3.2 analytic upper bound P(4) <= 1/t for QFT.
 *
 * Rows are compiled through the driver::run_sweep thread pool (thread
 * count from AUTOCOMM_THREADS), sharing the grid machinery with
 * bench_sweep, and served from the persistent result store when
 * AUTOCOMM_CACHE_DIR is set — regenerating the figure from a warm cache
 * compiles nothing.
 */
#include <cstdio>

#include "common.hpp"
#include "driver/sweep.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace {

using namespace autocomm;

void
panel(const char* title, const std::vector<driver::SweepRow>& rows,
      support::CsvWriter& csv)
{
    std::puts(title);
    std::vector<std::string> headers = {"X"};
    for (const driver::SweepRow& r : rows)
        headers.push_back(r.cell.spec.label());
    support::Table t(headers);
    for (int x = 1; x <= 20; ++x) {
        t.start_row();
        t.add(x);
        csv.start_row();
        csv.add(static_cast<long long>(x));
        for (const driver::SweepRow& r : rows) {
            const double p = r.metrics.prob_carries_at_least(x);
            t.add(p, 3);
            csv.add(p);
        }
    }
    t.print();
    std::puts("");
}

} // namespace

int
main()
{
    using circuits::Family;

    std::puts("== Figure 15: Pr[one communication carries >= X REM-CX] ==");
    std::puts("");

    const int scale = bench::fast_mode() ? 0 : 1;
    const std::vector<circuits::BenchmarkSpec> blocks = {
        {Family::MCTR, 100 + 100 * scale, 10 + 10 * scale},
        {Family::RCA, 100 + 100 * scale, 10 + 10 * scale},
        {Family::QFT, 100 + 100 * scale, 10 + 10 * scale},
    };
    const std::vector<circuits::BenchmarkSpec> apps = {
        {Family::BV, 100 + 100 * scale, 10 + 10 * scale},
        {Family::QAOA, 100, 10},
        {Family::UCCSD, 12, 6},
    };

    const std::vector<driver::SweepRow> block_rows =
        bench::run_sweep_cached(driver::cells_from_specs(blocks), {});
    const std::vector<driver::SweepRow> app_rows =
        bench::run_sweep_cached(driver::cells_from_specs(apps), {});
    const bool blocks_ok = bench::rows_ok(block_rows);
    if (!bench::rows_ok(app_rows) || !blocks_ok)
        return 1;

    support::CsvWriter csv_a({"x", "mctr", "rca", "qft"});
    support::CsvWriter csv_b({"x", "bv", "qaoa", "uccsd"});
    panel("-- (a) building blocks --", block_rows, csv_a);
    panel("-- (b) real-world applications --", app_rows, csv_b);

    // Section 3.2 analytic check for QFT: P(4) <= 1/t, where P(4) is the
    // fraction of remote gates carried by blocks of fewer than 4 REM CX.
    {
        const driver::SweepRow& qft = block_rows[2];
        const int t = qft.cell.spec.num_qubits / qft.cell.spec.num_nodes;
        double small_gates = 0, total_gates = 0;
        for (std::size_t sz : qft.metrics.block_sizes) {
            total_gates += static_cast<double>(sz);
            if (sz < 4)
                small_gates += static_cast<double>(sz);
        }
        std::printf("QFT inverse-burst check: P(4) = %.3f, paper bound "
                    "1/t = %.3f\n",
                    small_gates / total_gates, 1.0 / t);
    }

    if (auto dir = bench::csv_dir()) {
        csv_a.write_file(*dir + "/fig15a.csv");
        csv_b.write_file(*dir + "/fig15b.csv");
    }
    return 0;
}

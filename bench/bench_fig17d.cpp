/**
 * @file
 * Figure 17(d) reproduction — sensitivity to the number of qubits:
 * AutoComm's improv. factor on MCTR as #qubit sweeps 100..600 for
 * 10 / 20 / 50 nodes. The paper's observation: the factor converges as
 * #qubit/#node grows.
 *
 * Points compile through driver::run_sweep with the Ferrari baseline and
 * are served from the persistent result store when AUTOCOMM_CACHE_DIR is
 * set.
 */
#include <cstdio>

#include "common.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

int
main()
{
    using namespace autocomm;

    std::puts("== Figure 17(d): improv. factor vs #qubit (MCTR) ==");
    const std::vector<int> qubits = bench::fast_mode()
                                        ? std::vector<int>{100, 200}
                                        : std::vector<int>{100, 200, 300,
                                                           400, 500, 600};
    const std::vector<int> nodes = {10, 20, 50};

    std::vector<circuits::BenchmarkSpec> specs;
    for (int q : qubits)
        for (int n : nodes)
            specs.push_back({circuits::Family::MCTR, q, n});
    const std::vector<driver::SweepRow> rows = bench::run_sweep_cached(
        driver::cells_from_specs(specs, {}, 2022, /*with_baseline=*/true));
    if (!bench::rows_ok(rows))
        return 1;

    support::Table t({"#qubit", "10 nodes", "20 nodes", "50 nodes"});
    support::CsvWriter csv({"qubits", "n10", "n20", "n50"});
    auto row = rows.begin();
    for (int q : qubits) {
        t.start_row();
        t.add(q);
        csv.start_row();
        csv.add(static_cast<long long>(q));
        for (std::size_t k = 0; k < nodes.size(); ++k, ++row) {
            t.add(row->factors->improv_factor, 2);
            csv.add(row->factors->improv_factor);
        }
    }
    t.print();
    std::puts("\npaper shape: factor grows then converges once "
              "#qubit/#node is large");
    if (auto dir = bench::csv_dir())
        csv.write_file(*dir + "/fig17d.csv");
    return 0;
}

/**
 * @file
 * Figure 17(e) reproduction — sensitivity to the number of nodes:
 * AutoComm's improv. factor on MCTR as #node sweeps 2..100 for
 * 100 / 200 / 300 qubits. The paper's observation: performance degrades
 * when #qubit/#node becomes small (few qubits per node leave little
 * burst to exploit).
 *
 * Points compile through driver::run_sweep with the Ferrari baseline and
 * are served from the persistent result store when AUTOCOMM_CACHE_DIR is
 * set.
 */
#include <cstdio>

#include "common.hpp"
#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

int
main()
{
    using namespace autocomm;

    std::puts("== Figure 17(e): improv. factor vs #node (MCTR) ==");
    const std::vector<int> nodes = bench::fast_mode()
                                       ? std::vector<int>{2, 10, 20}
                                       : std::vector<int>{2, 10, 20, 50,
                                                          100};
    const std::vector<int> qubits = {100, 200, 300};

    std::vector<circuits::BenchmarkSpec> specs;
    for (int n : nodes)
        for (int q : qubits)
            specs.push_back({circuits::Family::MCTR, q, n});
    const std::vector<driver::SweepRow> rows = bench::run_sweep_cached(
        driver::cells_from_specs(specs, {}, 2022, /*with_baseline=*/true));
    if (!bench::rows_ok(rows))
        return 1;

    std::vector<std::string> headers = {"#node"};
    for (int q : qubits)
        headers.push_back(support::strprintf("%d qubits", q));
    support::Table t(headers);
    support::CsvWriter csv({"nodes", "q100", "q200", "q300"});
    auto row = rows.begin();
    for (int n : nodes) {
        t.start_row();
        t.add(n);
        csv.start_row();
        csv.add(static_cast<long long>(n));
        for (std::size_t k = 0; k < qubits.size(); ++k, ++row) {
            t.add(row->factors->improv_factor, 2);
            csv.add(row->factors->improv_factor);
        }
    }
    t.print();
    std::puts("\npaper shape: factor deteriorates as #qubit/#node shrinks");
    if (auto dir = bench::csv_dir())
        csv.write_file(*dir + "/fig17e.csv");
    return 0;
}

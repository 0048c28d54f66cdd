/**
 * @file
 * Figure 17(b) reproduction — assignment analysis: communication cost of
 * the Cat-Comm-only assignment (the Diadamo-style specialized compiler,
 * extended) divided by AutoComm's hybrid Cat/TP assignment, on RCA and
 * QFT at the three Table-2 sizes.
 *
 * Both arms compile through driver::run_sweep (the built-in "catonly"
 * option set is the ablated arm) and are served from the persistent
 * result store when AUTOCOMM_CACHE_DIR is set.
 */
#include <cstdio>

#include "common.hpp"

int
main()
{
    using namespace autocomm;
    using circuits::Family;

    std::puts("== Figure 17(b): Cat-Comm-only / hybrid comm ratio ==");
    if (!bench::ablation_panel(
            {Family::RCA, Family::QFT}, *driver::find_option_set("catonly"),
            [](const driver::SweepRow& r) {
                return static_cast<double>(r.metrics.total_comms);
            },
            "CatOnly/Hybrid", "fig17b.csv"))
        return 1;
    std::puts("\npaper reference: RCA 1.35/1.02/1.17, QFT 4.20/4.46/4.56");
    return 0;
}

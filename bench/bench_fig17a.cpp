/**
 * @file
 * Figure 17(a) reproduction — aggregation analysis: communication cost of
 * aggregation WITHOUT gate commutation (sparse, one communication per
 * remote gate) divided by AutoComm's commutation-aware aggregation, on
 * QFT and BV at the three Table-2 sizes.
 *
 * Both arms compile through driver::run_sweep (the built-in "sparse"
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

    std::puts("== Figure 17(a): no-commutation / commutation comm ratio ==");
    if (!bench::ablation_panel(
            {Family::QFT, Family::BV}, *driver::find_option_set("sparse"),
            [](const driver::SweepRow& r) {
                return static_cast<double>(r.metrics.total_comms);
            },
            "NoCommute/Commute", "fig17a.csv"))
        return 1;
    std::puts("\npaper reference: QFT 4.35/4.55/4.62, BV 6.22/6.63/6.69");
    return 0;
}

/**
 * @file
 * Figure 17(c) reproduction — scheduling analysis: program latency under
 * the plain greedy (as-soon-as-possible, no EPR prefetch, no teleport
 * fusion) block schedule divided by AutoComm's burst-greedy schedule, on
 * MCTR and QFT at the three Table-2 sizes.
 *
 * Both arms compile through driver::run_sweep and are served from the
 * persistent result store when AUTOCOMM_CACHE_DIR is set. The arms
 * differ only in schedule options, so they share one plan per program.
 */
#include <cstdio>

#include "common.hpp"

int
main()
{
    using namespace autocomm;
    using circuits::Family;

    std::puts("== Figure 17(c): greedy / burst-greedy latency ratio ==");
    driver::OptionSet greedy{"greedy", {}};
    greedy.opts.schedule.epr_prefetch = false;
    greedy.opts.schedule.tp_fusion = false;
    if (!bench::ablation_panel(
            {Family::MCTR, Family::QFT}, greedy,
            [](const driver::SweepRow& r) { return r.schedule.makespan; },
            "Greedy/BurstGreedy", "fig17c.csv"))
        return 1;
    std::puts("\npaper reference: MCTR 1.24/1.17/1.19, QFT 1.44/1.56/1.61");
    return 0;
}

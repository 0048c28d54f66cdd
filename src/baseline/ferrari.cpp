#include "baseline/ferrari.hpp"

namespace autocomm::baseline {

pass::CompileResult
compile_ferrari(const qir::Circuit& c, const hw::QubitMapping& map,
                const hw::Machine& m)
{
    pass::CompileOptions opts;
    opts.aggregate.use_commutation = false; // one block per remote gate
    opts.schedule.tp_fusion = false;        // nothing to fuse anyway
    opts.schedule.epr_prefetch = true;      // as-soon-as-possible greedy
    return pass::compile(c, map, m, opts);
}

RelativeFactors
relative_factors(const pass::CompileResult& baseline,
                 const pass::CompileResult& autocomm)
{
    return relative_factors(baseline.metrics.total_comms,
                            baseline.schedule.makespan,
                            autocomm.metrics.total_comms,
                            autocomm.schedule.makespan);
}

RelativeFactors
relative_factors(std::size_t baseline_comms, double baseline_makespan,
                 std::size_t autocomm_comms, double autocomm_makespan)
{
    RelativeFactors f;
    if (autocomm_comms > 0)
        f.improv_factor = static_cast<double>(baseline_comms) /
                          static_cast<double>(autocomm_comms);
    if (autocomm_makespan > 0)
        f.lat_dec_factor = baseline_makespan / autocomm_makespan;
    return f;
}

} // namespace autocomm::baseline

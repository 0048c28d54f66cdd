#include "autocomm/pipeline.hpp"

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace autocomm::pass {

CompilePlan
plan(const qir::Circuit& c, const hw::QubitMapping& map,
     const AggregateOptions& aggregate_opts, const AssignOptions& assign_opts)
{
    if (c.num_qubits() != map.num_qubits())
        support::fatal("compile: circuit has %d qubits, mapping %d",
                       c.num_qubits(), map.num_qubits());
    CompilePlan p;
    {
        obs::Span span("aggregate");
        p.blocks = aggregate(c, map, aggregate_opts);
    }
    {
        obs::Span span("assign");
        assign_schemes(c, p.blocks, assign_opts);
    }
    {
        obs::Span span("reorder");
        p.metrics = compute_metrics(c, p.blocks);
        p.reordered = reorder_with_blocks(c, p.blocks, &p.block_start);
    }
    return p;
}

ScheduleResult
schedule_plan(const CompilePlan& p, const hw::QubitMapping& map,
              const hw::Machine& m, const ScheduleOptions& opts)
{
    m.validate_shape();
    m.validate_routing();
    m.validate_noise();
    map.validate(m);

    ScheduleResult r;
    {
        obs::Span span("schedule");
        r = schedule_program(p.reordered, p.blocks, p.block_start, map, m,
                             opts);
    }
    obs::count("schedule.epr_pairs", static_cast<std::uint64_t>(r.epr_pairs));
    obs::count("schedule.detours", static_cast<std::uint64_t>(r.detours));
    return r;
}

CompileResult
compile(const qir::Circuit& c, const hw::QubitMapping& map,
        const hw::Machine& m, const CompileOptions& opts)
{
    CompilePlan p = plan(c, map, opts.aggregate, opts.assign);
    CompileResult r;
    r.schedule = schedule_plan(p, map, m, opts.schedule);
    r.blocks = std::move(p.blocks);
    r.reordered = std::move(p.reordered);
    r.block_start = std::move(p.block_start);
    r.metrics = p.metrics;
    return r;
}

} // namespace autocomm::pass

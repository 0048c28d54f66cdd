/**
 * @file
 * The end-to-end AutoComm compiler pipeline (paper Fig. 1): aggregation ->
 * assignment -> scheduling, over a decomposed circuit and a qubit mapping
 * produced by the front-end (e.g., OEE).
 *
 * compile() is two halves, also callable on their own:
 *  - plan(): aggregate -> assign -> compute_metrics -> reorder. It reads
 *    only the circuit, the mapping, and the aggregate/assign options —
 *    never the machine — so one plan serves every machine (topology,
 *    noise, bandwidth) and schedule option the mapping is valid for.
 *  - schedule_plan(): validate the machine and the mapping against it,
 *    then run the latency simulation (schedule_program) on the plan.
 * driver::run_sweep builds one plan per (mapping, aggregate options,
 * assign options) group and schedules it once per cell.
 *
 * This is the primary public entry point of the library:
 *
 * @code
 *   using namespace autocomm;
 *   qir::Circuit logical = circuits::make_qft(100);
 *   qir::Circuit program = qir::decompose(logical);
 *   hw::Machine machine{.num_nodes = 10, .qubits_per_node = 10};
 *   hw::QubitMapping map = partition::oee_map(program, 10);
 *   pass::CompileResult r = pass::compile(program, map, machine);
 *   // r.metrics.total_comms, r.schedule.makespan, ...
 * @endcode
 */
#pragma once

#include <vector>

#include "autocomm/aggregate.hpp"
#include "autocomm/assign.hpp"
#include "autocomm/burst.hpp"
#include "autocomm/metrics.hpp"
#include "autocomm/schedule.hpp"
#include "hw/machine.hpp"
#include "qir/circuit.hpp"

namespace autocomm::pass {

/** All pipeline knobs (each stage's ablation switches included). */
struct CompileOptions
{
    AggregateOptions aggregate{};
    AssignOptions assign{};
    ScheduleOptions schedule{};
};

/** The machine-independent half of a compile (see plan()). */
struct CompilePlan
{
    /** Burst blocks with assigned schemes. */
    std::vector<CommBlock> blocks;
    /** Circuit reordered so each block is contiguous. */
    qir::Circuit reordered;
    /** Index in `reordered` of each block's first gate. */
    std::vector<std::size_t> block_start;
    /** Communication metrics (Table 3 columns). */
    Metrics metrics;
};

/** Everything the pipeline produces. */
struct CompileResult
{
    /** Burst blocks with assigned schemes. */
    std::vector<CommBlock> blocks;
    /** Circuit reordered so each block is contiguous. */
    qir::Circuit reordered;
    /** Index in `reordered` of each block's first gate. */
    std::vector<std::size_t> block_start;
    /** Communication metrics (Table 3 columns). */
    Metrics metrics;
    /** Latency simulation outcome. */
    ScheduleResult schedule;
};

/**
 * The machine-independent half: aggregate, assign schemes, count, and
 * reorder, under the "aggregate", "assign", and "reorder" spans. @p c
 * must be decomposed to 1q/2q gates and have as many qubits as @p map.
 */
CompilePlan plan(const qir::Circuit& c, const hw::QubitMapping& map,
                 const AggregateOptions& aggregate_opts = {},
                 const AssignOptions& assign_opts = {});

/**
 * The per-machine half: validate @p m (shape, routing, noise) and @p map
 * against it, then schedule @p p under the "schedule" span. @p map must
 * be the mapping @p p was planned with.
 */
ScheduleResult schedule_plan(const CompilePlan& p,
                             const hw::QubitMapping& map,
                             const hw::Machine& m,
                             const ScheduleOptions& opts = {});

/**
 * Run the full AutoComm pipeline: plan() then schedule_plan(). @p c must
 * be decomposed to 1q/2q gates. @p map must be valid for @p m (see
 * QubitMapping::validate).
 */
CompileResult compile(const qir::Circuit& c, const hw::QubitMapping& map,
                      const hw::Machine& m, const CompileOptions& opts = {});

} // namespace autocomm::pass

/**
 * @file
 * Shared declarations of the compiler benchmark: the workloads, the
 * production iteration through driver::run_sweep, the correctness gate,
 * the traced per-layer replay, and the result printer.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/json.hpp"
#include "driver/sweep.hpp"

namespace perfbench {

using autocomm::driver::SweepCell;
using autocomm::driver::SweepRow;

// ------------------------------------------------------------ workloads

/** How one production iteration drives run_sweep. */
enum class Shape {
    /** One run_sweep over every cell. */
    Sweep,
    /** One single-cell run_sweep per cell, one after another. */
    OneByOne,
    /** A cold run_sweep against an empty ResultStore, then a warm one
     * served entirely from it. */
    CacheRoundtrip,
};

struct Workload
{
    std::string name;
    Shape shape = Shape::Sweep;
    std::vector<SweepCell> cells;
    /** Threads of a timed end-to-end iteration; 0 means the machine's
     * (at most 4). */
    std::size_t threads = 0;
};

/** Names accepted by make_workload, in BENCHMARK.json order. */
std::vector<std::string> workload_names();

/** Build the named workload; @p seed becomes every cell's seed. Throws
 * autocomm::support::UserError for an unknown name. */
Workload make_workload(const std::string& name, std::uint64_t seed);

/**
 * One production iteration of @p w at @p threads threads, obs as the
 * caller left it. Returns every row delivered: the cells' rows in cell
 * order, followed for CacheRoundtrip by the warm run's rows. Cache
 * stores live in fresh directories under @p scratch_dir and are removed
 * before returning.
 */
std::vector<SweepRow> run_iteration(const Workload& w, std::size_t threads,
                                    const std::string& scratch_dir);

/** A fresh, not yet existing directory path under @p scratch_dir. */
std::string fresh_dir(const std::string& scratch_dir);

// ------------------------------------------------------------ gate

/** Why @p row fails the correctness gate; empty when it passes. A row
 * fails when !ok, when a quality number is non-finite or negative, or
 * when its program fidelity lies outside (0, 1]. */
std::string row_failure(const SweepRow& row);

/** Same cell label and identical results: every field the result cache
 * stores, so everything but the wall-clock compile time. */
bool rows_equal(const SweepRow& a, const SweepRow& b);

/** Rows of @p rows (one iteration of @p w) that fail the gate, differ
 * from the row at their index in a non-empty @p reference, or, for a
 * cache roundtrip, are warm rows that differ from their cold rows. */
std::size_t count_failed(const Workload& w,
                         const std::vector<SweepRow>& rows,
                         const std::vector<SweepRow>& reference = {});

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);

/** Quartiles (q1, q2, q3) as Python's statistics.quantiles(n=4)
 * computes them (the "exclusive" method); v must hold >= 2 values. */
std::vector<double> quartiles(std::vector<double> v);

/** Nearest-rank percentile @p p (0..100] of @p v. */
double percentile(std::vector<double> v, double p);

// ------------------------------------------------------------ traced run

/** One span recorded around a layer call from the benchmark's code. */
struct Span
{
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1; ///< index of the enclosing span; -1 at top level
    int cell = -1;   ///< index of the workload cell the work belongs to
};

/** Outcome of one traced replay of a workload. */
struct Replay
{
    std::vector<Span> spans;
    /** Rows rebuilt from the layer calls, shaped like run_iteration's. */
    std::vector<SweepRow> rows;
    /** Layer counts and ratios (partition.cut_weight, autocomm.*,
     * qir.gates, driver.preparations, cache.*, verify.violations). */
    std::map<std::string, double> counts;
};

/**
 * Replay @p w serially by calling each layer's public function from
 * here, reproducing run_sweep's prepare-once grouping, with a span around
 * every call. Runs verify::check_schedule and check_metrics on every
 * compiled cell (verify.violations, verify.check spans).
 */
Replay traced_replay(const Workload& w, const std::string& scratch_dir);

/** Self time (span minus the spans nested in it), summed per span name,
 * in milliseconds. */
std::map<std::string, double> self_ms(const std::vector<Span>& spans);

// ------------------------------------------------------------ result

struct MetricDecl
{
    const char* name;
    const char* unit;
};

/** The end-to-end metrics (--trace 0), as BENCHMARK.json declares them. */
const std::vector<MetricDecl>& end_to_end_metrics();

/** The per-layer metrics (--trace 1), as BENCHMARK.json declares them. */
const std::vector<MetricDecl>& per_layer_metrics();

/**
 * The result line: {"correct", "attempted", "failed", "metrics"} with
 * every metric of @p decls taken from @p values. Throws
 * autocomm::support::UserError when @p values misses one.
 */
std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<MetricDecl>& decls,
                        const std::map<std::string, double>& values);

/**
 * The benchmark's self-test: the gate counts an ok=1, makespan=inf row
 * as failed and passes a sound one, and the printer emits exactly the
 * metric names and units @p benchmark_json declares. Returns the first
 * problem found; empty when all hold.
 */
std::string self_test(const autocomm::cache::Json& benchmark_json);

} // namespace perfbench

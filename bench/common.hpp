/**
 * @file
 * Shared infrastructure for the paper-reproduction bench binaries: the
 * suite and fast-mode switch, CSV output, driver::run_sweep through a
 * persistent result store, and the shared CLI flag handling.
 *
 * Every bench binary prints the corresponding paper table/figure data to
 * stdout and (optionally, via AUTOCOMM_CSV_DIR) dumps a CSV per figure.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuits/library.hpp"
#include "driver/sweep.hpp"
#include "obs/sampler.hpp"

namespace autocomm::bench {

/**
 * True when the AUTOCOMM_FAST environment variable is set: benches then
 * run the reduced suite (100-qubit rows) for quick iteration.
 */
bool fast_mode();

/** The suite honoring fast_mode(). */
std::vector<circuits::BenchmarkSpec> suite();

/** CSV output directory from AUTOCOMM_CSV_DIR, if set. */
std::optional<std::string> csv_dir();

/**
 * driver::run_sweep through a persistent result store: @p cache_dir
 * when non-empty (the table binaries' --cache-dir flag), else the
 * directory named by the AUTOCOMM_CACHE_DIR environment variable — the
 * cached path shared by the figure/table binaries. With neither this is
 * exactly run_sweep. Stores are opened once per process and directory,
 * flushed after every call, and the hit/miss counters are reported via
 * inform(); when @p stats_line is non-null it additionally receives the
 * stats_line() text ("" when no store is in use) for --cache-stats
 * style reporting.
 */
std::vector<driver::SweepRow>
run_sweep_cached(const std::vector<driver::SweepCell>& cells,
                 driver::SweepOptions opts = {},
                 const std::string& cache_dir = {},
                 std::string* stats_line = nullptr);

/** Print "error: <cell label>: <what>" to stderr for every failed row;
 * true when every row compiled. */
bool rows_ok(const std::vector<driver::SweepRow>& rows);

/**
 * One Fig. 17(a)-(c) ablation panel: compile every family at the three
 * Table-2 sizes (100,10), (200,20), (300,30) — (100,10) alone in fast
 * mode — under the default options and under @p ablated, in one sweep,
 * and tabulate metric(ablated row) / metric(default row) per program
 * under the column header @p ratio_header. Writes <csv_dir>/@p csv_name.
 * Returns false (after reporting the failed rows) when a cell failed.
 */
bool ablation_panel(const std::vector<circuits::Family>& families,
                    const driver::OptionSet& ablated,
                    double (*metric)(const driver::SweepRow&),
                    const char* ratio_header, const char* csv_name);

/**
 * Shared --cache-dir/--cache-stats CLI handling for the table/figure
 * binaries: recognizes the two flags (mutating @p i past any value) and
 * returns true; false means the argument is not a cache flag.
 */
struct CacheCli
{
    std::string dir;
    bool stats = false;
};
bool parse_cache_flag(CacheCli& cli, int argc, char** argv, int& i);

/**
 * Shared --trace-out/--stats-out/--explain-out/--explain-top/--ring/
 * --sample-ms handling for the bench binaries. parse_obs_flag
 * recognizes the flags (mutating @p i past the value); apply_obs_cli —
 * call it once after the argument loop — fills trace_path from the
 * AUTOCOMM_TRACE environment variable when the flag did not set it,
 * names the calling thread's trace lane "main", installs the ring
 * capacity, enables recording iff any option is set, and starts the
 * resource sampler when --sample-ms was given; finish_obs_cli — call it
 * after all pools have drained — stops the sampler and writes the
 * requested file(s).
 */
struct ObsCli
{
    std::string trace_path; ///< Chrome trace-event JSON destination
    std::string stats_path; ///< counters + histogram summaries JSON
    std::string explain_path; ///< decision explain-report JSON
    int explain_top = 5; ///< payload samples kept per decision bucket
    /** Flight-recorder capacity (events kept per thread); unset keeps
     * the current global setting (normally unbounded). */
    std::optional<std::size_t> ring;
    int sample_ms = 0; ///< resource-sampler interval; 0 = no sampler
    std::unique_ptr<obs::ResourceSampler> sampler;
};
bool parse_obs_flag(ObsCli& cli, int argc, char** argv, int& i);
void apply_obs_cli(ObsCli& cli);
void finish_obs_cli(ObsCli& cli);

} // namespace autocomm::bench

#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "cache/store.hpp"
#include "driver/sweep.hpp"
#include "obs/decision.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

namespace autocomm::bench {

bool
fast_mode()
{
    const char* v = std::getenv("AUTOCOMM_FAST");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<circuits::BenchmarkSpec>
suite()
{
    return fast_mode() ? circuits::small_suite() : circuits::paper_suite();
}

std::optional<std::string>
csv_dir()
{
    const char* v = std::getenv("AUTOCOMM_CSV_DIR");
    if (v == nullptr || v[0] == '\0')
        return std::nullopt;
    return std::string(v);
}

std::vector<driver::SweepRow>
run_sweep_cached(const std::vector<driver::SweepCell>& cells,
                 driver::SweepOptions opts, const std::string& cache_dir,
                 std::string* stats_line)
{
    // One store per (process, directory): figure binaries issue several
    // sweeps against one store, and an explicit --cache-dir may name a
    // different directory than AUTOCOMM_CACHE_DIR does. A directory
    // that failed to open is remembered too, so the figure binaries
    // attempt (and warn about) an unusable dir once, not per sweep.
    static std::map<std::string, std::optional<cache::ResultStore>>
        stores;

    std::string dir = cache_dir;
    if (dir.empty()) {
        const char* env = std::getenv("AUTOCOMM_CACHE_DIR");
        if (env != nullptr && env[0] != '\0')
            dir = env;
    }
    cache::ResultStore* store = nullptr;
    if (!dir.empty()) {
        auto it = stores.find(dir);
        if (it == stores.end()) {
            it = stores.emplace(dir, std::nullopt).first;
            try {
                it->second.emplace(dir);
            } catch (const support::UserError& e) {
                // An unusable cache dir should not take the figure run
                // down with it; compile uncached instead.
                support::warn("%s; continuing without the result cache",
                              e.what());
            }
        }
        if (it->second.has_value())
            store = &*it->second;
    }

    if (store != nullptr)
        opts.store = store;
    std::vector<driver::SweepRow> rows = driver::run_sweep(cells, opts);
    if (store != nullptr) {
        store->flush();
        support::inform("cache %s: %s", store->dir().c_str(),
                        store->stats_line().c_str());
    }
    if (stats_line != nullptr)
        *stats_line = store != nullptr ? store->stats_line() : "";
    return rows;
}

bool
rows_ok(const std::vector<driver::SweepRow>& rows)
{
    bool ok = true;
    for (const driver::SweepRow& r : rows)
        if (!r.ok) {
            ok = false;
            std::fprintf(stderr, "error: %s: %s\n", r.cell.label().c_str(),
                         r.error.c_str());
        }
    return ok;
}

bool
ablation_panel(const std::vector<circuits::Family>& families,
               const driver::OptionSet& ablated,
               double (*metric)(const driver::SweepRow&),
               const char* ratio_header, const char* csv_name)
{
    const std::vector<int> scales =
        fast_mode() ? std::vector<int>{1} : std::vector<int>{1, 2, 3};
    std::vector<driver::SweepCell> cells;
    for (circuits::Family fam : families)
        for (int k : scales)
            for (const driver::OptionSet& o : {driver::OptionSet{}, ablated}) {
                driver::SweepCell cell;
                cell.spec = {fam, 100 * k, 10 * k};
                cell.options = o;
                cells.push_back(std::move(cell));
            }
    const std::vector<driver::SweepRow> rows = run_sweep_cached(cells);
    if (!rows_ok(rows))
        return false;

    support::Table t({"Program", "(#qubit,#node)", ratio_header});
    support::CsvWriter csv({"program", "qubits", "nodes", "ratio"});
    for (std::size_t i = 0; i < rows.size(); i += 2) {
        const circuits::BenchmarkSpec& spec = rows[i].cell.spec;
        const double ratio = metric(rows[i + 1]) / metric(rows[i]);
        t.start_row();
        t.add(spec.label());
        t.add(support::strprintf("(%d,%d)", spec.num_qubits,
                                 spec.num_nodes));
        t.add(ratio, 2);
        csv.start_row();
        csv.add(spec.label());
        csv.add(static_cast<long long>(spec.num_qubits));
        csv.add(static_cast<long long>(spec.num_nodes));
        csv.add(ratio);
    }
    t.print();
    if (auto dir = csv_dir())
        csv.write_file(*dir + "/" + csv_name);
    return true;
}

bool
parse_cache_flag(CacheCli& cli, int argc, char** argv, int& i)
{
    if (std::strcmp(argv[i], "--cache-dir") == 0) {
        if (i + 1 >= argc)
            support::fatal("--cache-dir requires a value");
        cli.dir = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--cache-stats") == 0) {
        cli.stats = true;
        return true;
    }
    return false;
}

bool
parse_obs_flag(ObsCli& cli, int argc, char** argv, int& i)
{
    if (std::strcmp(argv[i], "--trace-out") == 0) {
        if (i + 1 >= argc)
            support::fatal("--trace-out requires a value");
        cli.trace_path = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--stats-out") == 0) {
        if (i + 1 >= argc)
            support::fatal("--stats-out requires a value");
        cli.stats_path = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--explain-out") == 0) {
        if (i + 1 >= argc)
            support::fatal("--explain-out requires a value");
        cli.explain_path = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--explain-top") == 0) {
        if (i + 1 >= argc)
            support::fatal("--explain-top requires a value");
        cli.explain_top =
            driver::parse_int(argv[++i], "--explain-top", 0, 1000);
        return true;
    }
    if (std::strcmp(argv[i], "--ring") == 0) {
        if (i + 1 >= argc)
            support::fatal("--ring requires a value");
        cli.ring = static_cast<std::size_t>(
            driver::parse_int(argv[++i], "--ring", 0, 1 << 24));
        return true;
    }
    if (std::strcmp(argv[i], "--sample-ms") == 0) {
        if (i + 1 >= argc)
            support::fatal("--sample-ms requires a value");
        cli.sample_ms =
            driver::parse_int(argv[++i], "--sample-ms", 1, 60'000);
        return true;
    }
    return false;
}

void
apply_obs_cli(ObsCli& cli)
{
    if (cli.trace_path.empty()) {
        const char* env = std::getenv("AUTOCOMM_TRACE");
        if (env != nullptr && env[0] != '\0')
            cli.trace_path = env;
    }
    if (cli.ring.has_value())
        obs::set_ring_capacity(*cli.ring);
    if (cli.trace_path.empty() && cli.stats_path.empty() &&
        cli.explain_path.empty() && !cli.ring.has_value() &&
        cli.sample_ms == 0)
        return;
    obs::set_lane_name("main");
    obs::set_enabled(true);
    if (cli.sample_ms > 0)
        cli.sampler = std::make_unique<obs::ResourceSampler>(cli.sample_ms);
}

void
finish_obs_cli(ObsCli& cli)
{
    // The sampler thread records events; exports require quiescence.
    if (cli.sampler != nullptr)
        cli.sampler->stop();
    if (!cli.trace_path.empty() &&
        obs::write_chrome_trace(cli.trace_path))
        support::inform("wrote trace to %s", cli.trace_path.c_str());
    if (!cli.stats_path.empty() &&
        obs::write_stats_json(cli.stats_path))
        support::inform("wrote stats to %s", cli.stats_path.c_str());
    if (!cli.explain_path.empty() &&
        obs::write_explain_json(cli.explain_path,
                                static_cast<std::size_t>(cli.explain_top)))
        support::inform("wrote explain report to %s",
                        cli.explain_path.c_str());
}

} // namespace autocomm::bench

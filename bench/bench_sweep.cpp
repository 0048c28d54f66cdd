/**
 * @file
 * Multi-threaded compilation sweep CLI: compile a declarative grid of
 * (family x qubits x nodes x option set) cells on a thread pool and print
 * one metrics row per cell, optionally dumping the rows as CSV.
 *
 *   bench_sweep                                # default 16-cell grid
 *   bench_sweep --families QFT,BV --qubits 16,32 --nodes 2,4 --threads 8
 *   bench_sweep --opts default,sparse --baseline --csv sweep.csv
 *   bench_sweep --verify                       # assert 1-thread == N-thread
 *
 * With --cache-dir, rows come from / go to the persistent content-hashed
 * result store, and a grid can be split deterministically across
 * machines and reassembled:
 *
 *   bench_sweep ... --cache-dir cache --cache-stats   # cold, then warm
 *   bench_sweep ... --cache-dir cache --shard 0/2     # machine A
 *   bench_sweep ... --cache-dir cache2 --shard 1/2    # machine B
 *   bench_sweep ... --cache-dir cache --merge-from cache2 --merge \
 *       --csv full.csv                                # == unsharded CSV
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "common.hpp"
#include "driver/sweep.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace autocomm;

std::vector<std::string>
split_commas(const std::string& s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

int
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --families LIST  comma list of MCTR,RCA,QFT,BV,QAOA,UCCSD,\n"
        "                   qasm:<file>, qasmdir:<dir> (default QFT,BV);\n"
        "                   external QASM entries pin their own qubit "
        "count\n"
        "  --qubits LIST    qubit counts (default 16,24,32,40)\n"
        "  --nodes LIST     node counts (default 2,4)\n"
        "  --shape LIST     machine shapes, ';'-separated (e.g. "
        "\"4x10,2x30;8x10\");\n"
        "                   replaces --nodes (a shape fixes its node "
        "count)\n"
        "  --topology LIST  link topologies: all_to_all,ring,grid,star "
        "(default all_to_all)\n"
        "  --link-fidelity LIST\n"
        "                   raw EPR fidelity per link, in (0.25,1] "
        "(default 1.0 = perfect)\n"
        "  --target-fidelity LIST\n"
        "                   purification targets, in (0,1) or 0 = off "
        "(default 0;\n"
        "                   0.99 is assumed when --link-fidelity < 1 "
        "and no target given)\n"
        "  --link-bandwidth LIST\n"
        "                   concurrent EPR preparations per link, 0 = "
        "unlimited (default 0)\n"
        "  --link-fidelity-override LIST\n"
        "                   per-link fidelity overrides "
        "(\"0-1:0.92,2-3:0.85\"),\n"
        "                   applied to every cell; routing detours "
        "around degraded links\n"
        "  --link-bandwidth-override LIST\n"
        "                   per-link bandwidth overrides (\"0-1:2\"; 0 = "
        "unlimited link)\n"
        "  --partitioner LIST\n"
        "                   qubit partitioners: oee,multilevel,"
        "multilevel+oee\n"
        "                   (default oee, the paper's mapper)\n"
        "  --opts LIST      option sets (default \"default\"; see "
        "--list-opts)\n"
        "  --threads N      worker threads (default AUTOCOMM_THREADS or "
        "hardware)\n"
        "  --seed S         circuit-generation seed (default 2022)\n"
        "  --baseline       also run the Ferrari baseline per cell\n"
        "  --csv PATH       write the sweep rows as CSV\n"
        "  --verify         run single- and multi-threaded, require "
        "identical CSV\n"
        "  --cache-dir DIR  persistent result cache: serve cells from "
        "the store,\n"
        "                   record newly compiled ones\n"
        "  --shard I/N      compile only the cells whose content hash "
        "lands in\n"
        "                   shard I of N (deterministic; shards "
        "partition the grid)\n"
        "  --merge          assemble every grid cell from the cache "
        "(compiling\n"
        "                   nothing) and compact the store; fails on "
        "missing cells\n"
        "  --merge-from LIST\n"
        "                   comma list of other cache dirs (e.g. shard "
        "stores) to\n"
        "                   import into --cache-dir first\n"
        "  --cache-gc DAYS  after the run, drop cache entries older than "
        "DAYS days\n"
        "                   (0 drops everything) and compact the store\n"
        "  --cache-max-mb MB\n"
        "                   after the run, evict oldest cache entries "
        "until the\n"
        "                   store fits in MB megabytes, then compact\n"
        "  --cache-stats    print cache hit/miss/stale counters\n"
        "  --trace-out FILE write a Chrome trace-event JSON of the run "
        "(load in\n"
        "                   chrome://tracing or Perfetto; also via "
        "AUTOCOMM_TRACE)\n"
        "  --stats-out FILE write per-pass latency percentiles and "
        "pipeline\n"
        "                   counters as JSON (per-cell under \"cells\")\n"
        "  --explain-out FILE write the decision explain report as JSON "
        "(per-cell\n"
        "                   accept/reject counts with payload samples)\n"
        "  --explain-top N  payload samples kept per decision bucket "
        "(default 5)\n"
        "  --ring N         keep only the last N trace events per thread "
        "(0 = all)\n"
        "  --sample-ms N    sample RSS/pool/cache gauges every N ms\n"
        "  --list-opts      print the built-in option sets and exit\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {16, 24, 32, 40};
    grid.node_counts = {2, 4};

    driver::SweepOptions sweep_opts;
    sweep_opts.num_threads = support::default_thread_count();
    std::string csv_path;
    bool verify = false;
    bool target_given = false;
    std::string cache_dir;
    std::optional<driver::ShardSpec> shard;
    bool merge = false;
    std::vector<std::string> merge_from;
    bool cache_stats = false;
    std::optional<double> cache_gc_days;
    std::optional<double> cache_max_mb;
    bench::ObsCli obs_cli;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                support::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        try {
            if (arg == "--families") {
                grid.families =
                    driver::parse_family_list(value(), "--families");
            } else if (arg == "--qubits") {
                grid.qubit_counts =
                    driver::parse_int_list(value(), "--qubits");
            } else if (arg == "--nodes") {
                grid.node_counts =
                    driver::parse_int_list(value(), "--nodes");
            } else if (arg == "--shape") {
                grid.shapes = driver::parse_shape_list(value(), "--shape");
            } else if (arg == "--topology") {
                grid.topologies =
                    driver::parse_topology_list(value(), "--topology");
            } else if (arg == "--link-fidelity") {
                grid.link_fidelities = driver::parse_fidelity_list(
                    value(), "--link-fidelity");
            } else if (arg == "--target-fidelity") {
                grid.target_fidelities = driver::parse_fidelity_list(
                    value(), "--target-fidelity", /*zero_disables=*/true);
                target_given = true;
            } else if (arg == "--link-bandwidth") {
                grid.link_bandwidths = driver::parse_int_list(
                    value(), "--link-bandwidth", /*min_value=*/0);
            } else if (arg == "--link-fidelity-override") {
                grid.link_fidelity_overrides = driver::parse_override_list(
                    value(), "--link-fidelity-override",
                    /*integer_value=*/false);
            } else if (arg == "--link-bandwidth-override") {
                grid.link_bandwidth_overrides = driver::parse_override_list(
                    value(), "--link-bandwidth-override",
                    /*integer_value=*/true);
            } else if (arg == "--partitioner") {
                grid.partitioners =
                    driver::parse_mapper_list(value(), "--partitioner");
            } else if (arg == "--opts") {
                grid.option_sets.clear();
                for (const std::string& tok : split_commas(value())) {
                    auto o = driver::find_option_set(tok);
                    if (!o)
                        support::fatal("unknown option set \"%s\" "
                                       "(see --list-opts)", tok.c_str());
                    grid.option_sets.push_back(*o);
                }
            } else if (arg == "--threads") {
                sweep_opts.num_threads = static_cast<std::size_t>(
                    driver::parse_int(value(), "--threads"));
            } else if (arg == "--seed") {
                const std::string s = value();
                char* end = nullptr;
                grid.seed = std::strtoull(s.c_str(), &end, 10);
                if (end == s.c_str() || *end != '\0')
                    support::fatal("--seed: \"%s\" is not an unsigned "
                                   "integer", s.c_str());
            } else if (arg == "--baseline") {
                grid.with_baseline = true;
            } else if (arg == "--csv") {
                csv_path = value();
            } else if (arg == "--verify") {
                verify = true;
            } else if (arg == "--cache-dir") {
                cache_dir = value();
            } else if (arg == "--shard") {
                shard = driver::parse_shard(value(), "--shard");
            } else if (arg == "--merge") {
                merge = true;
            } else if (arg == "--merge-from") {
                for (const std::string& dir : split_commas(value()))
                    merge_from.push_back(dir);
            } else if (arg == "--cache-stats") {
                cache_stats = true;
            } else if (arg == "--cache-gc") {
                const std::string s = value();
                char* end = nullptr;
                const double days = std::strtod(s.c_str(), &end);
                if (end == s.c_str() || *end != '\0' || days < 0.0)
                    support::fatal("--cache-gc: \"%s\" is not a "
                                   "non-negative day count", s.c_str());
                cache_gc_days = days;
            } else if (arg == "--cache-max-mb") {
                const std::string s = value();
                char* end = nullptr;
                const double mb = std::strtod(s.c_str(), &end);
                if (end == s.c_str() || *end != '\0' || mb < 0.0)
                    support::fatal("--cache-max-mb: \"%s\" is not a "
                                   "non-negative megabyte count",
                                   s.c_str());
                cache_max_mb = mb;
            } else if (bench::parse_obs_flag(obs_cli, argc, argv, i)) {
                // handled
            } else if (arg == "--list-opts") {
                for (const driver::OptionSet& o :
                     driver::builtin_option_sets())
                    std::printf("%s\n", o.name.c_str());
                return 0;
            } else {
                return usage(argv[0]);
            }
        } catch (const support::UserError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }

    // Noisy links without a purification target would only lower the
    // fidelity estimate; assume the conventional 0.99 target so the
    // latency/EPR-cost consequences show up too. A degraded fiber
    // declared via --link-fidelity-override is just as noisy as the
    // uniform axis saying so.
    const bool any_noisy =
        std::any_of(grid.link_fidelities.begin(),
                    grid.link_fidelities.end(),
                    [](double f) { return f < 1.0; }) ||
        std::any_of(grid.link_fidelity_overrides.begin(),
                    grid.link_fidelity_overrides.end(),
                    [](const driver::LinkValue& o) {
                        return o.value < 1.0;
                    });
    if (any_noisy && !target_given) {
        grid.target_fidelities = {0.99};
        support::inform("--link-fidelity < 1 with no --target-fidelity; "
                        "assuming a 0.99 purification target");
    }

    if ((merge || !merge_from.empty() || cache_stats ||
         cache_gc_days.has_value() || cache_max_mb.has_value()) &&
        cache_dir.empty()) {
        std::fprintf(stderr, "error: --merge/--merge-from/--cache-stats/"
                     "--cache-gc/--cache-max-mb need --cache-dir\n");
        return 2;
    }
    if (merge && shard) {
        std::fprintf(stderr, "error: --merge assembles the full grid; it "
                     "cannot be combined with --shard\n");
        return 2;
    }
    if (merge && verify) {
        std::fprintf(stderr, "error: --merge compiles nothing, so there "
                     "is no thread-count behavior for --verify to "
                     "check\n");
        return 2;
    }

    bench::apply_obs_cli(obs_cli);

    std::optional<cache::ResultStore> store;
    std::vector<driver::SweepCell> cells = grid.cells();
    std::vector<driver::SweepRow> rows;
    try {
        if (!cache_dir.empty())
            store.emplace(cache_dir);
        for (const std::string& src : merge_from) {
            const std::size_t n = store->merge_from(src);
            support::inform("imported %zu entries from %s", n,
                            src.c_str());
        }

        if (merge) {
            std::printf("== Compilation sweep: assembling %zu cells from "
                        "the cache at %s ==\n", cells.size(),
                        store->dir().c_str());
            rows = cache::assemble(cells, *store);
            store->compact();
        } else {
            if (shard) {
                const std::size_t full = cells.size();
                cells = cache::shard_filter(cells, *shard);
                std::printf("== Shard %d/%d: %zu of %zu cells ==\n",
                            shard->index, shard->count, cells.size(),
                            full);
            }
            std::printf("== Compilation sweep: %zu cells on %zu threads "
                        "==\n", cells.size(), sweep_opts.num_threads);
            if (store)
                sweep_opts.store = &*store;
            rows = driver::run_sweep(cells, sweep_opts);

            if (verify) {
                driver::SweepOptions single = sweep_opts;
                single.num_threads = 1;
                // The verification run must actually recompile: serving
                // it from the store the first run just filled would make
                // the comparison vacuous.
                single.store = nullptr;
                const std::vector<driver::SweepRow> serial =
                    driver::run_sweep(cells, single);
                if (driver::sweep_csv(rows).to_string() !=
                    driver::sweep_csv(serial).to_string()) {
                    std::fprintf(stderr, "error: --verify FAILED: "
                                 "%zu-thread and 1-thread sweeps "
                                 "disagree\n", sweep_opts.num_threads);
                    return 1;
                }
                std::printf("--verify OK: %zu-thread CSV identical to "
                            "1-thread CSV\n", sweep_opts.num_threads);
            }
            if (store)
                store->flush();
        }
        if (cache_gc_days) {
            const std::size_t before = store->size();
            const std::size_t dropped = store->gc(*cache_gc_days);
            std::printf("cache-gc: dropped %zu of %zu entries older "
                        "than %g days; store compacted\n", dropped,
                        before, *cache_gc_days);
        }
        if (cache_max_mb) {
            const std::size_t before = store->size();
            const std::size_t dropped = store->gc_to_bytes(
                static_cast<std::size_t>(*cache_max_mb * 1024.0 * 1024.0));
            std::printf("cache-max-mb: evicted %zu of %zu entries to fit "
                        "%g MB; store compacted\n", dropped, before,
                        *cache_max_mb);
        }
    } catch (const support::UserError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    if (cache_stats)
        std::printf("cache-stats: %s\n", store->stats_line().c_str());

    support::Table t(grid.with_baseline
        ? std::vector<std::string>{"Cell", "#gate", "#REM CX", "Tot Comm",
            "TP-Comm", "Peak #REM CX", "Makespan", "Hops", "Raw EPR",
            "Fidelity", "Improv.", "LAT-DEC", "Time (s)"}
        : std::vector<std::string>{"Cell", "#gate", "#REM CX", "Tot Comm",
            "TP-Comm", "Peak #REM CX", "Makespan", "Hops", "Raw EPR",
            "Fidelity", "Time (s)"});
    double total_seconds = 0;
    std::size_t failures = 0;
    for (const driver::SweepRow& r : rows) {
        t.start_row();
        t.add(r.cell.label());
        if (!r.ok) {
            ++failures;
            std::fprintf(stderr, "error: %s: %s\n", r.cell.label().c_str(),
                         r.error.c_str());
            continue;
        }
        t.add(r.stats.total_gates);
        t.add(r.remote_cx);
        t.add(r.metrics.total_comms);
        t.add(r.metrics.tp_comms);
        t.add(r.metrics.peak_rem_cx, 1);
        t.add(r.schedule.makespan, 1);
        t.add(r.schedule.hops_total);
        t.add(r.schedule.epr_raw_pairs);
        t.add(r.schedule.program_fidelity(), 4);
        if (r.factors) {
            t.add(r.factors->improv_factor, 2);
            t.add(r.factors->lat_dec_factor, 2);
        } else if (grid.with_baseline) {
            t.add("-");
            t.add("-");
        }
        t.add(r.compile_seconds, 3);
        total_seconds += r.compile_seconds;
    }
    t.print();
    std::printf("\n%zu cells, %zu failed, %.3f s total compile time "
                "(%zu threads)\n", rows.size(), failures, total_seconds,
                sweep_opts.num_threads);

    if (!csv_path.empty()) {
        driver::sweep_csv(rows).write_file(csv_path);
    } else if (auto dir = bench::csv_dir()) {
        driver::sweep_csv(rows).write_file(*dir + "/sweep.csv");
    }
    bench::finish_obs_cli(obs_cli);
    return failures == 0 ? 0 : 1;
}

/**
 * @file
 * perfbench: the compiler's benchmark. Runs one named workload through
 * driver::run_sweep and prints its metrics, the last stdout line being a
 * JSON object {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--out-dir DIR]
 *   perfbench --self-test
 *
 * Run it from the directory holding BENCHMARK.json, which the self-test
 * at the start of every run checks the printed metrics against.
 *
 * --trace 0 measures the end-to-end metrics with obs recording off.
 * --trace 1 reports the per-layer metrics: it times the production path
 * serially, in parallel, and with obs recording on, and replays the
 * workload through each layer's public function with spans around every
 * call (written to DIR/spans-<workload>-seed<N>.json).
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>

#include "bench.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace {

using namespace perfbench;
namespace ac = autocomm;
using Clock = std::chrono::steady_clock;
using autocomm::cache::Json;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 2022;
    double seconds = 10;
    bool trace = false;
    bool self_test_only = false;
    std::string out_dir = ".";
};

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            a.self_test_only = true;
            continue;
        }
        if (i + 1 >= argc)
            ac::support::fatal("%s requires a value", flag.c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
            if (!(a.seconds > 0))
                ac::support::fatal("--seconds must be positive");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                ac::support::fatal("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--out-dir") {
            a.out_dir = v;
        } else {
            ac::support::fatal("unknown flag %s", flag.c_str());
        }
    }
    if (!a.self_test_only && a.workload.empty())
        ac::support::fatal("--workload is required");
    return a;
}

/** Fail unless the self-test passes against BENCHMARK.json. */
void
require_self_test()
{
    const char* spec_path = "BENCHMARK.json";
    std::ifstream in(spec_path);
    if (!in)
        ac::support::fatal("cannot read %s", spec_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const std::optional<Json> spec = Json::parse(text.str(), &error);
    if (!spec)
        ac::support::fatal("%s: %s", spec_path, error.c_str());
    const std::string why = self_test(*spec);
    if (!why.empty())
        ac::support::fatal("self-test failed: %s", why.c_str());
}

/** Cells attempted and failed across every row the run checked. */
struct Tally
{
    const Workload* w = nullptr;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void check(const std::vector<SweepRow>& rows,
               const std::vector<SweepRow>& reference = {})
    {
        attempted += rows.size();
        failed += count_failed(*w, rows, reference);
    }
};

void
print_spread(const char* name, const char* unit,
             const std::vector<double>& v)
{
    if (v.size() < 2) {
        std::printf("%s: %.6g %s (1 sample)\n", name, v.at(0), unit);
        return;
    }
    const std::vector<double> q = quartiles(v);
    std::printf("%s: median %.6g %s over %zu samples (q1 %.6g, q3 %.6g)\n",
                name, median(v), unit, v.size(), q[0], q[2]);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/** Quality metrics over the rows that pass the gate (a failing row is
 * already counted in `failed`). */
void
quality_metrics(const std::vector<SweepRow>& rows,
                std::map<std::string, double>& out)
{
    double pairs = 0, raw = 0, log_makespan = 0, log_fidelity = 0;
    double comm = 0, latency = 0;
    std::size_t n = 0, with_factors = 0;
    for (const SweepRow& r : rows) {
        if (!row_failure(r).empty())
            continue;
        ++n;
        pairs += static_cast<double>(r.schedule.epr_pairs);
        raw += static_cast<double>(r.schedule.epr_raw_pairs);
        log_makespan += std::log(r.schedule.makespan);
        log_fidelity += r.schedule.ledger.log_fidelity();
        if (r.factors) {
            ++with_factors;
            comm += 1.0 - 1.0 / r.factors->improv_factor;
            latency += 1.0 - 1.0 / r.factors->lat_dec_factor;
        }
    }
    const double cells = static_cast<double>(std::max<std::size_t>(n, 1));
    const double fcells =
        static_cast<double>(std::max<std::size_t>(with_factors, 1));
    out["epr_pairs_total"] = pairs;
    out["epr_raw_total"] = raw;
    out["makespan_geomean"] = std::exp(log_makespan / cells);
    // Per consumed pair: a program's fidelity is a product over thousands
    // of pairs, so its geomean moves by a fifth between seeds while the
    // per-pair mean stays put.
    out["epr_fidelity_geomean"] =
        std::exp(log_fidelity / std::max(pairs, 1.0));
    out["comm_reduction_pct"] = 100.0 * comm / fcells;
    out["latency_reduction_pct"] = 100.0 * latency / fcells;
}

/**
 * The Ferrari comparison for a workload whose timed cells do not run
 * the baseline: the same cells with the baseline on, untimed. Their
 * AutoComm results must equal @p reference's; returns rows carrying the
 * factors.
 */
std::vector<SweepRow>
with_ferrari(const Workload& w, const std::vector<SweepRow>& reference,
             std::size_t threads, const std::string& out_dir, Tally& tally)
{
    Workload b = w;
    b.shape = Shape::Sweep;
    for (SweepCell& c : b.cells)
        c.with_baseline = true;
    std::vector<SweepRow> rows = run_iteration(b, threads, out_dir);
    std::vector<SweepRow> plain = rows;
    for (SweepRow& r : plain) {
        r.cell.with_baseline = false;
        r.factors.reset();
    }
    tally.attempted += rows.size();
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (!row_failure(rows[i]).empty() ||
            !rows_equal(plain[i], reference.at(i)))
            ++tally.failed;
    return rows;
}

int
run_end_to_end(const Args& a, std::size_t threads,
               Clock::time_point process_start)
{
    // Set-up: build the cells and run one warm-up iteration, three times;
    // the first also covers process start and the self-test.
    Workload w;
    Tally tally;
    std::vector<SweepRow> reference;
    std::vector<double> setups;
    std::size_t timed_threads = threads;
    for (int k = 0; k < 3; ++k) {
        const Clock::time_point t0 = k == 0 ? process_start : Clock::now();
        w = make_workload(a.workload, a.seed);
        tally.w = &w;
        if (w.threads != 0)
            timed_threads = w.threads;
        std::vector<SweepRow> rows =
            run_iteration(w, timed_threads, a.out_dir);
        setups.push_back(seconds_since(t0));
        tally.check(rows, reference);
        if (k == 0)
            reference = std::move(rows);
    }

    std::vector<double> rates;
    const Clock::time_point begin = Clock::now();
    while (rates.size() < 3 || seconds_since(begin) < a.seconds) {
        const Clock::time_point t0 = Clock::now();
        const std::vector<SweepRow> rows =
            run_iteration(w, timed_threads, a.out_dir);
        rates.push_back(static_cast<double>(rows.size()) / seconds_since(t0));
        tally.check(rows, reference);
    }
    const double rss = peak_rss_mb();

    // Untimed checks: the 1-thread rows equal the N-thread rows, and the
    // Ferrari comparison where the timed cells do not run it.
    tally.check(run_iteration(w, timed_threads == 1 ? threads : 1, a.out_dir),
                reference);
    std::vector<SweepRow> quality(reference.begin(),
                                  reference.begin() +
                                      static_cast<long>(w.cells.size()));
    if (!w.cells.front().with_baseline)
        quality = with_ferrari(w, quality, threads, a.out_dir, tally);

    std::map<std::string, double> m;
    m["setup_s"] = median(setups);
    m["cells_per_s"] = median(rates);
    m["peak_rss_mb"] = rss;
    quality_metrics(quality, m);

    print_spread("setup_s", "s", setups);
    print_spread("cells_per_s", "cells/s", rates);
    for (const MetricDecl& d : end_to_end_metrics())
        std::printf("%s = %.10g %s\n", d.name, m.at(d.name), d.unit);
    std::printf("%s\n",
                result_line(tally.failed == 0, tally.attempted, tally.failed,
                            end_to_end_metrics(), m)
                    .c_str());
    return 0;
}

/** Spans of every replay round as JSON, times in microseconds from the
 * first span. */
void
write_spans(const std::string& path, const Workload& w,
            const std::vector<std::vector<Span>>& rounds)
{
    std::uint64_t origin = UINT64_MAX;
    for (const auto& spans : rounds)
        for (const Span& s : spans)
            origin = std::min(origin, s.start_ns);
    Json cells = Json::array();
    for (const SweepCell& c : w.cells)
        cells.push_back(Json::string(c.label()));
    Json list = Json::array();
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        for (const Span& s : rounds[r]) {
            Json e = Json::object();
            e.set("round", Json::number(static_cast<long long>(r)));
            e.set("name", Json::string(s.name));
            e.set("start_us", Json::number(
                                  static_cast<double>(s.start_ns - origin) /
                                  1e3));
            e.set("end_us", Json::number(
                                static_cast<double>(s.end_ns - origin) / 1e3));
            e.set("parent", Json::number(static_cast<long long>(s.parent)));
            e.set("cell", Json::number(static_cast<long long>(s.cell)));
            list.push_back(std::move(e));
        }
    }
    Json doc = Json::object();
    doc.set("workload", Json::string(w.name));
    doc.set("cells", std::move(cells));
    doc.set("spans", std::move(list));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out)
        ac::support::fatal("cannot write %s", path.c_str());
}

/** Spans that are not layer work: per-program/per-cell wrappers (their
 * self time is unexplained driver time) and the verify oracles. */
bool
is_layer_span(const std::string& name)
{
    return name != "driver.program" && name != "driver.cell" &&
           name != "verify.check";
}

int
run_traced(const Args& a, std::size_t threads)
{
    const Workload w = make_workload(a.workload, a.seed);
    Tally tally{&w};
    const std::size_t n = w.cells.size();
    // Warm-up, and the untraced rows every later output must equal.
    const std::vector<SweepRow> reference =
        run_iteration(w, threads, a.out_dir);
    tally.check(reference);

    std::vector<double> off_s, on_s, serial_s, coverage, cell_ms;
    std::map<std::string, std::vector<double>> layer_ms;
    std::vector<std::vector<Span>> rounds;
    Replay replay;
    const Clock::time_point begin = Clock::now();
    while (rounds.empty() || seconds_since(begin) < a.seconds) {
        Clock::time_point t0 = Clock::now();
        std::vector<SweepRow> rows = run_iteration(w, threads, a.out_dir);
        off_s.push_back(seconds_since(t0));
        tally.check(rows, reference);

        // Stats recording on (what --stats-out turns on); its records are
        // dropped after each timing so memory stays flat.
        ac::obs::set_enabled(true);
        t0 = Clock::now();
        rows = run_iteration(w, threads, a.out_dir);
        on_s.push_back(seconds_since(t0));
        ac::obs::set_enabled(false);
        ac::obs::reset();
        ac::obs::Registry::instance().reset();
        tally.check(rows, reference);

        t0 = Clock::now();
        rows = run_iteration(w, 1, a.out_dir);
        serial_s.push_back(seconds_since(t0));
        tally.check(rows, reference);
        for (std::size_t i = 0; i < n; ++i)
            cell_ms.push_back(rows[i].compile_seconds * 1e3);

        replay = traced_replay(w, a.out_dir);
        tally.check(replay.rows, reference);
        double layer_total = 0;
        for (const auto& [name, ms] : self_ms(replay.spans)) {
            layer_ms[name].push_back(ms);
            if (is_layer_span(name))
                layer_total += ms;
        }
        coverage.push_back(layer_total / (serial_s.back() * 1e3));
        rounds.push_back(std::move(replay.spans));
    }
    write_spans(a.out_dir + "/spans-" + w.name + "-seed" +
                    std::to_string(a.seed) + ".json",
                w, rounds);

    std::map<std::string, double> m = replay.counts;
    for (const MetricDecl& d : per_layer_metrics()) {
        const std::string name = d.name;
        if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
            const auto it = layer_ms.find(name.substr(0, name.size() - 3));
            m[name] = it == layer_ms.end() ? 0.0 : median(it->second);
        }
    }
    const double off = median(off_s);
    m["driver.serial_ms"] = median(serial_s) * 1e3;
    m["driver.parallel_efficiency"] =
        median(serial_s) / (static_cast<double>(threads) * off);
    m["obs.overhead_ratio"] = median(on_s) / off;
    m["driver.trace_coverage"] = median(coverage);
    // Each cell's serial compile time (run_cell_prepared's share, the
    // shared preparation excluded) and the highest percentile with at
    // least ten samples beyond it, but not below the median; the maximum
    // when there are ten samples or fewer.
    const std::size_t samples = cell_ms.size();
    const double p_hi =
        samples > 10
            ? std::max(50.0, std::floor(100.0 *
                                        static_cast<double>(samples - 10) /
                                        static_cast<double>(samples)))
            : 100.0;
    m["driver.cell_p50_ms"] = percentile(cell_ms, 50);
    m["driver.cell_hi_ms"] = percentile(cell_ms, p_hi);

    std::printf("threads %zu, %zu rounds\n", threads, rounds.size());
    print_spread("off_s", "s", off_s);
    print_spread("obs_on_s", "s", on_s);
    print_spread("serial_s", "s", serial_s);
    std::printf("driver.cell_hi_ms is p%.0f of %zu cell samples\n", p_hi,
                samples);
    for (const MetricDecl& d : per_layer_metrics())
        std::printf("%s = %.10g %s\n", d.name, m.at(d.name), d.unit);
    const bool correct = tally.failed == 0 && m.at("verify.violations") == 0;
    std::printf("%s\n", result_line(correct, tally.attempted, tally.failed,
                                    per_layer_metrics(), m)
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Clock::time_point process_start = Clock::now();
    try {
        ac::support::set_log_level(ac::support::LogLevel::Warn);
        const Args a = parse_args(argc, argv);
        require_self_test();
        if (a.self_test_only) {
            std::printf("self-test OK\n");
            return 0;
        }
        const std::size_t threads = std::clamp<std::size_t>(
            std::thread::hardware_concurrency(), 1, 4);
        return a.trace ? run_traced(a, threads)
                       : run_end_to_end(a, threads, process_start);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

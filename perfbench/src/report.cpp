#include <algorithm>
#include <cmath>
#include <limits>

#include "bench.hpp"
#include "support/log.hpp"

namespace perfbench {

using autocomm::cache::Json;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::vector<double> out;
    for (long i = 1; i < 4; ++i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out.push_back((v[j - 1] * (4 - delta) + v[j] * delta) / 4.0);
    }
    return out;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

const std::vector<MetricDecl>&
end_to_end_metrics()
{
    static const std::vector<MetricDecl> decls = {
        {"setup_s", "s"},
        {"cells_per_s", "cells/s"},
        {"peak_rss_mb", "MB"},
        {"epr_pairs_total", "pairs"},
        {"epr_raw_total", "pairs"},
        {"makespan_geomean", "CX"},
        {"epr_fidelity_geomean", "fidelity"},
        {"comm_reduction_pct", "%"},
        {"latency_reduction_pct", "%"},
    };
    return decls;
}

const std::vector<MetricDecl>&
per_layer_metrics()
{
    static const std::vector<MetricDecl> decls = {
        {"circuits.generate_ms", "ms"},
        {"qir.decompose_ms", "ms"},
        {"qir.gates", "gates"},
        {"partition.graph_ms", "ms"},
        {"partition.oee_ms", "ms"},
        {"partition.cut_weight", "gates"},
        {"multilevel.map_ms", "ms"},
        {"multilevel.cut_weight", "gates"},
        {"autocomm.aggregate_ms", "ms"},
        {"autocomm.blocks", "count"},
        {"autocomm.remote_gates", "gates"},
        {"autocomm.rem_cx_per_comm", "CX/comm"},
        {"autocomm.assign_ms", "ms"},
        {"autocomm.cat_share", "ratio"},
        {"autocomm.reorder_ms", "ms"},
        {"autocomm.schedule_ms", "ms"},
        {"autocomm.hops_total", "hops"},
        {"autocomm.purify_rounds", "count"},
        {"autocomm.detours", "count"},
        {"autocomm.teleports", "count"},
        {"autocomm.fused_links", "count"},
        {"baseline.ferrari_ms", "ms"},
        {"cache.open_ms", "ms"},
        {"cache.lookup_ms", "ms"},
        {"cache.insert_ms", "ms"},
        {"cache.flush_ms", "ms"},
        {"cache.bytes", "bytes"},
        {"cache.hit_ratio", "ratio"},
        {"driver.preparations", "count"},
        {"driver.cells_per_preparation", "cells"},
        {"driver.serial_ms", "ms"},
        {"driver.parallel_efficiency", "ratio"},
        {"driver.cell_p50_ms", "ms"},
        {"driver.cell_hi_ms", "ms"},
        {"driver.trace_coverage", "ratio"},
        {"obs.overhead_ratio", "ratio"},
        {"verify.violations", "count"},
        {"verify.check_ms", "ms"},
    };
    return decls;
}

std::string
result_line(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<MetricDecl>& decls,
            const std::map<std::string, double>& values)
{
    Json metrics = Json::object();
    for (const MetricDecl& d : decls) {
        const auto it = values.find(d.name);
        if (it == values.end())
            autocomm::support::fatal("metric %s was not measured", d.name);
        if (!std::isfinite(it->second))
            autocomm::support::fatal("metric %s is not finite", d.name);
        Json m = Json::object();
        m.set("value", Json::number(it->second));
        m.set("unit", Json::string(d.unit));
        metrics.set(d.name, std::move(m));
    }
    Json doc = Json::object();
    doc.set("correct", Json::boolean(correct));
    doc.set("attempted",
            Json::number(static_cast<unsigned long long>(attempted)));
    doc.set("failed", Json::number(static_cast<unsigned long long>(failed)));
    doc.set("metrics", std::move(metrics));
    return doc.dump();
}

namespace {

/** Problem with @p key of @p spec against @p decls and the printer. */
std::string
check_declared(const Json& spec, const char* key,
               const std::vector<MetricDecl>& decls)
{
    const Json* list = spec.find(key);
    if (list == nullptr || !list->is_array())
        return std::string("BENCHMARK.json has no \"") + key + "\" list";
    std::map<std::string, std::string> declared;
    for (const Json& m : list->items())
        declared[m.at("name").to_string()] = m.at("unit").to_string();
    std::map<std::string, std::string> measured;
    std::map<std::string, double> values;
    for (const MetricDecl& d : decls) {
        measured[d.name] = d.unit;
        values[d.name] = 1.0;
    }
    if (declared != measured)
        return std::string("the ") + key +
               " metrics measured differ from BENCHMARK.json's";

    const std::optional<Json> line =
        Json::parse(result_line(true, 1, 0, decls, values));
    if (!line)
        return std::string("the ") + key + " result line is not JSON";
    const Json& printed = line->at("metrics");
    if (printed.members().size() != declared.size())
        return std::string("the ") + key + " result line has extra metrics";
    for (const auto& [name, unit] : declared) {
        const Json* m = printed.find(name);
        if (m == nullptr || m->at("unit").to_string() != unit)
            return "the result line misses " + name + " in " + unit;
    }
    return {};
}

} // namespace

std::string
self_test(const Json& benchmark_json)
{
    SweepRow sound;
    sound.ok = true;
    sound.schedule.makespan = 10.0;
    if (!row_failure(sound).empty())
        return "the gate rejects a sound row: " + row_failure(sound);

    SweepRow inf_row = sound;
    inf_row.schedule.makespan = std::numeric_limits<double>::infinity();
    if (row_failure(inf_row).empty() || count_failed(Workload{}, {sound, inf_row}) != 1)
        return "the gate passes an ok=1, makespan=inf row";

    SweepRow not_ok = sound;
    not_ok.ok = false;
    if (row_failure(not_ok).empty())
        return "the gate passes an ok=0 row";

    std::string why =
        check_declared(benchmark_json, "end_to_end", end_to_end_metrics());
    if (why.empty())
        why = check_declared(benchmark_json, "per_layer", per_layer_metrics());
    return why;
}

} // namespace perfbench

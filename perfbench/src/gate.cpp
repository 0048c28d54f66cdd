#include <cmath>
#include <optional>
#include <tuple>

#include "bench.hpp"

namespace perfbench {

namespace {

/** A quality number that may be neither non-finite nor negative. */
bool
bad(double v)
{
    return !std::isfinite(v) || v < 0.0;
}

std::string
factors_failure(const std::optional<autocomm::baseline::RelativeFactors>& f,
                const char* which)
{
    if (f && (bad(f->improv_factor) || bad(f->lat_dec_factor)))
        return std::string(which) + " factors non-finite or negative";
    return {};
}

} // namespace

std::string
row_failure(const SweepRow& row)
{
    // row.ok alone is not trusted: a row can claim success while its
    // schedule carries an infinite makespan.
    if (!row.ok)
        return "not ok: " + row.error;
    const auto& s = row.schedule;
    if (bad(s.makespan))
        return "makespan non-finite or negative";
    if (bad(row.metrics.peak_rem_cx))
        return "peak_rem_cx non-finite or negative";
    for (const double x : row.metrics.per_comm_cx)
        if (bad(x))
            return "per_comm_cx entry non-finite or negative";
    if (!std::isfinite(s.ledger.log_fidelity()))
        return "log fidelity non-finite";
    const double f = s.program_fidelity();
    if (!(f > 0.0 && f <= 1.0))
        return "program fidelity outside (0, 1]";
    std::string why = factors_failure(row.factors, "Ferrari");
    if (why.empty())
        why = factors_failure(row.gptp_factors, "GP-TP");
    return why;
}

bool
rows_equal(const SweepRow& a, const SweepRow& b)
{
    // Every result field the cache serializes (cache::row_to_json),
    // compared directly: serializing costs more than the compile.
    auto scalars = [](const SweepRow& r) {
        const auto& s = r.stats;
        const auto& m = r.metrics;
        const auto& sc = r.schedule;
        return std::make_tuple(
            r.ok, s.total_gates, s.single_qubit_gates, s.two_qubit_gates,
            s.cx_gates, s.three_qubit_gates, s.measurements, s.depth,
            r.remote_cx, m.remote_gates, m.num_blocks, m.total_comms,
            m.tp_comms, m.cat_comms, m.peak_rem_cx, sc.makespan,
            sc.epr_pairs, sc.teleports, sc.fused_links, sc.hops_total,
            sc.epr_raw_pairs, sc.purify_rounds, sc.detours,
            sc.ledger.total(), sc.ledger.raw_total(),
            sc.ledger.log_fidelity());
    };
    auto same_factors =
        [](const std::optional<autocomm::baseline::RelativeFactors>& x,
           const std::optional<autocomm::baseline::RelativeFactors>& y) {
            return x.has_value() == y.has_value() &&
                   (!x || (x->improv_factor == y->improv_factor &&
                           x->lat_dec_factor == y->lat_dec_factor));
        };
    return scalars(a) == scalars(b) && a.error == b.error &&
           a.metrics.per_comm_cx == b.metrics.per_comm_cx &&
           a.metrics.block_sizes == b.metrics.block_sizes &&
           a.schedule.ledger.per_link() == b.schedule.ledger.per_link() &&
           a.schedule.ledger.raw_per_link() ==
               b.schedule.ledger.raw_per_link() &&
           same_factors(a.factors, b.factors) &&
           same_factors(a.gptp_factors, b.gptp_factors) &&
           a.cell.label() == b.cell.label();
}

std::size_t
count_failed(const Workload& w, const std::vector<SweepRow>& rows,
             const std::vector<SweepRow>& reference)
{
    const std::size_t n = w.cells.size();
    std::size_t failed = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        bool differs = !reference.empty() &&
                       (i >= reference.size() ||
                        !rows_equal(rows[i], reference[i]));
        // A warm cache row must equal the cold row it was stored from.
        if (w.shape == Shape::CacheRoundtrip && i >= n)
            differs = differs || !rows_equal(rows[i], rows[i - n]);
        if (differs || !row_failure(rows[i]).empty())
            ++failed;
    }
    return failed;
}

} // namespace perfbench

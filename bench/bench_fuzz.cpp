/**
 * @file
 * Differential circuit fuzzer: drive seeded random circuits through the
 * AutoComm pipeline, the Ferrari per-gate baseline, and the GP-TP
 * baseline across a topology x noise matrix, and hold every result to
 * the independent invariant checkers of src/verify — EPR-ledger
 * conservation, slot/bandwidth occupancy bounds, cross-compiler
 * relations (aggregation never loses to per-gate compilation), and
 * makespan monotonicity (noisy links and longer routes never speed a
 * deterministically scheduled program up).
 *
 * The matrix covers three topologies, each clean, uniformly noisy, and
 * noisy with one degraded bandwidth-capped fiber (the per-link-override
 * scheduling paths); `--shape` swaps the homogeneous machine for
 * heterogeneous node capacities, with the shared OEE mapping derived
 * from the same shape.
 *
 *   bench_fuzz                         # default: seeds 0..50
 *   bench_fuzz --seeds 0..200 --qubits 20 --depth 30 --nodes 5
 *   bench_fuzz --seeds 137..138        # replay one failing seed
 *   bench_fuzz --shape 2x4,2x12        # heterogeneous nodes
 *
 * On the first violation the offending circuit is dumped as QASM next
 * to a full diagnostic report, a replay command is printed, and the
 * exit status is nonzero — wire it into CI and a red run hands you the
 * repro. All randomness flows through support::Rng from the seed, so a
 * failing seed reproduces bit-identically on every platform.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "baseline/gptp.hpp"
#include "common.hpp"
#include "obs/decision.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "partition/oee.hpp"
#include "qir/decompose.hpp"
#include "qir/qasm.hpp"
#include "support/log.hpp"
#include "support/threadpool.hpp"
#include "verify/check.hpp"
#include "verify/random_circuit.hpp"

namespace {

using namespace autocomm;

/** One cell of the scenario matrix. */
struct Scenario
{
    hw::Topology topo;
    bool noisy;
    /** One fiber (node 0 <-> 1) degraded below the uniform fidelity and
     * capped to a single concurrent preparation. Exercises the per-link
     * override paths (bottleneck bandwidth, re-routing around the weak
     * fiber); excluded from the monotonicity oracles, which compare
     * uniform machines only. */
    bool weak_link = false;

    std::string
    name() const
    {
        return std::string(hw::topology_name(topo)) +
               (noisy ? "+noisy" : "") + (weak_link ? "+weaklink" : "");
    }
};

/** What a seed produced on one scenario (for the monotonicity checks). */
struct ScenarioOutcome
{
    double autocomm_makespan = 0.0;
    double ferrari_makespan = 0.0;
};

const double kMonoTol = 1e-9;

hw::Machine
make_machine(const Scenario& sc, const std::vector<int>& capacities,
             double link_fidelity, double target_fidelity)
{
    hw::Machine m = hw::Machine::from_capacities(capacities, sc.topo);
    if (sc.noisy) {
        m.link.fidelity = link_fidelity;
        m.purify.target_fidelity = target_fidelity;
    }
    if (sc.weak_link) {
        m.link.set_link_fidelity(0, 1, link_fidelity - 0.02);
        m.link.set_link_bandwidth(0, 1, 1);
        m.build_routing(); // re-route around the degraded fiber
    }
    m.validate_noise();
    return m;
}

int
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --seeds A..B     half-open seed range (default 0..50)\n"
        "  --qubits N       random-circuit width (default 16)\n"
        "  --depth N        random-circuit layers (default 24)\n"
        "  --nodes N        machine node count (default 4)\n"
        "  --shape SPEC     heterogeneous node capacities (\"2x4,2x12\" = "
        "two 4-qubit\n"
        "                   and two 12-qubit nodes); overrides --nodes\n"
        "  --link-fidelity F  raw fidelity of the noisy scenarios "
        "(default 0.95)\n"
        "  --target F       purification target of the noisy scenarios "
        "(default 0.99)\n"
        "  --ccx            include Toffoli gates in the mix\n"
        "  --threads N      worker threads\n"
        "  --dump-dir DIR   where failing-seed repros are written "
        "(default .)\n"
        "  --emit-qasm PATH write the first seed's circuit as OpenQASM "
        "and exit\n"
        "                   (feed it back via bench_sweep --families "
        "qasm:PATH)\n"
        "  --trace-out FILE write a Chrome trace-event JSON of the "
        "fuzz run\n"
        "  --stats-out FILE write per-pass latency percentiles and "
        "counters as JSON\n"
        "  --explain-out FILE write the decision explain report as "
        "JSON\n"
        "  --explain-top N  payload samples kept per decision bucket\n"
        "  --ring N         keep only the last N trace events per "
        "thread\n"
        "                   (default 4096 unless --trace-out is given; "
        "0 = unbounded)\n"
        "  --sample-ms N    sample RSS/pool gauges every N ms\n"
        "  --inject-failure report a synthetic violation on the first "
        "seed\n"
        "                   (exercises the repro + flight-recorder dump "
        "path)\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t seed_lo = 0;
    std::uint64_t seed_hi = 50;
    int qubits = 16;
    int depth = 24;
    int nodes = 4;
    double link_fidelity = 0.95;
    double target_fidelity = 0.99;
    bool ccx = false;
    std::size_t num_threads = support::default_thread_count();
    std::string dump_dir = ".";
    std::string emit_qasm;
    std::string shape;
    bool inject_failure = false;
    bench::ObsCli obs_cli;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                support::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        try {
            if (arg == "--seeds") {
                const std::string v = value();
                const std::size_t dots = v.find("..");
                unsigned long long lo = 0, hi = 0;
                if (dots == std::string::npos ||
                    std::sscanf(v.c_str(), "%llu..%llu", &lo, &hi) != 2 ||
                    lo >= hi)
                    support::fatal("--seeds: expected A..B with A < B "
                                   "(got \"%s\")",
                                   v.c_str());
                seed_lo = lo;
                seed_hi = hi;
            } else if (arg == "--qubits") {
                qubits = driver::parse_int(value(), "--qubits", 2);
            } else if (arg == "--depth") {
                depth = driver::parse_int(value(), "--depth", 1);
            } else if (arg == "--nodes") {
                nodes = driver::parse_int(value(), "--nodes", 2);
            } else if (arg == "--shape") {
                shape = value();
                hw::parse_shape(shape); // validate eagerly
            } else if (arg == "--link-fidelity") {
                link_fidelity =
                    driver::parse_fidelity(value(), "--link-fidelity");
            } else if (arg == "--target") {
                target_fidelity =
                    driver::parse_fidelity(value(), "--target");
            } else if (arg == "--ccx") {
                ccx = true;
            } else if (arg == "--threads") {
                num_threads = static_cast<std::size_t>(
                    driver::parse_int(value(), "--threads", 1));
            } else if (arg == "--dump-dir") {
                dump_dir = value();
            } else if (arg == "--emit-qasm") {
                emit_qasm = value();
            } else if (arg == "--inject-failure") {
                inject_failure = true;
            } else if (bench::parse_obs_flag(obs_cli, argc, argv, i)) {
                // handled
            } else {
                return usage(argv[0]);
            }
        } catch (const support::UserError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }

    if (!emit_qasm.empty()) {
        // Export mode: materialize the first seed's circuit so it can be
        // driven through the sweep machinery as a qasm:<path> family.
        verify::RandomCircuitOptions ropts;
        ropts.num_qubits = qubits;
        ropts.depth = depth;
        ropts.allow_ccx = ccx;
        ropts.seed = seed_lo;
        std::ofstream out(emit_qasm, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         emit_qasm.c_str());
            return 2;
        }
        out << qir::to_qasm(verify::random_circuit(ropts));
        std::printf("wrote seed %llu (%d qubits x %d layers) to %s\n",
                    static_cast<unsigned long long>(seed_lo), qubits,
                    depth, emit_qasm.c_str());
        return 0;
    }

    const std::vector<Scenario> scenarios = {
        {hw::Topology::AllToAll, false},
        {hw::Topology::AllToAll, true},
        {hw::Topology::AllToAll, true, true},
        {hw::Topology::Ring, false},
        {hw::Topology::Ring, true},
        {hw::Topology::Ring, true, true},
        {hw::Topology::Grid, false},
        {hw::Topology::Grid, true},
        {hw::Topology::Grid, true, true},
    };
    std::vector<int> capacities;
    if (shape.empty()) {
        capacities.assign(static_cast<std::size_t>(nodes),
                          (qubits + nodes - 1) / nodes);
    } else {
        capacities = hw::parse_shape(shape);
        nodes = static_cast<int>(capacities.size());
        int total = 0;
        for (const int cap : capacities)
            total += cap;
        if (total < qubits)
            support::fatal("--shape %s holds %d qubits but --qubits is "
                           "%d", shape.c_str(), total, qubits);
    }
    const std::size_t num_seeds =
        static_cast<std::size_t>(seed_hi - seed_lo);

    // Flight recorder: unless the user asked for a full trace (or set
    // --ring explicitly), keep a bounded ring of recent events so a
    // failing seed dumps its final moments at fixed memory cost.
    const char* trace_env = std::getenv("AUTOCOMM_TRACE");
    if (!obs_cli.ring.has_value() && obs_cli.trace_path.empty() &&
        (trace_env == nullptr || trace_env[0] == '\0'))
        obs_cli.ring = 4096;
    bench::apply_obs_cli(obs_cli);

    std::printf("== Differential fuzz: seeds [%llu, %llu) x %zu "
                "scenarios, %d qubits x %d layers on %d nodes%s%s ==\n",
                static_cast<unsigned long long>(seed_lo),
                static_cast<unsigned long long>(seed_hi),
                scenarios.size(), qubits, depth, nodes,
                shape.empty() ? "" : " shaped ",
                shape.empty() ? "" : shape.c_str());

    // First failing seed wins; later seeds may fail concurrently, but
    // the lowest one is the canonical repro (and the dumped QASM).
    std::mutex mu;
    std::optional<std::uint64_t> fail_seed;
    std::string fail_report;
    std::string fail_qasm;

    auto record_failure = [&](std::uint64_t seed, const std::string& rep,
                              const qir::Circuit& c) {
        std::lock_guard<std::mutex> lock(mu);
        if (fail_seed && *fail_seed <= seed)
            return;
        fail_seed = seed;
        fail_report = rep;
        fail_qasm = qir::to_qasm(c);
    };

    support::ThreadPool pool(num_threads);
    support::parallel_for(pool, num_seeds, [&](std::size_t idx) {
        const std::uint64_t seed = seed_lo + idx;
        verify::RandomCircuitOptions ropts;
        ropts.num_qubits = qubits;
        ropts.depth = depth;
        ropts.allow_ccx = ccx;
        ropts.seed = seed;
        const qir::Circuit raw = verify::random_circuit(ropts);

        std::string report;
        auto fail = [&](const std::string& where,
                        const verify::CheckReport& r) {
            if (r.ok())
                return;
            report += "[" + where + "]\n" + r.to_string();
        };

        try {
            // The generated circuit is itself a QASM source: the repro
            // dump must round-trip losslessly to be trusted.
            const std::string qasm = qir::to_qasm(raw);
            if (qir::to_qasm(qir::from_qasm(qasm)) != qasm)
                report += "[qasm-roundtrip]\nto_qasm -> from_qasm -> "
                          "to_qasm is not a fixed point\n";

            const qir::Circuit c = qir::decompose(raw);
            // OEE is topology-independent: one mapping per seed, shared
            // by every scenario, which is what makes the cross-topology
            // makespan comparison an invariant rather than a heuristic.
            // Shaped runs derive it from the same capacities every
            // scenario's machine declares, so the mapping always fits.
            const hw::QubitMapping map = partition::oee_map(
                c, hw::Machine::from_capacities(capacities));

            std::map<std::string, ScenarioOutcome> outcomes;
            for (const Scenario& sc : scenarios) {
                const hw::Machine m = make_machine(
                    sc, capacities, link_fidelity, target_fidelity);
                const pass::CompileResult ac = pass::compile(c, map, m);
                const pass::CompileResult fe =
                    baseline::compile_ferrari(c, map, m);
                const baseline::GptpResult gp =
                    baseline::compile_gptp(c, map, m);

                fail(sc.name() + "/autocomm/schedule",
                     verify::check_schedule(ac.schedule, m));
                fail(sc.name() + "/autocomm/metrics",
                     verify::check_metrics(ac.metrics, c, map));
                fail(sc.name() + "/ferrari/schedule",
                     verify::check_schedule(fe.schedule, m));
                fail(sc.name() + "/ferrari/metrics",
                     verify::check_metrics(fe.metrics, c, map));
                fail(sc.name() + "/cross", verify::check_cross(ac, fe));
                fail(sc.name() + "/gptp", verify::check_gptp(gp));

                if (!sc.weak_link)
                    outcomes[sc.name()] = {ac.schedule.makespan,
                                           fe.schedule.makespan};
            }

            // Monotonicity: the deterministic list scheduler never gets
            // faster when pair preparations only get slower — noise on
            // the same topology, or multi-hop routes vs all-to-all,
            // under the identical mapping. (GP-TP is excluded: its
            // dynamic placement may legitimately diverge per machine.)
            verify::CheckReport mono;
            auto expect_ge = [&](const std::string& slow,
                                 const std::string& fast,
                                 const char* why) {
                const ScenarioOutcome& s = outcomes.at(slow);
                const ScenarioOutcome& f = outcomes.at(fast);
                if (s.autocomm_makespan <
                    f.autocomm_makespan * (1.0 - kMonoTol))
                    mono.add("monotone-autocomm",
                             support::strprintf(
                                 "%s makespan %g < %s makespan %g (%s)",
                                 slow.c_str(), s.autocomm_makespan,
                                 fast.c_str(), f.autocomm_makespan, why));
                if (s.ferrari_makespan <
                    f.ferrari_makespan * (1.0 - kMonoTol))
                    mono.add("monotone-ferrari",
                             support::strprintf(
                                 "%s makespan %g < %s makespan %g (%s)",
                                 slow.c_str(), s.ferrari_makespan,
                                 fast.c_str(), f.ferrari_makespan, why));
            };
            for (const Scenario& sc : scenarios)
                if (sc.noisy && !sc.weak_link)
                    expect_ge(sc.name(),
                              Scenario{sc.topo, false}.name(),
                              "noise only slows preparations");
            for (bool noisy : {false, true}) {
                const std::string base =
                    Scenario{hw::Topology::AllToAll, noisy}.name();
                for (hw::Topology t :
                     {hw::Topology::Ring, hw::Topology::Grid})
                    expect_ge(Scenario{t, noisy}.name(), base,
                              "routing only adds hops");
            }
            fail("monotonicity", mono);
        } catch (const support::UserError& e) {
            report += std::string("[exception]\n") + e.what() + "\n";
        }

        if (inject_failure && seed == seed_lo)
            report += "[injected]\nsynthetic violation "
                      "(--inject-failure)\n";

        if (!report.empty())
            record_failure(seed, report, raw);
    });

    bench::finish_obs_cli(obs_cli);

    if (!fail_seed) {
        std::printf("OK: %zu seeds x %zu scenarios clean\n", num_seeds,
                    scenarios.size());
        return 0;
    }

    const std::string stem = dump_dir + "/fuzz-fail-seed" +
                             std::to_string(*fail_seed);
    std::error_code ec; // best effort; the ofstreams report real failures
    std::filesystem::create_directories(dump_dir, ec);
    {
        std::ofstream qf(stem + ".qasm", std::ios::binary);
        qf << fail_qasm;
        std::ofstream rf(stem + ".txt", std::ios::binary);
        rf << fail_report;
    }
    // The flight-recorder dump: the last events of every lane (bounded
    // by --ring) as a Chrome trace next to the QASM repro. Pools have
    // drained (parallel_for returned) and the sampler is stopped
    // (finish_obs_cli above), so collection is quiescent here.
    std::string trace_note;
    if (obs::enabled() && obs::write_chrome_trace(stem + "-trace.json"))
        trace_note = "flight recorder: " + stem + "-trace.json\n";
    // The decision explain report: why the compiler chose what it chose
    // in the failing run (counts from counters, payloads from the ring).
    if (obs::enabled() &&
        obs::write_explain_json(stem + "-explain.json"))
        trace_note += "explain report: " + stem + "-explain.json\n";
    std::fprintf(stderr,
                 "FAIL: seed %llu violated invariants\n%s"
                 "repro circuit: %s.qasm (report: %s.txt)\n%s"
                 "replay: bench_fuzz --seeds %llu..%llu --qubits %d "
                 "--depth %d --nodes %d%s%s%s\n",
                 static_cast<unsigned long long>(*fail_seed),
                 fail_report.c_str(), stem.c_str(), stem.c_str(),
                 trace_note.c_str(),
                 static_cast<unsigned long long>(*fail_seed),
                 static_cast<unsigned long long>(*fail_seed + 1), qubits,
                 depth, nodes, ccx ? " --ccx" : "",
                 shape.empty() ? "" : " --shape ",
                 shape.empty() ? "" : shape.c_str());
    return 1;
}

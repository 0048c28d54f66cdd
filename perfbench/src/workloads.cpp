#include <atomic>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.hpp"
#include "cache/store.hpp"
#include "circuits/library.hpp"
#include "support/log.hpp"

namespace perfbench {

namespace ad = autocomm::driver;
namespace ac = autocomm::circuits;

namespace {

/** The noisy ablation grid: 5 families x 3 topologies x 2 bandwidths x
 * 5 option sets = 150 cells over 5 distinct programs, so 30 cells share
 * each preparation. */
std::vector<SweepCell>
ablation_grid(int qubits, std::uint64_t seed)
{
    ad::SweepGrid g;
    g.families = {ac::Family::QFT, ac::Family::MCTR, ac::Family::QAOA,
                  ac::Family::BV, ac::Family::RCA};
    g.qubit_counts = {qubits};
    g.node_counts = {10};
    g.topologies = {autocomm::hw::Topology::AllToAll,
                    autocomm::hw::Topology::Ring,
                    autocomm::hw::Topology::Grid};
    g.link_fidelities = {0.95};
    g.target_fidelities = {0.99};
    g.link_bandwidths = {0, 2};
    g.option_sets = ad::builtin_option_sets();
    g.seed = seed;
    return g.cells();
}

} // namespace

std::vector<std::string>
workload_names()
{
    return {"paper-suite", "ablation-noisy", "large-compile",
            "cache-roundtrip"};
}

Workload
make_workload(const std::string& name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "paper-suite") {
        // Three instances of the suite: the seeded QAOA-300 alone sets
        // the critical path, and its compile time varies by up to 50%
        // between seeds, so one instance would measure the seed.
        for (std::uint64_t k = 0; k < 3; ++k) {
            std::vector<SweepCell> suite = ad::cells_from_specs(
                ac::paper_suite(), {}, seed + 1000 * k,
                /*with_baseline=*/true);
            w.cells.insert(w.cells.end(), suite.begin(), suite.end());
        }
    } else if (name == "ablation-noisy") {
        w.cells = ablation_grid(200, seed);
    } else if (name == "large-compile") {
        w.shape = Shape::OneByOne;
        w.cells = ad::cells_from_specs({{ac::Family::QAOA, 400, 20},
                                        {ac::Family::QFT, 500, 20},
                                        {ac::Family::UCCSD, 20, 4}},
                                       {}, seed);
        for (SweepCell& c : w.cells) {
            c.partitioner = autocomm::partition::Mapper::Multilevel;
            c.topology = autocomm::hw::Topology::Grid;
        }
    } else if (name == "cache-roundtrip") {
        // Serial: at 4 threads the store's serial open, load and flush
        // leave workers waiting, and the wait swung cells_per_s by a
        // quarter between runs of the same code.
        w.shape = Shape::CacheRoundtrip;
        w.threads = 1;
        w.cells = ablation_grid(100, seed);
    } else {
        autocomm::support::fatal("unknown workload \"%s\"", name.c_str());
    }
    return w;
}

std::string
fresh_dir(const std::string& scratch_dir)
{
    static std::atomic<unsigned> counter{0};
    return autocomm::support::strprintf(
        "%s/perfbench-cache-%ld-%u", scratch_dir.c_str(),
        static_cast<long>(::getpid()), counter++);
}

std::vector<SweepRow>
run_iteration(const Workload& w, std::size_t threads,
              const std::string& scratch_dir)
{
    ad::SweepOptions opts;
    opts.num_threads = threads;
    switch (w.shape) {
    case Shape::Sweep:
        return ad::run_sweep(w.cells, opts);
    case Shape::OneByOne: {
        std::vector<SweepRow> rows;
        for (const SweepCell& cell : w.cells)
            rows.push_back(std::move(ad::run_sweep({cell}, opts).at(0)));
        return rows;
    }
    case Shape::CacheRoundtrip:
        break;
    }
    // The warm run reopens the store, as a later process would, so it
    // pays for loading the segment the cold run flushed.
    const std::string dir = fresh_dir(scratch_dir);
    std::vector<SweepRow> rows;
    {
        autocomm::cache::ResultStore store(dir);
        opts.store = &store;
        rows = ad::run_sweep(w.cells, opts);
        store.flush();
    }
    {
        autocomm::cache::ResultStore store(dir);
        opts.store = &store;
        std::vector<SweepRow> warm = ad::run_sweep(w.cells, opts);
        rows.insert(rows.end(), std::make_move_iterator(warm.begin()),
                    std::make_move_iterator(warm.end()));
    }
    std::filesystem::remove_all(dir);
    return rows;
}

} // namespace perfbench

/**
 * @file
 * Tests for the multilevel topology-aware partitioner (src/multilevel)
 * and its integration as partition::Mapper:
 *
 *  - golden neutrality: the default (OEE) sweep CSV is byte-identical
 *    to the CSV captured before the partitioner subsystem landed;
 *  - randomized properties: capacities respected under arbitrary
 *    shapes, refinement never worsens the weighted cut, hop-weighted
 *    refinement never worsens the flat partition's hop cost on
 *    ring/grid/star;
 *  - determinism across thread counts (parallel boundary refinement);
 *  - the acceptance bounds: a flat cut within 10% of OEE's on a
 *    300-qubit paper-suite circuit at 10 nodes, and a strictly better
 *    hop-weighted cut than OEE on a ring.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "circuits/library.hpp"
#include "driver/sweep.hpp"
#include "hw/machine.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/cost.hpp"
#include "multilevel/initial.hpp"
#include "multilevel/partitioner.hpp"
#include "multilevel/refine.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/mapper.hpp"
#include "partition/mappers.hpp"
#include "partition/oee.hpp"
#include "qir/decompose.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace autocomm;
using partition::InteractionGraph;
using partition::Mapper;

/** A random connected-ish weighted graph for property tests. */
InteractionGraph
random_graph(int num_qubits, int num_edges, support::Rng& rng)
{
    InteractionGraph g(num_qubits);
    for (int e = 0; e < num_edges; ++e) {
        const auto a = static_cast<QubitId>(
            rng.next_below(static_cast<std::uint64_t>(num_qubits)));
        auto b = static_cast<QubitId>(
            rng.next_below(static_cast<std::uint64_t>(num_qubits)));
        if (a == b)
            b = (b + 1) % num_qubits;
        g.add_edge(a, b, static_cast<long>(rng.next_range(1, 5)));
    }
    return g;
}

/** A seeded random shape: 2..6 nodes, total capacity >= num_qubits. */
std::vector<int>
random_shape(int num_qubits, support::Rng& rng)
{
    const int k = static_cast<int>(rng.next_range(2, 6));
    std::vector<int> caps(static_cast<std::size_t>(k));
    // Base fill that always holds the register, plus random slack.
    const int per = (num_qubits + k - 1) / k;
    for (int& c : caps)
        c = per + static_cast<int>(rng.next_range(0, 4));
    return caps;
}

std::vector<long>
loads_of(const std::vector<NodeId>& part, int k)
{
    std::vector<long> load(static_cast<std::size_t>(k), 0);
    for (NodeId p : part)
        load[static_cast<std::size_t>(p)]++;
    return load;
}

// ------------------------------------------------------------ golden CSV

/**
 * The sweep CSV of the {QFT,BV} x {16,24} x {2,4} x {all_to_all,ring}
 * grid, captured from the tree immediately BEFORE the partitioner
 * subsystem landed (PR-4 state, seed 2022, default options). The
 * default partitioner must reproduce it byte-for-byte: OEE rows are
 * pinned to be unaffected by the multilevel subsystem.
 */
const char kPrePartitionerCsv[] =
    "name,options,qubits,nodes,topology,shape,link_fidelity,"
    "target_fidelity,link_bandwidth,fidelity_overrides,"
    "bandwidth_overrides,ok,error,gates,cx,rem_cx,blocks,tot_comm,"
    "tp_comm,cat_comm,peak_rem_cx,makespan,epr_pairs,hops_total,epr_raw,"
    "purify_rounds,program_fidelity,improv_factor,lat_dec_factor\n"
    "QFT-16-2,default,16,2,all_to_all,,1.000000,0.000000,0,,,1,,616,240,"
    "128,8,16,16,0,8.000000,364.500000,16,16,16,0,1.000000,0.000000,"
    "0.000000\n"
    "QFT-16-2,default,16,2,ring,,1.000000,0.000000,0,,,1,,616,240,128,8,"
    "16,16,0,8.000000,364.500000,16,16,16,0,1.000000,0.000000,0.000000\n"
    "QFT-16-4,default,16,4,all_to_all,,1.000000,0.000000,0,,,1,,616,240,"
    "192,24,48,48,0,4.000000,585.100000,48,48,48,0,1.000000,0.000000,"
    "0.000000\n"
    "QFT-16-4,default,16,4,ring,,1.000000,0.000000,0,,,1,,616,240,192,24,"
    "48,48,0,4.000000,868.100000,48,64,64,0,1.000000,0.000000,0.000000\n"
    "QFT-24-2,default,24,2,all_to_all,,1.000000,0.000000,0,,,1,,1404,552,"
    "288,12,24,24,0,12.000000,664.100000,24,24,24,0,1.000000,0.000000,"
    "0.000000\n"
    "QFT-24-2,default,24,2,ring,,1.000000,0.000000,0,,,1,,1404,552,288,"
    "12,24,24,0,12.000000,664.100000,24,24,24,0,1.000000,0.000000,"
    "0.000000\n"
    "QFT-24-4,default,24,4,all_to_all,,1.000000,0.000000,0,,,1,,1404,552,"
    "432,36,72,72,0,6.000000,987.000000,72,72,72,0,1.000000,0.000000,"
    "0.000000\n"
    "QFT-24-4,default,24,4,ring,,1.000000,0.000000,0,,,1,,1404,552,432,"
    "36,72,72,0,6.000000,1355.000000,72,96,96,0,1.000000,0.000000,"
    "0.000000\n"
    "BV-16-2,default,16,2,all_to_all,,1.000000,0.000000,0,,,1,,46,13,6,1,"
    "1,0,1,6.000000,37.400000,1,1,1,0,1.000000,0.000000,0.000000\n"
    "BV-16-2,default,16,2,ring,,1.000000,0.000000,0,,,1,,46,13,6,1,1,0,1,"
    "6.000000,37.400000,1,1,1,0,1.000000,0.000000,0.000000\n"
    "BV-16-4,default,16,4,all_to_all,,1.000000,0.000000,0,,,1,,46,13,10,"
    "3,3,0,3,4.000000,64.000000,3,3,3,0,1.000000,0.000000,0.000000\n"
    "BV-16-4,default,16,4,ring,,1.000000,0.000000,0,,,1,,46,13,10,3,3,0,"
    "3,4.000000,94.100000,3,4,4,0,1.000000,0.000000,0.000000\n"
    "BV-24-2,default,24,2,all_to_all,,1.000000,0.000000,0,,,1,,68,19,8,1,"
    "1,0,1,8.000000,33.400000,1,1,1,0,1.000000,0.000000,0.000000\n"
    "BV-24-2,default,24,2,ring,,1.000000,0.000000,0,,,1,,68,19,8,1,1,0,1,"
    "8.000000,33.400000,1,1,1,0,1.000000,0.000000,0.000000\n"
    "BV-24-4,default,24,4,all_to_all,,1.000000,0.000000,0,,,1,,68,19,14,"
    "3,3,0,3,6.000000,71.000000,3,3,3,0,1.000000,0.000000,0.000000\n"
    "BV-24-4,default,24,4,ring,,1.000000,0.000000,0,,,1,,68,19,14,3,3,0,"
    "3,6.000000,101.100000,3,4,4,0,1.000000,0.000000,0.000000\n";

TEST(MultilevelGolden, DefaultPartitionerCsvIsByteIdenticalToPrePr)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {16, 24};
    grid.node_counts = {2, 4};
    grid.topologies = {hw::Topology::AllToAll, hw::Topology::Ring};
    ASSERT_EQ(grid.partitioners,
              std::vector<Mapper>{Mapper::Oee}); // the default

    const std::string csv =
        driver::sweep_csv(driver::run_sweep(grid.cells(), {})).to_string();
    EXPECT_EQ(csv, kPrePartitionerCsv);
}

// -------------------------------------------------------------- mappers

TEST(MultilevelMapper, NamesRoundTripAndParseIsCaseInsensitive)
{
    for (Mapper m : partition::all_mappers()) {
        const auto parsed = partition::parse_mapper(mapper_name(m));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, m);
    }
    EXPECT_EQ(partition::parse_mapper("MultiLevel"), Mapper::Multilevel);
    EXPECT_EQ(partition::parse_mapper("MULTILEVEL+OEE"),
              Mapper::MultilevelOee);
    EXPECT_FALSE(partition::parse_mapper("metis").has_value());
    EXPECT_THROW(driver::parse_mapper_list("oee,metis", "--partitioner"),
                 support::UserError);
}

TEST(MultilevelMapper, OeeDispatchMatchesDirectOee)
{
    const qir::Circuit c = qir::decompose(circuits::make_benchmark(
        {circuits::Family::QFT, 24, 4}, 2022));
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    const hw::Machine m = hw::Machine::homogeneous(4, 6);
    EXPECT_EQ(partition::partition_with(Mapper::Oee, g, m),
              partition::oee_partition(g, m.capacities()));
}

// ------------------------------------------------------------- coarsen

TEST(MultilevelCoarsen, PreservesWeightAndHonorsTheVertexCap)
{
    support::Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = static_cast<int>(rng.next_range(20, 120));
        const InteractionGraph g = random_graph(n, 3 * n, rng);
        multilevel::CoarsenOptions opts;
        opts.target_vertices = 8;
        opts.max_vertex_weight = static_cast<int>(rng.next_range(2, 9));

        const std::vector<multilevel::CoarseLevel> levels =
            multilevel::coarsen(g, opts);
        int fine_n = n;
        for (const multilevel::CoarseLevel& level : levels) {
            // Every fine vertex maps somewhere, weights add up, and no
            // coarse vertex merged past the cap.
            ASSERT_EQ(static_cast<int>(level.fine_to_coarse.size()),
                      fine_n);
            long total = 0;
            for (int w : level.vertex_weight) {
                EXPECT_GE(w, 1);
                EXPECT_LE(w, opts.max_vertex_weight);
                total += w;
            }
            EXPECT_EQ(total, n);
            EXPECT_LT(level.graph.num_qubits(), fine_n); // strict shrink
            fine_n = level.graph.num_qubits();
        }
    }
}

TEST(MultilevelCoarsen, CoarseCutEqualsFineCutOfProjectedPartition)
{
    support::Rng rng(23);
    const InteractionGraph g = random_graph(60, 200, rng);
    multilevel::CoarsenOptions opts;
    opts.target_vertices = 10;
    opts.max_vertex_weight = 6;
    const std::vector<multilevel::CoarseLevel> levels =
        multilevel::coarsen(g, opts);
    ASSERT_FALSE(levels.empty());

    // Any partition of the coarsest graph, projected down, must cut
    // exactly the weight the coarse graph says it cuts (contraction
    // preserves crossing weight).
    const InteractionGraph& coarsest = levels.back().graph;
    std::vector<NodeId> coarse_part(
        static_cast<std::size_t>(coarsest.num_qubits()));
    for (std::size_t v = 0; v < coarse_part.size(); ++v)
        coarse_part[v] = static_cast<NodeId>(v % 3);

    std::vector<NodeId> fine_part = coarse_part;
    for (std::size_t li = levels.size(); li-- > 0;) {
        const std::vector<QubitId>& map = levels[li].fine_to_coarse;
        std::vector<NodeId> finer(map.size());
        for (std::size_t v = 0; v < map.size(); ++v)
            finer[v] = fine_part[static_cast<std::size_t>(map[v])];
        fine_part = std::move(finer);
    }
    EXPECT_EQ(coarsest.cut_weight(coarse_part), g.cut_weight(fine_part));
}

// ----------------------------------------------------------- properties

TEST(MultilevelProperty, CapacitiesRespectedAcrossRandomShapes)
{
    support::Rng rng(31);
    for (int trial = 0; trial < 25; ++trial) {
        const int n = static_cast<int>(rng.next_range(8, 80));
        const InteractionGraph g = random_graph(n, 2 * n, rng);
        const std::vector<int> caps = random_shape(n, rng);
        hw::Machine m = hw::Machine::from_capacities(
            caps, trial % 2 == 0 ? hw::Topology::Ring
                                 : hw::Topology::Grid);

        for (Mapper mapper : {Mapper::Multilevel, Mapper::MultilevelOee}) {
            const std::vector<NodeId> part =
                partition::partition_with(mapper, g, m);
            ASSERT_EQ(part.size(), static_cast<std::size_t>(n));
            const std::vector<long> load =
                loads_of(part, static_cast<int>(caps.size()));
            for (std::size_t p = 0; p < caps.size(); ++p)
                EXPECT_LE(load[p], caps[p])
                    << "node " << p << " over capacity (trial " << trial
                    << ", " << partition::mapper_name(mapper) << ")";
        }
    }
}

TEST(MultilevelProperty, RefineNeverWorsensTheWeightedCut)
{
    support::Rng rng(37);
    support::ThreadPool pool(4);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = static_cast<int>(rng.next_range(10, 60));
        const InteractionGraph g = random_graph(n, 3 * n, rng);
        const std::vector<int> caps = random_shape(n, rng);
        const int k = static_cast<int>(caps.size());
        hw::Machine m = hw::Machine::from_capacities(
            caps, hw::Topology::Ring);
        const multilevel::CostModel cost =
            multilevel::CostModel::from_machine(m);

        // A random feasible partition: capacity-fill then shuffle by
        // random feasible single moves.
        std::vector<NodeId> part =
            partition::capacity_fill(n, caps);
        std::vector<long> load = loads_of(part, k);
        for (int s = 0; s < 2 * n; ++s) {
            const auto v = static_cast<QubitId>(
                rng.next_below(static_cast<std::uint64_t>(n)));
            const auto q = static_cast<NodeId>(
                rng.next_below(static_cast<std::uint64_t>(k)));
            if (load[static_cast<std::size_t>(q)] + 1 <=
                caps[static_cast<std::size_t>(q)]) {
                load[static_cast<std::size_t>(
                    part[static_cast<std::size_t>(v)])]--;
                part[static_cast<std::size_t>(v)] = q;
                load[static_cast<std::size_t>(q)]++;
            }
        }

        const std::vector<int> unit(static_cast<std::size_t>(n), 1);
        const double before = multilevel::weighted_cut(g, part, cost);

        std::vector<NodeId> serial = part;
        multilevel::refine(g, unit, caps, cost, serial, {});
        const double after = multilevel::weighted_cut(g, serial, cost);
        EXPECT_LE(after, before + 1e-9);

        // Parallel gain evaluation must not change the result.
        std::vector<NodeId> parallel = part;
        multilevel::RefineOptions ropts;
        ropts.pool = &pool;
        multilevel::refine(g, unit, caps, cost, parallel, ropts);
        EXPECT_EQ(parallel, serial);

        // Loads must be unchanged-feasible after refinement.
        const std::vector<long> after_load = loads_of(serial, k);
        for (int p = 0; p < k; ++p)
            EXPECT_LE(after_load[static_cast<std::size_t>(p)],
                      caps[static_cast<std::size_t>(p)]);
    }
}

TEST(MultilevelProperty, HopAwareRefineNeverWorsensFlatPartitionHopCut)
{
    support::Rng rng(41);
    for (const hw::Topology topo :
         {hw::Topology::Ring, hw::Topology::Grid, hw::Topology::Star}) {
        for (int trial = 0; trial < 8; ++trial) {
            const int n = static_cast<int>(rng.next_range(20, 80));
            const InteractionGraph g = random_graph(n, 3 * n, rng);
            const int k = static_cast<int>(rng.next_range(3, 8));
            hw::Machine m =
                hw::Machine::homogeneous(k, (n + k - 1) / k, topo);
            const multilevel::CostModel hops =
                multilevel::CostModel::hops(m);

            // The topology-blind partition, then hop-aware refinement
            // on top: the hop-weighted cut can only improve.
            multilevel::MultilevelOptions mlopts;
            mlopts.topology_aware = false;
            std::vector<NodeId> flat = multilevel::multilevel_partition(
                g, m.capacities(), multilevel::CostModel::flat(k),
                mlopts);
            const double flat_hop_cut =
                multilevel::weighted_cut(g, flat, hops);

            std::vector<NodeId> aware = flat;
            const std::vector<int> unit(static_cast<std::size_t>(n), 1);
            multilevel::refine(g, unit, m.capacities(), hops, aware, {});
            EXPECT_LE(multilevel::weighted_cut(g, aware, hops),
                      flat_hop_cut + 1e-9)
                << hw::topology_name(topo) << " trial " << trial;
        }
    }
}

TEST(MultilevelProperty, PolishNeverWorsensTheFlatCut)
{
    support::Rng rng(43);
    for (int trial = 0; trial < 10; ++trial) {
        const int n = static_cast<int>(rng.next_range(16, 60));
        const InteractionGraph g = random_graph(n, 3 * n, rng);
        const std::vector<int> caps = random_shape(n, rng);
        hw::Machine m = hw::Machine::from_capacities(caps);

        const std::vector<NodeId> ml =
            partition::partition_with(Mapper::Multilevel, g, m);
        const std::vector<NodeId> polished =
            partition::partition_with(Mapper::MultilevelOee, g, m);
        EXPECT_LE(g.cut_weight(polished), g.cut_weight(ml))
            << "trial " << trial;
    }
}

TEST(MultilevelProperty, InsufficientCapacityThrows)
{
    support::Rng rng(47);
    const InteractionGraph g = random_graph(20, 40, rng);
    hw::Machine m = hw::Machine::from_capacities({4, 4, 4});
    EXPECT_THROW(partition::partition_with(Mapper::Multilevel, g, m),
                 support::UserError);
    EXPECT_THROW(
        multilevel::initial_partition(
            g, std::vector<int>(20, 1), {4, 4, 4},
            multilevel::CostModel::flat(3)),
        support::UserError);
}

TEST(MultilevelProperty, DeterministicAcrossThreadCountsAndRuns)
{
    const qir::Circuit c = qir::decompose(circuits::make_benchmark(
        {circuits::Family::QAOA, 100, 10}, 2022));
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    hw::Machine m = hw::Machine::homogeneous(10, 10, hw::Topology::Grid);

    const std::vector<NodeId> serial =
        multilevel::multilevel_partition(g, m);
    for (const std::size_t threads : {2u, 8u}) {
        support::ThreadPool pool(threads);
        multilevel::MultilevelOptions opts;
        opts.pool = &pool;
        EXPECT_EQ(multilevel::multilevel_partition(g, m, opts), serial)
            << threads << " threads";
    }
    EXPECT_EQ(multilevel::multilevel_partition(g, m), serial);
}

// ------------------------------------------------------ sweep integration

TEST(MultilevelSweep, MemoizedSweepMatchesPerCellRuns)
{
    // Multilevel mappings depend on the topology and noise axes, so the
    // memoized sweep must NOT share them the way OEE mappings are
    // shared; per-cell run_cell is the ground truth.
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {16};
    grid.node_counts = {4};
    grid.topologies = {hw::Topology::Ring, hw::Topology::Star};
    grid.link_fidelities = {1.0, 0.9};
    grid.target_fidelities = {0.95};
    grid.partitioners = {Mapper::Oee, Mapper::Multilevel,
                         Mapper::MultilevelOee};
    const std::vector<driver::SweepCell> cells = grid.cells();

    driver::SweepOptions opts;
    opts.num_threads = 4;
    const std::vector<driver::SweepRow> swept =
        driver::run_sweep(cells, opts);

    std::vector<driver::SweepRow> direct;
    for (const driver::SweepCell& cell : cells)
        direct.push_back(driver::run_cell(cell));
    EXPECT_EQ(driver::sweep_csv(swept).to_string(),
              driver::sweep_csv(direct).to_string());
}

TEST(MultilevelSweep, PartitionerAxisExpandsBetweenNoiseAndOptions)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::BV};
    grid.qubit_counts = {12};
    grid.node_counts = {2};
    grid.partitioners = {Mapper::Oee, Mapper::Multilevel};
    grid.option_sets = {driver::OptionSet{},
                        *driver::find_option_set("sparse")};
    const std::vector<driver::SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].label(), "BV-12-2/default");
    EXPECT_EQ(cells[1].label(), "BV-12-2/sparse");
    EXPECT_EQ(cells[2].label(), "BV-12-2/default!multilevel");
    EXPECT_EQ(cells[3].label(), "BV-12-2/sparse!multilevel");
}

// ----------------------------------------------------------- acceptance

TEST(MultilevelAcceptance, FlatCutWithinTenPercentOfOeeAt300Qubits)
{
    // On a 300-qubit paper-suite circuit at 10 nodes, the multilevel
    // flat cut must stay within 10% of OEE's. QAOA-300 is the hardest
    // partitioning instance in the suite (dense irregular interaction
    // graph).
    const qir::Circuit c = qir::decompose(circuits::make_benchmark(
        {circuits::Family::QAOA, 300, 10}, 2022));
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    hw::Machine m = hw::Machine::homogeneous(10, 30);

    const std::vector<NodeId> oee =
        partition::oee_partition(g, m.capacities());
    const std::vector<NodeId> ml =
        multilevel::multilevel_partition(g, m);

    EXPECT_LE(static_cast<double>(g.cut_weight(ml)),
              1.10 * static_cast<double>(g.cut_weight(oee)))
        << "multilevel flat cut " << g.cut_weight(ml) << " vs OEE "
        << g.cut_weight(oee);
}

TEST(MultilevelAcceptance, HopWeightedCutBeatsOeeOnARing)
{
    // Topology awareness must pay off somewhere concrete: on the ring
    // machine the hop-weighted cut of the multilevel partition is
    // strictly better than capacity-aware OEE's (which optimizes the
    // flat cut and ignores hop distances entirely).
    const qir::Circuit c = qir::decompose(circuits::make_benchmark(
        {circuits::Family::QAOA, 300, 10}, 2022));
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    hw::Machine m = hw::Machine::homogeneous(10, 30, hw::Topology::Ring);
    const multilevel::CostModel hops = multilevel::CostModel::hops(m);

    const std::vector<NodeId> oee =
        partition::oee_partition(g, m.capacities());
    const std::vector<NodeId> ml =
        multilevel::multilevel_partition(g, m);
    EXPECT_LT(multilevel::weighted_cut(g, ml, hops),
              multilevel::weighted_cut(g, oee, hops));
}

} // namespace

/**
 * @file
 * Tests for the persistent sweep-result cache (src/cache): stable
 * hashing, cell-key sensitivity to every field, JSON round trips, store
 * persistence/staleness, warm-run byte-identity with cold runs, and
 * shard-then-merge reproducing the unsharded sweep exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/hash.hpp"
#include "cache/json.hpp"
#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "circuits/qasm_source.hpp"
#include "driver/sweep.hpp"
#include "support/log.hpp"

namespace {

namespace fs = std::filesystem;
using namespace autocomm;
using cache::CellKey;
using cache::Json;
using cache::ResultStore;
using driver::SweepCell;
using driver::SweepGrid;
using driver::SweepOptions;
using driver::SweepRow;

/** A unique empty temp directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string& tag)
    {
        path = fs::temp_directory_path() /
               ("autocomm-test-" + tag + "-" +
                std::to_string(::getpid()));
        fs::remove_all(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

// ------------------------------------------------------------- hashing

TEST(CacheHash, IsStableAndSensitive)
{
    const cache::Hash128 a = cache::hash128("hello");
    EXPECT_EQ(a, cache::hash128("hello"));
    EXPECT_NE(a, cache::hash128("hellp"));
    EXPECT_NE(a, cache::hash128("hell"));
    EXPECT_NE(cache::hash128(""), cache::hash128(std::string(1, '\0')));
    EXPECT_EQ(a.hex().size(), 32u);
    EXPECT_EQ(cache::hash128("").hex().size(), 32u);
}

TEST(CacheHash, PermutedInputsDiffer)
{
    // The two lanes must not collapse on reordered bytes.
    EXPECT_NE(cache::hash128("ab"), cache::hash128("ba"));
    EXPECT_NE(cache::hash128("abc"), cache::hash128("cba"));
}

// ------------------------------------------------------------ cell keys

TEST(CacheKey, EveryCellFieldChangesTheKey)
{
    SweepCell base;
    base.spec = {circuits::Family::QFT, 16, 4};

    const std::string h0 = cache::cell_key(base).hex();
    EXPECT_EQ(h0, cache::cell_key(base).hex()); // deterministic

    std::vector<SweepCell> mutants;
    auto mutate = [&](auto&& f) {
        SweepCell c = base;
        f(c);
        mutants.push_back(c);
    };
    mutate([](SweepCell& c) { c.spec.family = circuits::Family::BV; });
    mutate([](SweepCell& c) { c.spec.num_qubits = 17; });
    mutate([](SweepCell& c) { c.spec.num_nodes = 2; });
    mutate([](SweepCell& c) { c.seed = 2023; });
    mutate([](SweepCell& c) { c.shape = "4x4"; });
    mutate([](SweepCell& c) { c.topology = hw::Topology::Ring; });
    mutate([](SweepCell& c) { c.link_fidelity = 0.95; });
    mutate([](SweepCell& c) { c.target_fidelity = 0.99; });
    mutate([](SweepCell& c) { c.link_bandwidth = 2; });
    mutate([](SweepCell& c) {
        c.link_fidelity_overrides = {{0, 1, 0.9}};
    });
    mutate([](SweepCell& c) {
        c.link_bandwidth_overrides = {{0, 1, 2.0}};
    });
    mutate([](SweepCell& c) { c.options.name = "renamed"; });
    mutate([](SweepCell& c) {
        c.options.opts.aggregate.use_commutation = false;
    });
    mutate([](SweepCell& c) { c.options.opts.assign.allow_tp = false; });
    mutate([](SweepCell& c) {
        c.options.opts.schedule.epr_prefetch = false;
    });
    mutate([](SweepCell& c) {
        c.partitioner = partition::Mapper::Multilevel;
    });
    mutate([](SweepCell& c) {
        c.partitioner = partition::Mapper::MultilevelOee;
    });
    mutate([](SweepCell& c) { c.with_baseline = true; });
    mutate([](SweepCell& c) { c.with_gptp = true; });
    mutate([](SweepCell& c) { c.stats_only = true; });

    std::set<std::string> seen{h0};
    for (const SweepCell& m : mutants) {
        const std::string h = cache::cell_key(m).hex();
        EXPECT_TRUE(seen.insert(h).second)
            << "key not sensitive to a mutation near "
            << cache::cell_key(m).canonical;
    }
}

TEST(CacheKey, SaltChangesTheKey)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 4};
    EXPECT_NE(cache::cell_key(cell, "s1").hex(),
              cache::cell_key(cell, "s2").hex());
}

TEST(CacheKey, NearbyFidelityDoublesKeyDifferently)
{
    SweepCell a;
    a.spec = {circuits::Family::QFT, 16, 4};
    a.link_fidelity = 0.92;
    SweepCell b = a;
    b.link_fidelity = std::nextafter(0.92, 1.0); // 1 ulp; %g would merge
    EXPECT_NE(cache::cell_key(a).hex(), cache::cell_key(b).hex());
}

TEST(CacheKey, CanonicalStringsArePinned)
{
    // The canonical text is every stored entry's identity: a moved byte
    // turns the whole store into misses without a salt bump, so it may
    // change only as a deliberate edit of these strings.
    SweepCell plain;
    plain.spec = {circuits::Family::QFT, 16, 4};
    EXPECT_EQ(cache::cell_key(plain, "s3").canonical,
              "autocomm-cell-v2;salt=s3;family=QFT;qubits=16;nodes=4;"
              "seed=2022;shape=;topology=all_to_all;link_fidelity=1;"
              "target_fidelity=0;link_bandwidth=0;fidelity_overrides=;"
              "bandwidth_overrides=;partitioner=oee;options=default{"
              "use_commutation=1,absorb_local_gates=1,comm_capacity=2,"
              "allow_tp=1,epr_prefetch=1,tp_fusion=1};baseline=0;gptp=0;"
              "stats_only=0");
    EXPECT_EQ(cache::cell_key(plain, "s3").hex(),
              "a9d1921b9b72c6bef04f4669ae40f0b5");

    SweepCell full;
    full.spec = {circuits::Family::MCTR, 24, 4};
    full.seed = 7;
    full.shape = "2x8,2x4";
    full.topology = hw::Topology::Ring;
    full.link_fidelity = 0.95;
    full.target_fidelity = 0.99;
    full.link_bandwidth = 2;
    full.link_fidelity_overrides = {{0, 1, 0.9}, {2, 3, 0.92}};
    full.link_bandwidth_overrides = {{1, 2, 3.0}};
    full.partitioner = partition::Mapper::Multilevel;
    full.options = *driver::find_option_set("sparse");
    full.with_baseline = true;
    full.with_gptp = true;
    EXPECT_EQ(cache::cell_key(full, "s3").canonical,
              "autocomm-cell-v2;salt=s3;family=MCTR;qubits=24;nodes=4;"
              "seed=7;shape=2x8,2x4;topology=ring;"
              "link_fidelity=0.94999999999999996;"
              "target_fidelity=0.98999999999999999;link_bandwidth=2;"
              "fidelity_overrides=0-1:0.90000000000000002,"
              "2-3:0.92000000000000004;bandwidth_overrides=1-2:3;"
              "partitioner=multilevel;options=sparse{use_commutation=0,"
              "absorb_local_gates=1,comm_capacity=2,allow_tp=1,"
              "epr_prefetch=1,tp_fusion=1};baseline=1;gptp=1;"
              "stats_only=0");
    EXPECT_EQ(cache::cell_key(full, "s3").hex(),
              "4ac9f4fc6a0a6317515622abdd313a8c");
}

// ----------------------------------------------------------------- json

TEST(CacheJson, DumpParseIsAFixedPoint)
{
    Json doc = Json::object();
    doc.set("s", Json::string("line\nwith \"quotes\" and \\ and \x01"));
    doc.set("d", Json::number(0.1));
    doc.set("big", Json::number(18446744073709551615ULL));
    doc.set("neg", Json::number(-123456789LL));
    doc.set("t", Json::boolean(true));
    doc.set("n", Json::null());
    Json arr = Json::array();
    arr.push_back(Json::number(1.5e-300));
    arr.push_back(Json::string(""));
    doc.set("a", std::move(arr));

    const std::string once = doc.dump();
    const auto parsed = Json::parse(once);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(), once);
    // Exact scalar recovery.
    EXPECT_EQ(parsed->at("big").to_uint(), 18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(parsed->at("d").to_double(), 0.1);
    EXPECT_EQ(parsed->at("s").to_string(),
              "line\nwith \"quotes\" and \\ and \x01");
}

TEST(CacheJson, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(Json::parse("{", &err).has_value());
    EXPECT_FALSE(Json::parse("{}garbage", &err).has_value());
    EXPECT_FALSE(Json::parse("[1,,2]", &err).has_value());
    EXPECT_FALSE(Json::parse("\"\\u12\"", &err).has_value());
    EXPECT_FALSE(Json::parse("nul", &err).has_value());
    EXPECT_FALSE(Json::parse("", &err).has_value());
    EXPECT_TRUE(Json::parse("  42 ").has_value());
}

// ------------------------------------------------------- row round trip

TEST(CacheSerialize, NoisyBaselineRowRoundTripsByteIdentically)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 4};
    cell.topology = hw::Topology::Ring;
    cell.link_fidelity = 0.95;
    cell.target_fidelity = 0.99;
    cell.link_bandwidth = 2;
    cell.with_baseline = true;
    const SweepRow row = driver::run_cell(cell);
    ASSERT_TRUE(row.ok) << row.error;

    const std::string dumped = cache::row_to_json(row).dump();
    const auto parsed = Json::parse(dumped);
    ASSERT_TRUE(parsed.has_value());
    const SweepRow back = cache::row_from_json(*parsed, cell);

    EXPECT_EQ(driver::sweep_csv({row}).to_string(),
              driver::sweep_csv({back}).to_string());
    // Beyond the CSV: the Fig. 15 distribution and the ledger survive.
    EXPECT_EQ(back.metrics.per_comm_cx, row.metrics.per_comm_cx);
    EXPECT_EQ(back.metrics.block_sizes, row.metrics.block_sizes);
    EXPECT_EQ(back.schedule.ledger.raw_total(),
              row.schedule.ledger.raw_total());
    EXPECT_EQ(back.schedule.ledger.busiest(),
              row.schedule.ledger.busiest());
    EXPECT_DOUBLE_EQ(back.schedule.program_fidelity(),
                     row.schedule.program_fidelity());
    ASSERT_TRUE(back.factors.has_value());
    EXPECT_DOUBLE_EQ(back.factors->improv_factor,
                     row.factors->improv_factor);
}

TEST(CacheSerialize, ErrorRowRoundTrips)
{
    SweepCell bad;
    bad.spec = {circuits::Family::QFT, 16, 2};
    bad.shape = "2x4"; // insufficient capacity
    const std::vector<SweepRow> rows = driver::run_sweep({bad}, {});
    ASSERT_FALSE(rows[0].ok);

    const auto parsed = Json::parse(cache::row_to_json(rows[0]).dump());
    ASSERT_TRUE(parsed.has_value());
    const SweepRow back = cache::row_from_json(*parsed, bad);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, rows[0].error);
}

// ---------------------------------------------------------------- store

SweepGrid
small_grid()
{
    SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {10, 12};
    grid.node_counts = {2};
    grid.link_fidelities = {1.0, 0.95};
    grid.option_sets = {driver::OptionSet{},
                        *driver::find_option_set("sparse")};
    return grid;
}

TEST(CacheStore, WarmRunHitsEverythingAndMatchesColdRunByteIdentically)
{
    TempDir dir("warm");
    const std::vector<SweepCell> cells = small_grid().cells();

    std::string cold_csv;
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.num_threads = 4;
        opts.store = &store;
        cold_csv = driver::sweep_csv(driver::run_sweep(cells, opts))
                       .to_string();
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, cells.size());
        EXPECT_EQ(store.stats().inserted, cells.size());
        store.flush();
    }
    {
        // Warm, different thread count: every cell must hit and the CSV
        // must be byte-identical to the cold run.
        ResultStore store(dir.str());
        EXPECT_EQ(store.stats().loaded, cells.size());
        SweepOptions opts;
        opts.num_threads = 1;
        opts.store = &store;
        const std::string warm_csv =
            driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
        EXPECT_EQ(store.stats().hits, cells.size());
        EXPECT_EQ(store.stats().misses, 0u);
        EXPECT_EQ(warm_csv, cold_csv);
    }
}

TEST(CacheStore, PartiallyWarmSweepIsThreadCountInvariant)
{
    // Seed the store with only half of the grid, then run the full grid
    // at several thread counts. Warm cells skip the stage pipeline
    // entirely while cold cells flow through it concurrently; the CSV
    // must be byte-identical to a fully cold serial run regardless.
    const std::vector<SweepCell> cells = small_grid().cells();
    ASSERT_GE(cells.size(), 4u);
    const std::vector<SweepCell> half(cells.begin(),
                                      cells.begin() +
                                          static_cast<long>(cells.size() / 2));

    SweepOptions cold;
    cold.num_threads = 1;
    const std::string cold_csv =
        driver::sweep_csv(driver::run_sweep(cells, cold)).to_string();

    for (const std::size_t threads : {1u, 2u, 8u}) {
        TempDir dir("halfwarm-" + std::to_string(threads));
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.num_threads = threads;
        opts.store = &store;
        driver::run_sweep(half, opts);
        const std::string csv =
            driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
        EXPECT_EQ(store.stats().hits, half.size());
        EXPECT_EQ(csv, cold_csv) << threads << " threads";
    }
}

TEST(CacheStore, SaltBumpInvalidatesEveryEntry)
{
    TempDir dir("salt");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str(), "salt-A");
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
    }
    {
        // New salt: nothing loads, everything misses and recompiles.
        ResultStore store(dir.str(), "salt-B");
        EXPECT_EQ(store.stats().loaded, 0u);
        EXPECT_EQ(store.stats().stale, cells.size());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, cells.size());
        store.flush();
    }
    {
        // The original salt still sees its own entries.
        ResultStore store(dir.str(), "salt-A");
        EXPECT_EQ(store.stats().loaded, cells.size());
    }
}

TEST(CacheStore, ShardsPartitionTheGridAndMergeReproducesUnsharded)
{
    const std::vector<SweepCell> cells = small_grid().cells();
    const std::string unsharded =
        driver::sweep_csv(driver::run_sweep(cells, {})).to_string();

    const driver::ShardSpec s0{0, 2};
    const driver::ShardSpec s1{1, 2};
    const std::vector<SweepCell> part0 = cache::shard_filter(cells, s0);
    const std::vector<SweepCell> part1 = cache::shard_filter(cells, s1);
    EXPECT_EQ(part0.size() + part1.size(), cells.size());
    EXPECT_FALSE(part0.empty());
    EXPECT_FALSE(part1.empty());

    TempDir dir0("shard0");
    TempDir dir1("shard1");
    for (const auto& [part, dir] :
         {std::make_pair(&part0, &dir0), std::make_pair(&part1, &dir1)}) {
        ResultStore store(dir->str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(*part, opts);
        store.flush();
    }

    // Merge shard 1 into shard 0's store and assemble the full grid.
    ResultStore merged(dir0.str());
    EXPECT_EQ(merged.merge_from(dir1.str()), part1.size());
    merged.compact();
    const std::vector<SweepRow> rows = cache::assemble(cells, merged);
    EXPECT_EQ(driver::sweep_csv(rows).to_string(), unsharded);

    // Compaction leaves exactly one canonical segment; reopening it
    // still serves the full grid.
    std::size_t segments = 0;
    for (const auto& e : fs::directory_iterator(dir0.path))
        segments += e.path().extension() == ".jsonl" ? 1 : 0;
    EXPECT_EQ(segments, 1u);
    ResultStore reopened(dir0.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size());
}

TEST(CacheStore, AssembleThrowsOnMissingCells)
{
    TempDir dir("missing");
    ResultStore store(dir.str());
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    EXPECT_THROW(cache::assemble({cell}, store), support::UserError);
}

TEST(CacheStore, CorruptLinesAreDroppedNotFatal)
{
    TempDir dir("corrupt");
    {
        ResultStore store(dir.str());
        SweepCell cell;
        cell.spec = {circuits::Family::QFT, 10, 2};
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        store.flush();
    }
    {
        std::ofstream out(dir.path / "seg-garbage.jsonl",
                          std::ios::app);
        out << "{not json at all\n";
        out << "{\"key\":\"zz\",\"salt\":\"mismatch\"}\n";
    }
    ResultStore store(dir.str());
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_EQ(store.stats().stale, 2u);
}

TEST(CacheStore, CorruptEntrySelfHealConvergesOnDisk)
{
    TempDir dir("heal");
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        store.flush();
    }
    // Corrupt the stored row in place, keeping the line valid JSON so
    // the damage is only detected at lookup (row_from_json) time.
    for (const auto& seg : fs::directory_iterator(dir.path)) {
        std::ifstream in(seg.path());
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        const std::size_t at = text.find("\"ok\":true");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 9, "\"ok\":1234");
        std::ofstream(seg.path(), std::ios::trunc) << text;
    }
    {
        // The corrupt entry is dropped at lookup, recompiled, and the
        // flush retires the corrupt segment for good.
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        support::set_log_level(support::LogLevel::Quiet);
        driver::run_sweep({cell}, opts);
        support::set_log_level(support::LogLevel::Warn);
        EXPECT_EQ(store.stats().misses, 1u);
        store.flush();
    }
    {
        // Converged: one clean segment, a plain hit, no staleness.
        std::size_t segments = 0;
        for (const auto& e : fs::directory_iterator(dir.path))
            segments += e.path().extension() == ".jsonl" ? 1 : 0;
        EXPECT_EQ(segments, 1u);
        ResultStore store(dir.str());
        EXPECT_EQ(store.stats().loaded, 1u);
        const auto row = store.lookup(cache::cell_key(cell), cell);
        ASSERT_TRUE(row.has_value());
        EXPECT_TRUE(row->ok);
        EXPECT_EQ(store.stats().stale, 0u);
    }
}

TEST(CacheStore, HashCollisionIsServedAsAMiss)
{
    TempDir dir("collide");
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    const CellKey key = cache::cell_key(cell);
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        store.flush();
    }
    // Forge an entry whose key hash matches but whose canonical string
    // does not (as a real 128-bit collision would look).
    CellKey forged = key;
    forged.canonical += ";forged=1";
    ResultStore store(dir.str());
    support::set_log_level(support::LogLevel::Quiet);
    const auto row = store.lookup(forged, cell);
    support::set_log_level(support::LogLevel::Warn);
    EXPECT_FALSE(row.has_value());
    EXPECT_EQ(store.stats().misses, 1u);
}

// ---------------------------------------------- shard spec / overrides

// ------------------------------------------------------------------- gc

/** All *.jsonl files in @p dir, sorted by name. */
std::vector<std::string>
segment_names(const std::string& dir)
{
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".jsonl")
            names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

TEST(CacheGc, FreshEntriesSurviveAndTheStoreCompacts)
{
    TempDir dir("gc-fresh");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        // Just-compiled rows are far younger than a day: nothing drops,
        // and gc leaves the store compacted to the canonical segment.
        EXPECT_EQ(store.gc(1.0), 0u);
        EXPECT_EQ(store.size(), cells.size());
    }
    EXPECT_EQ(segment_names(dir.str()),
              std::vector<std::string>{"store.jsonl"});
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size());
}

TEST(CacheGc, PreTimestampEntriesCountAsExpired)
{
    TempDir dir("gc-legacy");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        store.compact();
    }
    // Strip the "ts" fields, simulating a store written before
    // timestamps existed.
    const fs::path canonical = dir.path / "store.jsonl";
    std::string text;
    {
        std::ifstream in(canonical);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    for (std::size_t at; (at = text.find("\"ts\":")) != std::string::npos;)
        text.erase(at, text.find(',', at) + 1 - at);
    {
        std::ofstream out(canonical, std::ios::trunc);
        out << text;
    }
    ResultStore store(dir.str());
    ASSERT_EQ(store.stats().loaded, cells.size()); // still readable
    // Even an allowance reaching past the epoch expires timestamp-less
    // entries: their age is unknown, so a GC pass retires them.
    EXPECT_EQ(store.gc(50000.0), cells.size());
    EXPECT_EQ(store.size(), 0u);
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, 0u);
}

TEST(CacheGc, WarmHitOutlivesUntouchedEntryOfTheSameAge)
{
    TempDir dir("gc-lasthit");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.compact();
    }
    // Backdate every entry's compile time by ten days; all of them are
    // now past a five-day allowance.
    const fs::path canonical = dir.path / "store.jsonl";
    std::string text;
    {
        std::ifstream in(canonical);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    const long long old_ts =
        static_cast<long long>(std::time(nullptr)) - 10ll * 86400ll;
    for (std::size_t at = 0;
         (at = text.find("\"ts\":", at)) != std::string::npos;) {
        const std::size_t end = text.find(',', at);
        text.replace(at, end - at, "\"ts\":" + std::to_string(old_ts));
        at += 5;
    }
    {
        std::ofstream out(canonical, std::ios::trunc);
        out << text;
    }

    ResultStore store(dir.str());
    ASSERT_EQ(store.stats().loaded, cells.size());
    // Serve exactly one cell from the store: its last-hit time is now,
    // so a five-day pass keeps it while retiring every same-age sibling.
    const SweepCell& hot = cells.front();
    ASSERT_TRUE(store.lookup(cache::cell_key(hot), hot).has_value());
    EXPECT_EQ(store.gc(5.0), cells.size() - 1);
    EXPECT_EQ(store.size(), 1u);

    // The refreshed last-hit time reached disk with gc's compaction, so
    // a fresh open still serves the hot cell.
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, 1u);
    EXPECT_TRUE(reopened.lookup(cache::cell_key(hot), hot).has_value());
}

TEST(CacheGc, StaleSaltLinesLeaveTheDiskOnGc)
{
    TempDir dir("gc-stale");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str(), "salt-A");
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
    }
    {
        // Opened under a bumped salt every salt-A line is stale; gc
        // compacts the (empty) live view, so the old segments — and the
        // stale lines in them — are deleted, not just skipped.
        ResultStore store(dir.str(), "salt-B");
        EXPECT_EQ(store.stats().stale, cells.size());
        EXPECT_EQ(store.gc(10000.0), 0u); // nothing live to expire
    }
    ResultStore old_salt(dir.str(), "salt-A");
    EXPECT_EQ(old_salt.stats().loaded, 0u);
    EXPECT_EQ(old_salt.stats().stale, 0u);
}

TEST(CacheGc, NegativeAgeIsRejected)
{
    TempDir dir("gc-neg");
    ResultStore store(dir.str());
    EXPECT_THROW(store.gc(-1.0), support::UserError);
}

TEST(CacheGc, GcToBytesGenerousBudgetKeepsAllAndCompacts)
{
    TempDir dir("gc-bytes-keep");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        // A budget far above the store's footprint evicts nothing, but
        // the pass still compacts down to the canonical segment.
        EXPECT_EQ(store.gc_to_bytes(std::size_t{1} << 30), 0u);
        EXPECT_EQ(store.size(), cells.size());
    }
    EXPECT_EQ(segment_names(dir.str()),
              std::vector<std::string>{"store.jsonl"});
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size());
}

TEST(CacheGc, GcToBytesZeroBudgetDropsEverything)
{
    TempDir dir("gc-bytes-zero");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        EXPECT_EQ(store.gc_to_bytes(0), cells.size());
        EXPECT_EQ(store.size(), 0u);
    }
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, 0u);
}

TEST(CacheGc, GcToBytesEvictsColdestEntriesFirst)
{
    TempDir dir("gc-bytes-cold");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.compact();
    }
    // Backdate every compile timestamp by ten days so all entries share
    // one old gc basis; a fresh lookup below separates the hot one.
    const fs::path canonical = dir.path / "store.jsonl";
    std::string text;
    {
        std::ifstream in(canonical);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    const long long old_ts =
        static_cast<long long>(std::time(nullptr)) - 10ll * 86400ll;
    for (std::size_t at = 0;
         (at = text.find("\"ts\":", at)) != std::string::npos;) {
        const std::size_t end = text.find(',', at);
        text.replace(at, end - at, "\"ts\":" + std::to_string(old_ts));
        at += 5;
    }
    {
        std::ofstream out(canonical, std::ios::trunc);
        out << text;
    }

    ResultStore store(dir.str());
    ASSERT_EQ(store.stats().loaded, cells.size());
    // Touching one cell refreshes its last-hit time: under a budget that
    // forces a partial eviction, the untouched ten-day-old siblings go
    // first and the hot entry is the last candidate standing.
    const SweepCell& hot = cells.front();
    ASSERT_TRUE(store.lookup(cache::cell_key(hot), hot).has_value());
    const std::size_t budget =
        static_cast<std::size_t>(fs::file_size(canonical)) / 2;
    const std::size_t dropped = store.gc_to_bytes(budget);
    EXPECT_GE(dropped, 1u);
    EXPECT_LT(dropped, cells.size());
    EXPECT_EQ(store.size(), cells.size() - dropped);
    EXPECT_TRUE(store.lookup(cache::cell_key(hot), hot).has_value());

    // The eviction compacted to disk, so a fresh open sees exactly the
    // survivors — the hot cell among them — under the byte budget.
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size() - dropped);
    EXPECT_TRUE(reopened.lookup(cache::cell_key(hot), hot).has_value());
    EXPECT_LE(fs::file_size(canonical), budget);
}

// ------------------------------------------------- external QASM cells

/** Two small distinct OpenQASM programs over one byte of difference in
 * the first (h vs x on q[0]). */
constexpr const char* kQasmA = "OPENQASM 2.0;\n"
                               "qreg q[6];\n"
                               "h q[0];\n"
                               "cx q[0], q[1];\n"
                               "cx q[2], q[3];\n"
                               "cx q[4], q[5];\n";
constexpr const char* kQasmB = "OPENQASM 2.0;\n"
                               "qreg q[6];\n"
                               "x q[0];\n"
                               "cx q[0], q[1];\n"
                               "cx q[2], q[3];\n"
                               "cx q[4], q[5];\n";

void
write_file(const fs::path& p, const std::string& text)
{
    fs::create_directories(p.parent_path());
    std::ofstream(p, std::ios::trunc) << text;
}

TEST(CacheQasm, SameFileHitsWarmAndAOneByteEditInvalidates)
{
    TempDir dir("qasm-edit");
    const fs::path file = dir.path / "bench.qasm";
    write_file(file, kQasmA);

    SweepCell cell;
    cell.spec =
        circuits::spec_for(circuits::qasm_family(file.string()), 0, 2);
    ASSERT_EQ(cell.spec.family, circuits::Family::QASM);
    ASSERT_EQ(cell.spec.num_qubits, 6);
    EXPECT_NE(cell.label().find("QASM:bench"), std::string::npos);

    const CellKey key_a = cache::cell_key(cell);
    const fs::path store_dir = dir.path / "store";

    std::string cold_csv;
    {
        ResultStore store(store_dir.string());
        SweepOptions opts;
        opts.store = &store;
        cold_csv =
            driver::sweep_csv(driver::run_sweep({cell}, opts)).to_string();
        EXPECT_EQ(store.stats().misses, 1u);
        store.flush();
    }
    {
        // Same file content: a warm run hits and reproduces the CSV
        // byte-identically.
        ResultStore store(store_dir.string());
        SweepOptions opts;
        opts.store = &store;
        const std::string warm_csv =
            driver::sweep_csv(driver::run_sweep({cell}, opts)).to_string();
        EXPECT_EQ(store.stats().hits, 1u);
        EXPECT_EQ(store.stats().misses, 0u);
        EXPECT_EQ(warm_csv, cold_csv);
    }

    // One byte changes (h -> x): the content hash moves the key, so the
    // unchanged cell spec now misses and recompiles.
    write_file(file, kQasmB);
    EXPECT_NE(cache::cell_key(cell).hex(), key_a.hex());
    {
        ResultStore store(store_dir.string());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, 1u);
    }
}

TEST(CacheQasm, QasmDirShardsMergeToTheUnshardedCsv)
{
    TempDir dir("qasm-shard");
    write_file(dir.path / "circuits" / "a.qasm", kQasmA);
    write_file(dir.path / "circuits" / "b.qasm", kQasmB);

    SweepGrid grid;
    grid.families =
        circuits::qasm_dir_families((dir.path / "circuits").string());
    ASSERT_EQ(grid.families.size(), 2u);
    grid.qubit_counts = {6};
    grid.node_counts = {2};
    grid.link_fidelities = {1.0, 0.95};
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 4u);

    const std::string unsharded =
        driver::sweep_csv(driver::run_sweep(cells, {})).to_string();

    const std::vector<SweepCell> part0 =
        cache::shard_filter(cells, driver::ShardSpec{0, 2});
    const std::vector<SweepCell> part1 =
        cache::shard_filter(cells, driver::ShardSpec{1, 2});
    EXPECT_EQ(part0.size() + part1.size(), cells.size());

    TempDir dir0("qasm-shard0");
    TempDir dir1("qasm-shard1");
    for (const auto& [part, d] :
         {std::make_pair(&part0, &dir0), std::make_pair(&part1, &dir1)}) {
        ResultStore store(d->str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(*part, opts);
        store.flush();
    }

    ResultStore merged(dir0.str());
    EXPECT_EQ(merged.merge_from(dir1.str()), part1.size());
    const std::vector<SweepRow> rows = cache::assemble(cells, merged);
    EXPECT_EQ(driver::sweep_csv(rows).to_string(), unsharded);
}

TEST(CacheShard, FilterIsDeterministicAndSaltDependent)
{
    const std::vector<SweepCell> cells = small_grid().cells();
    const driver::ShardSpec s0{0, 3};
    EXPECT_EQ(cache::shard_filter(cells, s0).size(),
              cache::shard_filter(cells, s0).size());
    // Shards over all residues cover every cell exactly once.
    std::size_t covered = 0;
    for (int i = 0; i < 3; ++i)
        covered +=
            cache::shard_filter(cells, driver::ShardSpec{i, 3}).size();
    EXPECT_EQ(covered, cells.size());
    // One shard of one is the identity.
    EXPECT_EQ(cache::shard_filter(cells, driver::ShardSpec{0, 1}).size(),
              cells.size());
    // Bad specs fail as UserError at the membership test, never as a
    // division crash.
    const CellKey key = cache::cell_key(cells.front());
    EXPECT_THROW(cache::in_shard(key, driver::ShardSpec{0, 0}),
                 support::UserError);
    EXPECT_THROW(cache::in_shard(key, driver::ShardSpec{3, 2}),
                 support::UserError);
}

} // namespace

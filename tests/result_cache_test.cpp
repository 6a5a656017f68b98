// The persistent result cache: content addressing, the per-schema epoch
// layout, hit/miss/stale/corrupt classification, atomic stores, and
// recovery by overwrite.  Every entry is a delay profile; a scalar
// answer is a one-level profile read and written through the
// single-level lookup/store views.  Whatever the outcome, the answer
// handed back encodes byte-identically to a fresh cold solve.
#include "e2e/solver.h"
#include "io/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "deltanc/version.h"

namespace deltanc::io {
namespace {

e2e::Scenario small_scenario(int n_cross = 50) {
  e2e::Scenario sc;
  sc.hops = 3;
  sc.n_through = 80;
  sc.n_cross = n_cross;
  sc.epsilon = 1e-6;
  sc.scheduler = sched::SchedulerKind::kFifo;
  return sc;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// The cache key of a scalar request: the one-level profile of the
/// scenario's own epsilon.
std::string scalar_key(const e2e::Scenario& sc,
                       const SolveOptions& options = {}) {
  return cache_key(sc, std::vector<double>{sc.epsilon}, options);
}

/// A bare one-level profile whose only level has delay `delay_ms`.
e2e::DelayProfile one_level(double delay_ms) {
  e2e::BoundResult r;
  r.delay_ms = delay_ms;
  return e2e::DelayProfile{{1e-6}, {r}, {}};
}

/// The encoded answer of a fresh cold solve: what every cache outcome
/// must hand back byte for byte.
std::string cold_bytes(const e2e::Scenario& sc) {
  return encode_bound_result(deltanc::Solver().solve(sc)).dump();
}

std::string cold_profile_bytes(const e2e::Scenario& sc,
                               const std::vector<double>& grid) {
  return encode_delay_profile(deltanc::Solver().solve_profile(sc, grid))
      .dump();
}

class ResultCacheTest : public ::testing::Test {
 protected:
  std::filesystem::path cache_dir() const {
    return std::filesystem::path(::testing::TempDir()) /
           ("deltanc_cache_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
  }

  void SetUp() override { std::filesystem::remove_all(cache_dir()); }
  void TearDown() override { std::filesystem::remove_all(cache_dir()); }

  /// The batch's cycle over the single-level views: lookup, and on
  /// anything but a hit solve cold and store.  `outcome` says which way
  /// the answer came.
  static e2e::BoundResult lookup_or_solve(ResultCache& cache,
                                          const e2e::Scenario& sc,
                                          CacheLookup& outcome,
                                          int* solves = nullptr) {
    const std::string key = scalar_key(sc);
    e2e::BoundResult result;
    outcome = cache.lookup(key, result);
    if (outcome == CacheLookup::kHit) return result;
    if (solves != nullptr) ++*solves;
    result = deltanc::Solver().solve(sc);
    cache.store(key, result);
    return result;
  }

  /// An entry as a schema-`schema` build wrote it, found where it can
  /// sit today: at the flat pre-epoch path of the current key (never
  /// opened -- a miss, counted foreign) and copied into the current
  /// epoch at the current key's own slot (the per-entry schema check
  /// classifies it stale).  Neither is ever served; the re-solve
  /// overwrites the slot with the bytes of a cold solve.
  void expect_old_schema_entry_never_served(int schema) {
    const e2e::Scenario sc = small_scenario();
    const std::string key = scalar_key(sc);
    const std::string entry = "{\"schema\":" + std::to_string(schema) +
                              ",\"version\":\"1.0.0\",\"key\":\"x\","
                              "\"result\":{}}\n";
    ResultCache cache(cache_dir());
    const std::filesystem::path slot = cache.entry_path(key);
    const std::filesystem::path flat = cache_dir() / slot.filename();
    std::filesystem::create_directories(slot.parent_path());
    write_file(flat, entry);

    e2e::BoundResult out;
    out.delay_ms = -1.0;
    EXPECT_EQ(cache.lookup(key, out), CacheLookup::kMiss);
    EXPECT_EQ(ResultCache::foreign_entries(cache_dir()), 1);

    write_file(slot, entry);
    EXPECT_EQ(cache.lookup(key, out), CacheLookup::kStale);
    EXPECT_EQ(out.delay_ms, -1.0);  // never serves bits from an old entry
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().stale, 1);

    CacheLookup outcome{};
    const e2e::BoundResult solved = lookup_or_solve(cache, sc, outcome);
    EXPECT_EQ(outcome, CacheLookup::kStale);
    EXPECT_EQ(encode_bound_result(solved).dump(), cold_bytes(sc));
    EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
    EXPECT_EQ(encode_bound_result(out).dump(), cold_bytes(sc));
    EXPECT_EQ(read_file(flat), entry);  // the flat copy is never touched
  }
};

TEST_F(ResultCacheTest, Fnv1a64MatchesKnownVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST_F(ResultCacheTest, MissThenStoreThenBitExactHit) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = scalar_key(sc);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kMiss);

  const e2e::BoundResult solved = deltanc::Solver().solve(sc);
  cache.store(key, solved);
  ASSERT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
  EXPECT_EQ(out.gamma, solved.gamma);
  EXPECT_EQ(out.s, solved.s);
  EXPECT_EQ(out.sigma, solved.sigma);
  EXPECT_EQ(out.delta, solved.delta);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().stores, 1);

  EXPECT_EQ(encode_bound_result(out).dump(), cold_bytes(sc));
  // The entry lives in the current schema's epoch directory.
  EXPECT_EQ(cache.entry_path(key).parent_path(),
            cache_dir() / ("v" + std::to_string(kSchemaVersion)));

  // A second ResultCache over the same directory sees the entry too.
  ResultCache reopened(cache_dir());
  EXPECT_EQ(reopened.lookup(key, out), CacheLookup::kHit);
}

TEST_F(ResultCacheTest, VersionDriftClassifiesAsStaleAndIsOverwritten) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = scalar_key(sc);
  cache.store(key, deltanc::Solver().solve(sc));

  // Doctor the stored entry to look like an older library release.
  const std::filesystem::path path = cache.entry_path(key);
  std::string text = read_file(path);
  const std::string current = std::string("\"") + DELTANC_VERSION_STRING + "\"";
  const std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(), "\"0.0.1\"");
  write_file(path, text);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kStale);
  EXPECT_EQ(cache.stats().stale, 1);

  // The re-solve reports the stale outcome and overwrites the entry so
  // the next lookup hits again.  The answer carries no
  // trace of the episode.
  CacheLookup outcome{};
  const e2e::BoundResult solved = lookup_or_solve(cache, sc, outcome);
  EXPECT_EQ(outcome, CacheLookup::kStale);
  EXPECT_EQ(encode_bound_result(solved).dump(), cold_bytes(sc));
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(encode_bound_result(out).dump(), cold_bytes(sc));
}

TEST_F(ResultCacheTest, PreviousReleaseEdfEntryIsStaleNeverServed) {
  // Release 1.1.0 solved the EDF fixed point with every iterate at the
  // full budget; 1.1.1 confirms cheap iterates and returns different
  // bits for the same key.  An entry as 1.1.0 wrote it -- its version
  // string and its delay -- must classify stale and be re-solved, never
  // served as a hit.
  e2e::Scenario sc = small_scenario(67);
  sc.hops = 5;
  sc.n_through = 100;
  sc.epsilon = 1e-9;
  sc.scheduler = sched::SchedulerKind::kEdf;
  const double released_delay = 17.760863886477203;  // 1.1.0's answer
  const e2e::BoundResult fresh = deltanc::Solver().solve(sc);
  ASSERT_NE(fresh.delay_ms, released_delay);
  ASSERT_STRNE(DELTANC_VERSION_STRING, "1.1.0");

  ResultCache cache(cache_dir());
  const std::string key = scalar_key(sc);
  cache.store(key, fresh);
  const std::filesystem::path path = cache.entry_path(key);
  std::string text = read_file(path);
  const std::string current = std::string("\"") + DELTANC_VERSION_STRING + "\"";
  std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(), "\"1.1.0\"");
  const std::string field = "\"delay_ms\":";
  at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  at += field.size();
  text.replace(at, text.find(',', at) - at, "17.760863886477203");
  write_file(path, text);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kStale);
  CacheLookup outcome{};
  const e2e::BoundResult solved = lookup_or_solve(cache, sc, outcome);
  EXPECT_EQ(outcome, CacheLookup::kStale);
  EXPECT_EQ(solved.delay_ms, fresh.delay_ms);
  EXPECT_EQ(encode_bound_result(solved).dump(), cold_bytes(sc));
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(encode_bound_result(out).dump(), cold_bytes(sc));
}

TEST_F(ResultCacheTest, SchemaDriftIsStaleToo) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = scalar_key(sc);
  cache.store(key, deltanc::Solver().solve(sc));

  // The schema version lives in the entry (and names the epoch
  // directory), not in the hashed key; a doctored schema field inside
  // the current epoch is still caught by the per-entry check.
  EXPECT_EQ(key.find("\"schema\""), std::string::npos);
  std::string text = read_file(cache.entry_path(key));
  const std::string current =
      "{\"schema\":" + std::to_string(kSchemaVersion) + ",";
  ASSERT_EQ(text.rfind(current, 0), 0u);
  text.replace(0, current.size(), "{\"schema\":0,");
  write_file(cache.entry_path(key), text);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kStale);
}

TEST_F(ResultCacheTest, OldLayoutsAreNeverOpenedAndCountedForeign) {
  // A fully valid entry -- current schema, current library version, the
  // exact current key -- planted where older builds kept their entries:
  // the flat pre-epoch layout directly under the cache directory, and
  // the schema-5 epoch directory.  Neither is ever opened, so neither
  // can be served; both stay visible through foreign_entries().
  const e2e::Scenario sc = small_scenario();
  const std::string key = scalar_key(sc);
  std::filesystem::path current;
  {
    ResultCache writer(cache_dir());
    writer.store(key, deltanc::Solver().solve(sc));
    current = writer.entry_path(key);
  }
  const std::string entry = read_file(current);
  ASSERT_FALSE(entry.empty());
  const std::filesystem::path flat = cache_dir() / current.filename();
  const std::filesystem::path v5 = cache_dir() / "v5" / current.filename();
  std::filesystem::create_directories(v5.parent_path());
  write_file(flat, entry);
  write_file(v5, entry);
  std::filesystem::remove(current);
  EXPECT_EQ(ResultCache::foreign_entries(cache_dir()), 2);

  ResultCache cache(cache_dir());
  e2e::BoundResult out;
  out.delay_ms = -1.0;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kMiss);
  EXPECT_EQ(out.delay_ms, -1.0);  // never serves bits from an old layout
  EXPECT_EQ(cache.stats().hits, 0);

  // The re-solve lands in the current epoch; the planted copies stay
  // foreign (never overwritten, never read).
  CacheLookup outcome{};
  const e2e::BoundResult solved = lookup_or_solve(cache, sc, outcome);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  EXPECT_EQ(encode_bound_result(solved).dump(), cold_bytes(sc));
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(ResultCache::foreign_entries(cache_dir()), 2);
  EXPECT_EQ(read_file(flat), entry);

  // Stray tmp files and the current epoch are not foreign; a missing
  // directory has no foreign entries.
  write_file(cache_dir() / "v5" / "0123.json.tmp.42", "partial");
  EXPECT_EQ(ResultCache::foreign_entries(cache_dir()), 2);
  EXPECT_EQ(ResultCache::foreign_entries(cache_dir() / "absent"), 0);
}

// Entries of the schemas that were once probed through legacy keys:
// schema 1 (pre-refactor), 2 (scheduler without "params") and 4 (key
// without the "kind" discriminator).
TEST_F(ResultCacheTest, PreRefactorEntryClassifiesStaleNeverWrongHit) {
  expect_old_schema_entry_never_served(1);
}

TEST_F(ResultCacheTest, SchemaTwoEntryClassifiesStaleNeverWrongHit) {
  expect_old_schema_entry_never_served(2);
}

TEST_F(ResultCacheTest, SchemaFourEntryClassifiesStaleNeverWrongHit) {
  expect_old_schema_entry_never_served(4);
}

// Schema 6 held scalar answers under "result" and keyed them with the
// "kind" discriminator; its entries sit in v6/ and are never opened.
TEST_F(ResultCacheTest, SchemaSixEntryClassifiesStaleNeverWrongHit) {
  expect_old_schema_entry_never_served(6);
}

TEST_F(ResultCacheTest, ScalarStoreViewWritesTheOneLevelProfileEntry) {
  // The single-level store view and the one path (the solved one-level
  // profile under the same key) write the same bytes, so a scalar
  // request and a one-level profile request share one entry.
  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf}) {
    e2e::Scenario sc = small_scenario();
    sc.scheduler = kind;
    const std::string key = scalar_key(sc);
    ResultCache cache(cache_dir());
    cache.store(key, deltanc::Solver().solve(sc));
    const std::string via_view = read_file(cache.entry_path(key));
    cache.store_profile(key, deltanc::Solver().solve_profile(
                                 sc, std::vector<double>{sc.epsilon}));
    EXPECT_EQ(read_file(cache.entry_path(key)), via_view)
        << sched::to_string(kind);
    e2e::BoundResult out;
    ASSERT_EQ(cache.lookup(key, out), CacheLookup::kHit);
    EXPECT_EQ(encode_bound_result(out).dump(), cold_bytes(sc));
  }
}

TEST_F(ResultCacheTest, CurveBackedSchedulersHaveNoLegacySlots) {
  // A curve-backed solve (NaN delta on the wire) round-trips through
  // store + hit like any other result; the epoch layout gives it, like
  // every solve, exactly one slot.
  e2e::Scenario sc = small_scenario();
  sc.scheduler = sched::SchedulerSpec::gps(2.0, 1.0);
  ResultCache cache(cache_dir());
  const std::string key = scalar_key(sc);
  const e2e::BoundResult solved = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isnan(solved.delta));
  cache.store(key, solved);
  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
  EXPECT_TRUE(std::isnan(out.delta));
}

// ----- delay-profile entries ---------------------------------------------

TEST_F(ResultCacheTest, ProfileMissStoreThenBitExactHit) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::vector<double> grid = {1e-3, 1e-6, 1e-9};
  const SolveOptions options{};
  const std::string key = cache_key(sc, grid, options);

  e2e::DelayProfile out;
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kMiss);

  const e2e::DelayProfile solved =
      deltanc::Solver().solve_profile(sc, grid);
  cache.store_profile(key, solved);
  ASSERT_EQ(cache.lookup_profile(key, out), CacheLookup::kHit);
  ASSERT_EQ(out.levels.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.epsilons[i], solved.epsilons[i]);
    EXPECT_EQ(out.levels[i].delay_ms, solved.levels[i].delay_ms);
    EXPECT_EQ(out.levels[i].s, solved.levels[i].s);
    EXPECT_EQ(out.levels[i].sigma, solved.levels[i].sigma);
  }

  ResultCache reopened(cache_dir());
  EXPECT_EQ(reopened.lookup_profile(key, out), CacheLookup::kHit);
  EXPECT_EQ(encode_delay_profile(out).dump(), cold_profile_bytes(sc, grid));
}

TEST_F(ResultCacheTest, ProfileEntriesClassifyStaleAndCorrupt) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::vector<double> grid = {1e-4, 1e-8};
  const SolveOptions options{};
  const std::string key = cache_key(sc, grid, options);
  cache.store_profile(key, deltanc::Solver().solve_profile(sc, grid));

  // Version drift -> stale, no bits served.
  std::string text = read_file(cache.entry_path(key));
  const std::string current = std::string("\"") + DELTANC_VERSION_STRING + "\"";
  const std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(), "\"0.0.1\"");
  write_file(cache.entry_path(key), text);
  e2e::DelayProfile out;
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kStale);

  // Unreadable bytes -> corrupt; the re-solve recovers by overwrite, and
  // the answer carries no trace of the episode.
  write_file(cache.entry_path(key), "{\"schema\": truncated garba");
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kCorrupt);
  cache.store_profile(key, deltanc::Solver().solve_profile(sc, grid));
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kHit);
  EXPECT_EQ(encode_delay_profile(out).dump(), cold_profile_bytes(sc, grid));
}

TEST_F(ResultCacheTest, TryStoreProfileSurvivesInjectedFailures) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::vector<double> grid = {1e-3, 1e-9};
  const std::string key = cache_key(sc, grid, SolveOptions{});
  const e2e::DelayProfile solved = deltanc::Solver().solve_profile(sc, grid);

  cache.fail_next_stores(1);
  EXPECT_FALSE(cache.try_store(key, solved));
  EXPECT_EQ(cache.stats().store_failures, 1);
  e2e::DelayProfile out;
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kMiss);

  EXPECT_TRUE(cache.try_store(key, solved));
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kHit);
  EXPECT_EQ(encode_delay_profile(out).dump(), cold_profile_bytes(sc, grid));
}

TEST_F(ResultCacheTest, SimulationLoweringsDoNotPerturbSolverKeys) {
  // The DRR/SCED simulation lowerings added sim-side config fields only;
  // the solver cache key is a function of the *scenario*, so those
  // lowerings did not bump the schema.  Wire-format changes do: the
  // warm-start policy in SolveOptions took the schema from 3 to 4, the
  // "kind"-discriminated keys and delay-profile documents from 4 to 5,
  // provenance-free stats with the epoch layout from 5 to 6, and the one
  // answer type from 6 to 7 (see io/codec.h).
  static_assert(kSchemaVersion == 7,
                "sim-side config fields must not bump the cache schema; "
                "the schema-7 bump came from the one answer type (keys "
                "name their levels, every entry holds a profile)");
  ResultCache cache(cache_dir());
  for (const sched::SchedulerSpec& spec :
       {sched::SchedulerSpec::drr(2.0, 1.0), sched::SchedulerSpec::sced(),
        sched::SchedulerSpec::gps(2.0, 1.0)}) {
    e2e::Scenario sc = small_scenario();
    sc.scheduler = spec;
    const std::string key = scalar_key(sc);
    cache.store(key, deltanc::Solver().solve(sc));
    e2e::BoundResult out;
    EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit)
        << sched::to_string(spec);
    // The key must also be reproducible from an identical scenario
    // value (content addressing, not object identity).
    e2e::Scenario again = small_scenario();
    again.scheduler = spec;
    EXPECT_EQ(scalar_key(again), key)
        << sched::to_string(spec);
  }
  EXPECT_EQ(cache.stats().hits, 3);
  EXPECT_EQ(cache.stats().stale, 0);
}

TEST_F(ResultCacheTest, CorruptEntryIsDetectedAndRecoverable) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = scalar_key(sc);
  cache.store(key, deltanc::Solver().solve(sc));

  write_file(cache.entry_path(key), "{\"schema\":2, truncated garba");
  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kCorrupt);
  EXPECT_EQ(cache.stats().corrupt, 1);

  // Well-formed JSON of the current schema that is not a valid entry is
  // corrupt as well (an *older* schema would be stale instead).
  write_file(cache.entry_path(key),
             "{\"schema\":" + std::to_string(kSchemaVersion) +
                 ",\"version\":3}");
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kCorrupt);

  // Recovery: the re-solve overwrites the damaged entry.
  CacheLookup outcome{};
  const e2e::BoundResult solved = lookup_or_solve(cache, sc, outcome);
  EXPECT_EQ(outcome, CacheLookup::kCorrupt);
  EXPECT_EQ(encode_bound_result(solved).dump(), cold_bytes(sc));
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(encode_bound_result(out).dump(), cold_bytes(sc));
}

TEST_F(ResultCacheTest, HashCollisionDegradesToMissNotWrongAnswer) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = scalar_key(sc);
  cache.store(key, deltanc::Solver().solve(sc));

  // Simulate a colliding key by doctoring the stored key string (it is
  // embedded JSON, so its quotes appear escaped): the file is present
  // and decodable, but it belongs to someone else.
  std::string text = read_file(cache.entry_path(key));
  const std::string mine = R"(\"n_cross\":50)";
  const std::size_t at = text.find(mine);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, mine.size(), R"(\"n_cross\":51)");
  write_file(cache.entry_path(key), text);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kMiss);
}

TEST_F(ResultCacheTest, SolveThroughCountsOneOutcomePerResult) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  int solves = 0;
  CacheLookup outcome{};
  const e2e::BoundResult first = lookup_or_solve(cache, sc, outcome, &solves);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  const e2e::BoundResult second = lookup_or_solve(cache, sc, outcome, &solves);
  EXPECT_EQ(outcome, CacheLookup::kHit);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(solves, 1);  // the hit never invoked the solver
  // Same answer bytes either way: nothing about the lookup leaks in.
  EXPECT_EQ(encode_bound_result(first).dump(), cold_bytes(sc));
  EXPECT_EQ(encode_bound_result(second).dump(), cold_bytes(sc));
}

TEST_F(ResultCacheTest, DirectoryFromEnvPrefersTheVariable) {
  ASSERT_EQ(::setenv("DELTANC_CACHE_DIR", "/tmp/deltanc-env-cache", 1), 0);
  EXPECT_EQ(ResultCache::directory_from_env("/fallback"),
            std::filesystem::path("/tmp/deltanc-env-cache"));
  ASSERT_EQ(::setenv("DELTANC_CACHE_DIR", "", 1), 0);
  EXPECT_EQ(ResultCache::directory_from_env("/fallback"),
            std::filesystem::path("/fallback"));
  ASSERT_EQ(::unsetenv("DELTANC_CACHE_DIR"), 0);
  EXPECT_EQ(ResultCache::directory_from_env("/fallback"),
            std::filesystem::path("/fallback"));
}

TEST_F(ResultCacheTest, ShardOfPartitionsTheKeyspaceContiguously) {
  // Every key lands in exactly one shard, every count: a partition.
  const std::string keys[] = {"", "a", "foobar", "scenario-ish{\"x\":1}",
                              "another key", "yet another"};
  for (const int count : {1, 2, 3, 4, 7, 8, 256}) {
    for (const std::string& key : keys) {
      const int shard = ResultCache::shard_of(key, count);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, count);
    }
  }
  // Contiguity: the shard index is monotone in the top hash byte, so
  // shard i owns one contiguous prefix range of the directory listing.
  int previous = 0;
  for (int prefix = 0; prefix < 256; ++prefix) {
    const int shard =
        static_cast<int>(static_cast<unsigned>(prefix) * 4u / 256u);
    EXPECT_GE(shard, previous);
    previous = shard;
  }
  // Degenerate counts collapse to the single shard.
  EXPECT_EQ(ResultCache::shard_of("anything", 1), 0);
  EXPECT_EQ(ResultCache::shard_of("anything", 0), 0);
}

TEST_F(ResultCacheTest, ShardedHandlesShareOneDirectoryWithUnshardedReaders) {
  const auto dir = cache_dir();
  const e2e::Scenario sc = small_scenario(64);
  const std::string key = scalar_key(sc);
  const int owner = ResultCache::shard_of(key, 4);

  ResultCache shard(dir, CacheShard{owner, 4});
  EXPECT_TRUE(shard.owns(key));
  EXPECT_EQ(shard.shard().index, owner);
  e2e::BoundResult stored;
  stored.delay_ms = 21.5;
  shard.store(key, stored);

  // The sharded store is a plain entry: an unsharded reader of the same
  // directory hits it bit-exactly (what keeps --serve's cache directory
  // compatible with one-shot --batch runs).
  ResultCache plain(dir);
  e2e::BoundResult found;
  EXPECT_EQ(plain.lookup(key, found), CacheLookup::kHit);
  EXPECT_EQ(found.delay_ms, 21.5);

  EXPECT_THROW(ResultCache(dir, CacheShard{4, 4}), std::invalid_argument);
  EXPECT_THROW(ResultCache(dir, CacheShard{-1, 4}), std::invalid_argument);
  EXPECT_THROW(ResultCache(dir, CacheShard{0, 0}), std::invalid_argument);
}

TEST_F(ResultCacheTest, TryStoreCountsFailuresAndKeepsServing) {
  ResultCache cache(cache_dir());
  cache.fail_next_stores(2);
  const e2e::DelayProfile answer = one_level(10.0);
  EXPECT_FALSE(cache.try_store("key-a", answer));
  EXPECT_FALSE(cache.try_store("key-b", answer));
  EXPECT_TRUE(cache.try_store("key-c", answer));  // budget drained
  EXPECT_EQ(cache.stats().store_failures, 2);
  EXPECT_EQ(cache.stats().stores, 1);
  // The failed keys never landed; the successful one did.
  e2e::BoundResult found;
  EXPECT_EQ(cache.lookup("key-a", found), CacheLookup::kMiss);
  EXPECT_EQ(cache.lookup("key-c", found), CacheLookup::kHit);
  EXPECT_EQ(found.delay_ms, 10.0);
}

TEST_F(ResultCacheTest, ConcurrentHammerNeverServesWrongBytes) {
  // Satellite guard for the persistent service: N threads, each with
  // its own handle on ONE directory, store and look up overlapping
  // keys while one entry is corrupted mid-flight.  The contract under
  // fire: a lookup returns kHit only with the exact stored result --
  // wrong hits and crashes are the failure modes, kMiss/kStale/
  // kCorrupt are all acceptable transients.
  const auto dir = cache_dir();
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  constexpr int kRounds = 60;

  const auto expected_delay = [](int k) { return 100.0 + k; };
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back("hammer-key-" + std::to_string(k));
  }

  ResultCache seed(dir);
  for (int k = 0; k < kKeys; ++k) {
    seed.store_profile(keys[k], one_level(expected_delay(k)));
  }
  // One entry starts corrupt; workers re-store over it as they go.
  write_file(seed.entry_path(keys[3]), "NOT JSON {{{");

  std::atomic<int> wrong_hits{0};
  std::atomic<long long> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ResultCache cache(dir);  // per-thread handle, shared directory
      for (int round = 0; round < kRounds; ++round) {
        const int k = (t + round) % kKeys;
        e2e::BoundResult found;
        const CacheLookup outcome = cache.lookup(keys[k], found);
        if (outcome == CacheLookup::kHit &&
            found.delay_ms != expected_delay(k)) {
          ++wrong_hits;
        }
        if (outcome == CacheLookup::kHit) ++hits;
        if (outcome != CacheLookup::kHit || round % 7 == t % 7) {
          (void)cache.try_store(keys[k], one_level(expected_delay(k)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong_hits, 0);
  EXPECT_GT(hits, 0);
  // The corrupted entry healed: every key reads back bit-exactly.
  ResultCache verify(dir);
  for (int k = 0; k < kKeys; ++k) {
    e2e::BoundResult found;
    EXPECT_EQ(verify.lookup(keys[k], found), CacheLookup::kHit) << keys[k];
    EXPECT_EQ(found.delay_ms, expected_delay(k));
  }
}

}  // namespace
}  // namespace deltanc::io

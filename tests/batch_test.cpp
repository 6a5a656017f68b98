// The JSONL batch service: ordered responses, cache integration
// (hit/stale/corrupt outcomes surfaced per response and in the
// summary), and graceful handling of malformed request lines.  Every
// request is a delay profile (a scalar line is the one-level profile of
// its epsilon).  Whatever the cache outcome, a response's
// "result"/"profile" payload is byte-identical to the encoding of a
// fresh cold solve.
#include "e2e/solver.h"
#include "io/batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

namespace deltanc::io {
namespace {

using json::Value;

e2e::Scenario small_scenario(int n_cross) {
  e2e::Scenario sc;
  sc.hops = 3;
  sc.n_through = 80;
  sc.n_cross = n_cross;
  sc.epsilon = 1e-6;
  sc.scheduler = sched::SchedulerKind::kFifo;
  return sc;
}

std::string request_line(const e2e::Scenario& sc, int id) {
  Value req = Value::object();
  req.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(id))
      .set("scenario", encode_scenario(sc));
  return req.dump();
}

std::string profile_request_line(const e2e::Scenario& sc, int id,
                                 const std::vector<double>& epsilons,
                                 const SolveOptions* options = nullptr) {
  Value eps = Value::array();
  for (double e : epsilons) eps.push_back(encode_double(e));
  Value req = Value::object();
  req.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(id))
      .set("scenario", encode_scenario(sc))
      .set("epsilons", std::move(eps));
  if (options != nullptr) req.set("options", encode_solve_options(*options));
  return req.dump();
}

/// The cache key of a scalar request: the one-level profile of the
/// scenario's own epsilon.
std::string scalar_key(const e2e::Scenario& sc) {
  return cache_key(sc, std::vector<double>{sc.epsilon}, SolveOptions{});
}

std::vector<Value> parse_responses(const std::string& text) {
  std::vector<Value> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) out.push_back(Value::parse(line));
  }
  return out;
}

/// The encoded answer of a fresh cold solve: what every response must
/// carry byte for byte, whatever its cache outcome.
std::string cold_bytes(const e2e::Scenario& sc) {
  return encode_bound_result(deltanc::Solver().solve(sc)).dump();
}

std::string cold_profile_bytes(const e2e::Scenario& sc,
                               const std::vector<double>& grid) {
  return encode_delay_profile(deltanc::Solver().solve_profile(sc, grid))
      .dump();
}

std::filesystem::path fresh_cache_dir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Batch, ResponsesArriveInInputOrderAndMatchDirectSolves) {
  std::stringstream in;
  in << request_line(small_scenario(60), 0) << "\n";
  in << "\n";  // blank lines are skipped, not answered
  in << request_line(small_scenario(40), 1) << "\n";
  std::ostringstream out;

  BatchOptions options;
  options.threads = 2;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.requests, 2);
  EXPECT_EQ(summary.responses, 2);
  EXPECT_EQ(summary.solved, 2);
  EXPECT_EQ(summary.cached, 0);
  EXPECT_EQ(summary.parse_errors, 0);
  EXPECT_EQ(summary.failed, 0);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  const int n_cross[] = {60, 40};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(responses[i].at("id").as_number(), static_cast<double>(i));
    EXPECT_TRUE(responses[i].at("ok").as_bool());
    EXPECT_EQ(responses[i].find("cache"), nullptr);  // no cache attached
    const e2e::BoundResult direct = deltanc::Solver().solve(small_scenario(n_cross[i]));
    const e2e::BoundResult got =
        decode_bound_result(responses[i].at("result"));
    EXPECT_EQ(got.delay_ms, direct.delay_ms);
    EXPECT_EQ(got.gamma, direct.gamma);
    EXPECT_EQ(got.s, direct.s);
  }
}

TEST(Batch, MalformedLinesAnswerInPlaceWithoutAbortingTheBatch) {
  std::stringstream in;
  in << request_line(small_scenario(60), 0) << "\n";
  in << "{\"schema\":1, not json\n";
  in << "{\"schema\":99,\"scenario\":{}}\n";  // wrong schema
  in << request_line(small_scenario(40), 3) << "\n";
  std::ostringstream out;

  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 4);
  EXPECT_EQ(summary.parse_errors, 2);
  EXPECT_EQ(summary.solved, 2);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_FALSE(responses[2].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("error").as_string().empty());
  EXPECT_TRUE(responses[3].at("ok").as_bool());
  EXPECT_EQ(responses[3].at("id").as_number(), 3.0);
}

// Parsing, cache lookups, solves and encoding all run on the batch's
// thread pool; the responses, the summary and the cache counters must
// not depend on how many workers there are.
TEST(Batch, ThreadCountChangesNeitherResponsesNorCounts) {
  std::string requests;
  for (int i = 0; i < 9; ++i) {
    e2e::Scenario sc = small_scenario(30 + 5 * i);
    sc.scheduler = i % 3 == 0   ? sched::SchedulerKind::kFifo
                   : i % 3 == 1 ? sched::SchedulerKind::kBmux
                                : sched::SchedulerKind::kEdf;
    requests += (i == 4 ? profile_request_line(sc, i, {1e-9, 1e-6, 1e-3})
                        : request_line(sc, i)) +
                "\n";
    if (i == 6) requests += "{\"schema\":1, not json\n";
  }
  // Half the keys are cached before the measured run.
  std::string warm_half;
  for (int i = 0; i < 9; i += 2) {
    warm_half += request_line(small_scenario(30 + 5 * i), i) + "\n";
  }
  std::string outputs[2];
  BatchSummary summaries[2];
  const int threads[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    ResultCache cache(fresh_cache_dir(k == 0 ? "deltanc_batch_threads_1"
                                             : "deltanc_batch_threads_4"));
    BatchOptions options;
    options.cache = &cache;
    options.threads = threads[k];
    std::stringstream seed_in(warm_half);
    std::ostringstream seed_out;
    (void)run_batch(seed_in, seed_out, options);
    std::stringstream in(requests);
    std::ostringstream out;
    summaries[k] = run_batch(in, out, options);
    outputs[k] = out.str();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  for (const BatchSummary& s : summaries) {
    EXPECT_EQ(s.requests, 10);
    EXPECT_EQ(s.responses, 10);
    EXPECT_EQ(s.parse_errors, 1);
  }
  EXPECT_GT(summaries[0].cached, 0);
  EXPECT_GT(summaries[0].solved, 0);
  EXPECT_EQ(summaries[0].cached, summaries[1].cached);
  EXPECT_EQ(summaries[0].solved, summaries[1].solved);
  EXPECT_EQ(summaries[0].stats.optimize_evals,
            summaries[1].stats.optimize_evals);
  EXPECT_EQ(summaries[0].cache_stats.hits, summaries[1].cache_stats.hits);
  EXPECT_EQ(summaries[0].cache_stats.misses, summaries[1].cache_stats.misses);
  EXPECT_EQ(summaries[0].cache_stats.stores, summaries[1].cache_stats.stores);
}

TEST(Batch, UnknownSchedulerNameIsAnsweredInPlace) {
  // A request naming a scheduler this build does not register (another
  // producer's vocabulary -- a SchemaError out of the codec) is an
  // error *response*, never an exception out of the batch loop, and the
  // surrounding requests still solve.
  Value req = Value::object();
  req.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(1))
      .set("scenario", encode_scenario(small_scenario(50)));
  std::string bad = req.dump();
  const std::string mine = "\"fifo\"";
  const std::size_t at = bad.find(mine);
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, mine.size(), "\"round-robin\"");

  std::stringstream in;
  in << request_line(small_scenario(60), 0) << "\n";
  in << bad << "\n";
  in << request_line(small_scenario(40), 2) << "\n";
  std::ostringstream out;

  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 3);
  EXPECT_EQ(summary.parse_errors, 1);
  EXPECT_EQ(summary.solved, 2);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_NE(responses[1].at("error").as_string().find("round-robin"),
            std::string::npos);
  EXPECT_TRUE(responses[2].at("ok").as_bool());
}

TEST(Batch, SecondRunAnswersFromCacheBitExactly) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_cache"));
  const e2e::Scenario scenarios[] = {small_scenario(60), small_scenario(40)};
  const std::string requests = request_line(scenarios[0], 0) + "\n" +
                               request_line(scenarios[1], 1) + "\n";

  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  const BatchSummary cold = run_batch(cold_in, cold_out, options);
  EXPECT_EQ(cold.solved, 2);
  EXPECT_EQ(cold.cached, 0);
  EXPECT_EQ(cold.cache_stats.misses, 2);
  EXPECT_EQ(cold.cache_stats.stores, 2);
  // The summary's solver work is this run's: real on the cold run...
  EXPECT_GT(cold.stats.optimize_evals, 0);
  EXPECT_GT(cold.stats.eb_evals, 0);
  EXPECT_GT(cold.stats.scan_ms + cold.stats.refine_ms, 0.0);

  std::stringstream warm_in(requests);
  std::ostringstream warm_out;
  const BatchSummary warm = run_batch(warm_in, warm_out, options);
  EXPECT_EQ(warm.solved, 0);
  EXPECT_EQ(warm.cached, 2);
  EXPECT_EQ(warm.cache_stats.hits, 2);
  // ...and none at all on the fully warm one: a hit replays no counters
  // or timings of whichever run wrote the entry.
  EXPECT_EQ(warm.stats.optimize_evals, 0);
  EXPECT_EQ(warm.stats.eb_evals, 0);
  EXPECT_EQ(warm.stats.sigma_evals, 0);
  EXPECT_EQ(warm.stats.batched_evals, 0);
  EXPECT_EQ(warm.stats.scan_ms, 0.0);
  EXPECT_EQ(warm.stats.refine_ms, 0.0);

  const std::vector<Value> a = parse_responses(cold_out.str());
  const std::vector<Value> b = parse_responses(warm_out.str());
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a[i].at("cache").as_string(), "miss");
    EXPECT_EQ(b[i].at("cache").as_string(), "hit");
    EXPECT_EQ(a[i].at("result").dump(), cold_bytes(scenarios[i]));
    EXPECT_EQ(b[i].at("result").dump(), cold_bytes(scenarios[i]));
  }

  // Version drift: an entry written by another library release is
  // stale, re-solved, and answered with the same bytes.
  const std::filesystem::path path =
      cache.entry_path(scalar_key(scenarios[0]));
  std::string text;
  {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  }
  const std::string version = "\"version\":\"";
  const std::size_t at = text.find(version);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + version.size(), "0.0.1-");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  std::stringstream stale_in(requests);
  std::ostringstream stale_out;
  const BatchSummary stale = run_batch(stale_in, stale_out, options);
  EXPECT_EQ(stale.cache_stats.stale, 1);
  EXPECT_EQ(stale.solved, 1);
  const std::vector<Value> c = parse_responses(stale_out.str());
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].at("cache").as_string(), "stale");
  EXPECT_EQ(c[0].at("result").dump(), cold_bytes(scenarios[0]));
  EXPECT_EQ(c[1].at("result").dump(), cold_bytes(scenarios[1]));
}

TEST(Batch, CorruptEntryRecoversWithWarningAndOverwrite) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_corrupt"));
  const e2e::Scenario sc = small_scenario(60);
  const std::string requests = request_line(sc, 0) + "\n";

  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  (void)run_batch(cold_in, cold_out, options);

  // Damage the entry on disk, then rerun: the batch must classify the
  // entry as corrupt, re-solve, say so in the "cache" tag, and repair
  // the cache.
  const std::string key = scalar_key(sc);
  std::ofstream(cache.entry_path(key), std::ios::trunc) << "not json";

  std::stringstream in(requests);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.cache_stats.corrupt, 1);
  EXPECT_EQ(summary.cache_stats.stores, 1);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "corrupt");
  // The tag is the whole record of the recovery: the answer itself is
  // the plain cold solve, with no warning folded into it.
  EXPECT_EQ(responses[0].at("result").dump(), cold_bytes(sc));

  // Third run: fully healed, answered from cache.
  std::stringstream healed_in(requests);
  std::ostringstream healed_out;
  const BatchSummary healed = run_batch(healed_in, healed_out, options);
  EXPECT_EQ(healed.cached, 1);
  EXPECT_EQ(healed.cache_stats.hits, 1);
  EXPECT_EQ(parse_responses(healed_out.str())[0].at("result").dump(),
            cold_bytes(sc));
}

TEST(Batch, PerRequestOptionsGroupAndSolveCorrectly) {
  // Same scenario under two option sets in one batch: a scheduler
  // override and the paper's K-procedure must each match their direct
  // solve, and grouping must not reorder responses.
  const e2e::Scenario sc = small_scenario(60);
  Value with_sched = Value::object();
  SolveOptions edf_opt;
  edf_opt.scheduler = sched::SchedulerKind::kEdf;
  with_sched.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(0.0))
      .set("scenario", encode_scenario(sc))
      .set("options", encode_solve_options(edf_opt));
  SolveOptions paper_opt;
  paper_opt.method = e2e::Method::kPaperK;
  Value with_method = Value::object();
  with_method.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(1.0))
      .set("scenario", encode_scenario(sc))
      .set("options", encode_solve_options(paper_opt));

  std::stringstream in(with_sched.dump() + "\n" + with_method.dump() + "\n");
  std::ostringstream out;
  (void)run_batch(in, out, BatchOptions{});

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  e2e::Scenario edf_sc = sc;
  edf_sc.scheduler = sched::SchedulerKind::kEdf;
  const e2e::BoundResult edf_direct = deltanc::Solver().solve(edf_sc);
  const e2e::BoundResult paper_direct =
      deltanc::Solver(e2e::Method::kPaperK).solve(sc);
  EXPECT_EQ(responses[0].at("id").as_number(), 0.0);
  EXPECT_EQ(decode_bound_result(responses[0].at("result")).delay_ms,
            edf_direct.delay_ms);
  EXPECT_EQ(decode_bound_result(responses[1].at("result")).delay_ms,
            paper_direct.delay_ms);
}

TEST(Batch, FinalLineWithoutTrailingNewlineIsAnswered) {
  // A request file truncated mid-stream (`emit-batch | head -c`, a
  // client hanging up after an unterminated write) still ends in a
  // valid request -- it must be answered, not silently dropped.
  std::stringstream in(request_line(small_scenario(60), 0) + "\n" +
                       request_line(small_scenario(40), 1));  // no '\n'
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 2);
  EXPECT_EQ(summary.responses, 2);
  EXPECT_FALSE(summary.output_failed);
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1].at("id").as_number(), 1.0);
  EXPECT_TRUE(responses[1].at("ok").as_bool());
}

TEST(Batch, OutputFailureIsReportedNotFatal) {
  // The consumer of the response stream hanging up (SIGPIPE is ignored
  // in the CLI; the stream just goes bad) must stop emission and be
  // reported via BatchSummary::output_failed, never crash the batch.
  class FailAfter : public std::streambuf {
   public:
    explicit FailAfter(std::size_t limit) : limit_(limit) {}

   protected:
    int overflow(int ch) override {
      if (written_ >= limit_) return traits_type::eof();  // "EPIPE"
      ++written_;
      return ch;
    }

   private:
    std::size_t limit_;
    std::size_t written_ = 0;
  };

  std::stringstream in(request_line(small_scenario(60), 0) + "\n" +
                       request_line(small_scenario(40), 1) + "\n");
  FailAfter buffer(10);  // dies mid-first-response
  std::ostream out(&buffer);
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_TRUE(summary.output_failed);
  EXPECT_EQ(summary.requests, 2);
  EXPECT_LT(summary.responses, 2);
}

TEST(Batch, StoreFailureDegradesToCountedSolveThrough) {
  // A full disk (simulated via the deterministic fault hook) must not
  // stop the batch: the result is still answered, the failure counted.
  ResultCache cache(fresh_cache_dir("deltanc_batch_store_fail"));
  cache.fail_next_stores(1);
  const std::string requests = request_line(small_scenario(60), 0) + "\n";

  BatchOptions options;
  options.cache = &cache;
  std::stringstream in(requests);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.cache_stats.stores, 0);
  EXPECT_EQ(summary.cache_stats.store_failures, 1);
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].at("result").dump(), cold_bytes(small_scenario(60)));

  // The entry never landed, so a rerun is a miss -- and this store
  // succeeds, healing the cache.
  std::stringstream again_in(requests);
  std::ostringstream again_out;
  const BatchSummary again = run_batch(again_in, again_out, options);
  EXPECT_EQ(again.solved, 1);
  EXPECT_EQ(again.cache_stats.stores, 1);
  EXPECT_EQ(again.cache_stats.store_failures, 0);
}

// ----- delay-profile requests --------------------------------------------

TEST(Batch, ScalarLineAndOneLevelProfileLineShareOneEntry) {
  // A scalar line is the one-level profile of its epsilon: it keys,
  // solves and stores exactly like {"epsilons": [epsilon]} -- one entry
  // on disk, whichever shape asked first -- and only the response shape
  // ("result" vs "profile") tells the two apart.
  const std::filesystem::path dir = fresh_cache_dir("deltanc_batch_one_level");
  ResultCache cache(dir);
  const e2e::Scenario sc = small_scenario(60);
  SolveOptions warm;
  warm.warm_start = e2e::WarmStart::kWarm;
  const std::string scalar = request_line(sc, 0);
  const std::string profile =
      profile_request_line(sc, 1, {sc.epsilon}, &warm);
  BatchOptions options;
  options.cache = &cache;

  std::stringstream first_in(scalar + "\n");
  std::ostringstream first_out;
  const BatchSummary first = run_batch(first_in, first_out, options);
  EXPECT_EQ(first.cache_stats.misses, 1);
  // A scalar's work is its level's stats: no profile is counted.
  EXPECT_GT(first.stats.optimize_evals, 0);
  EXPECT_EQ(first.stats.profile_levels, 0);

  std::stringstream mixed_in(scalar + "\n" + profile + "\n");
  std::ostringstream mixed_out;
  const BatchSummary mixed = run_batch(mixed_in, mixed_out, options);
  EXPECT_EQ(mixed.cached, 2);
  EXPECT_EQ(mixed.solved, 0);
  const std::vector<Value> responses = parse_responses(mixed_out.str());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[1].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[1].find("result"), nullptr);
  const e2e::DelayProfile got = decode_delay_profile(responses[1].at("profile"));
  ASSERT_EQ(got.levels.size(), 1u);
  EXPECT_EQ(got.epsilons[0], sc.epsilon);
  EXPECT_EQ(responses[0].at("result").dump(), cold_bytes(sc));
  EXPECT_EQ(encode_bound_result(got.levels[0]).dump(), cold_bytes(sc));

  // One entry serves both shapes.
  std::size_t entries = 0;
  for (const auto& item : std::filesystem::directory_iterator(
           cache.entry_path(scalar_key(sc)).parent_path())) {
    entries += item.path().extension() == ".json" ? 1 : 0;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(Batch, WarmOneLevelEdfProfileSolvesAsTheColdScalar) {
  // warm_start only changes how levels after the first reuse the chain,
  // so a one-level request solves cold.  For EDF that moves a warm
  // one-level profile: the warm engine would run its only level at the
  // reduced local budget and land on a slightly looser bound; the batch
  // answers with the full-budget scalar value instead.  The scenario is
  // one where the two budgets land on different bits (at H = 3, Nc = 100
  // the local one is 3.1e-14 relative looser); at many others they agree.
  e2e::Scenario sc = small_scenario(100);
  sc.epsilon = 1e-9;
  sc.scheduler = sched::SchedulerKind::kEdf;
  SolveOptions warm;
  warm.warm_start = e2e::WarmStart::kWarm;
  const std::vector<double> level = {sc.epsilon};
  std::stringstream in(profile_request_line(sc, 0, level, &warm) + "\n");
  std::ostringstream out;
  (void)run_batch(in, out, BatchOptions{});
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  const e2e::DelayProfile got = decode_delay_profile(responses[0].at("profile"));
  ASSERT_EQ(got.levels.size(), 1u);
  EXPECT_EQ(encode_bound_result(got.levels[0]).dump(), cold_bytes(sc));
  EXPECT_EQ(encode_delay_profile(got).dump(), cold_profile_bytes(sc, level));
  // The engine's warm one-level path differs here (what the batch no
  // longer answers); the cold value is the tighter one.
  const e2e::DelayProfile engine_warm =
      deltanc::Solver(warm).solve_profile(sc, level);
  EXPECT_NE(engine_warm.levels[0].delay_ms, got.levels[0].delay_ms);
  EXPECT_LE(got.levels[0].delay_ms, engine_warm.levels[0].delay_ms);
}

TEST(Batch, ProfileRequestsAnswerFullArtifactsInOrder) {
  // A profile request rides in the same stream as scalar ones; its
  // response carries the whole d(epsilon) artifact under "profile", and
  // each level matches the direct cold solve_profile bit-for-bit.
  const e2e::Scenario sc = small_scenario(60);
  const std::vector<double> grid = {1e-3, 1e-6, 1e-9};
  std::stringstream in;
  in << profile_request_line(sc, 0, grid) << "\n";
  in << request_line(small_scenario(40), 1) << "\n";
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 2);
  EXPECT_EQ(summary.solved, 2);
  EXPECT_EQ(summary.failed, 0);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].at("id").as_number(), 0.0);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].find("result"), nullptr);
  const e2e::DelayProfile got =
      decode_delay_profile(responses[0].at("profile"));
  const e2e::DelayProfile direct =
      deltanc::Solver().solve_profile(sc, grid);
  ASSERT_EQ(got.levels.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.epsilons[i], direct.epsilons[i]);
    EXPECT_EQ(got.levels[i].delay_ms, direct.levels[i].delay_ms);
    EXPECT_EQ(got.levels[i].s, direct.levels[i].s);
  }
  // The scalar neighbor is unaffected.
  EXPECT_NE(responses[1].find("result"), nullptr);
  EXPECT_EQ(responses[1].find("profile"), nullptr);
  // Aggregate stats count the profile's levels.
  EXPECT_EQ(summary.stats.profile_levels, 3);
}

TEST(Batch, ProfileSecondRunAnswersFromCacheBitExactly) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_profile_cache"));
  const e2e::Scenario sc = small_scenario(60);
  const std::vector<double> grid = {1e-3, 1e-8};
  // A scalar request of the *same* scenario shares the batch: its level
  // is not on the grid, so it keys and stores its own entry.
  const std::string requests = profile_request_line(sc, 0, grid) + "\n" +
                               request_line(sc, 1) + "\n";
  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  const BatchSummary cold = run_batch(cold_in, cold_out, options);
  EXPECT_EQ(cold.solved, 2);
  EXPECT_EQ(cold.cache_stats.stores, 2);

  std::stringstream warm_in(requests);
  std::ostringstream warm_out;
  const BatchSummary warm = run_batch(warm_in, warm_out, options);
  EXPECT_EQ(warm.solved, 0);
  EXPECT_EQ(warm.cached, 2);
  EXPECT_EQ(warm.cache_stats.hits, 2);

  const std::vector<Value> a = parse_responses(cold_out.str());
  const std::vector<Value> b = parse_responses(warm_out.str());
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].at("cache").as_string(), "hit");
  EXPECT_EQ(a[0].at("profile").dump(), cold_profile_bytes(sc, grid));
  EXPECT_EQ(b[0].at("profile").dump(), cold_profile_bytes(sc, grid));
  EXPECT_EQ(b[1].at("result").dump(), cold_bytes(sc));
  // A warm run solved nothing, so it reports no solver work.
  EXPECT_EQ(warm.stats.profile_levels, 0);
  EXPECT_EQ(warm.stats.optimize_evals, 0);
}

TEST(Batch, ProfileEpsilonGridIsValidatedAtParseTime) {
  // An empty grid and an out-of-range level are malformed requests,
  // answered in place without aborting the batch.
  const e2e::Scenario sc = small_scenario(60);
  std::stringstream in;
  in << profile_request_line(sc, 0, {}) << "\n";
  in << profile_request_line(sc, 1, {2.0}) << "\n";
  in << profile_request_line(sc, 2, {1e-3}) << "\n";  // valid
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.parse_errors, 2);
  EXPECT_EQ(summary.solved, 1);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_TRUE(responses[2].at("ok").as_bool());
  // The error responses still echo the ids they managed to read.
  EXPECT_EQ(responses[0].at("id").as_number(), 0.0);
  EXPECT_EQ(responses[1].at("id").as_number(), 1.0);
}

TEST(Batch, ProfileCorruptEntryRecoversWithWarningAndOverwrite) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_profile_corrupt"));
  const e2e::Scenario sc = small_scenario(60);
  const std::vector<double> grid = {1e-3, 1e-9};
  const std::string requests = profile_request_line(sc, 0, grid) + "\n";
  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  (void)run_batch(cold_in, cold_out, options);

  const std::string key = cache_key(sc, grid, SolveOptions{});
  std::ofstream(cache.entry_path(key), std::ios::trunc) << "not json";

  std::stringstream in(requests);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.cache_stats.corrupt, 1);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "corrupt");
  // The tag is the whole record of the recovery; the profile is the
  // plain cold solve.
  EXPECT_EQ(responses[0].at("profile").dump(), cold_profile_bytes(sc, grid));

  std::stringstream healed_in(requests);
  std::ostringstream healed_out;
  const BatchSummary healed = run_batch(healed_in, healed_out, options);
  EXPECT_EQ(healed.cached, 1);
}

TEST(Batch, UnstableProfileAnswersOkWithClassifiedInfLevels) {
  // An unstable scenario is a *solved* profile whose every level is the
  // classified +inf bound -- same discipline as the scalar path.
  const e2e::Scenario sc = small_scenario(800);
  std::stringstream in(profile_request_line(sc, 0, {1e-3, 1e-9}) + "\n");
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.failed, 0);
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  const e2e::DelayProfile p = decode_delay_profile(responses[0].at("profile"));
  ASSERT_EQ(p.levels.size(), 2u);
  for (const e2e::BoundResult& level : p.levels) {
    EXPECT_TRUE(std::isinf(level.delay_ms));
    EXPECT_FALSE(level.diagnostics.ok());
  }
}

}  // namespace
}  // namespace deltanc::io

// The persistent solve service: fault-plan grammar, bounded-queue
// backpressure, warm-layer behavior, and every robustness path --
// timeout, crashed-worker requeue/retry-exhaustion, store-failure
// solve-through, corrupt-load recovery, reload, and drain -- each
// driven deterministically via serve::FaultPlan.  Through every warm
// layer and recovery path, an answer's "result"/"profile" payload is
// byte-identical to the encoding of a fresh cold solve.
#include "e2e/solver.h"
#include "serve/service.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/batch.h"
#include "io/codec.h"
#include "serve/bounded_queue.h"
#include "serve/fault_plan.h"
#include "serve/listener.h"

namespace deltanc::serve {
namespace {

using io::json::Value;

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
  req.set("schema", Value::number(io::kSchemaVersion))
      .set("id", Value::number(id))
      .set("scenario", io::encode_scenario(sc));
  return req.dump();
}

/// The encoded answer of a fresh cold solve: what every response must
/// carry byte for byte, whatever layer answered it.
std::string cold_bytes(const e2e::Scenario& sc) {
  return io::encode_bound_result(deltanc::Solver().solve(sc)).dump();
}

std::filesystem::path fresh_cache_dir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Thread-safe response collector; tests block until N answers arrive.
class Collector {
 public:
  SolveService::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
      cv_.notify_all();
    };
  }

  std::vector<Value> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(30),
                 [&] { return lines_.size() >= n; });
    std::vector<Value> out;
    for (const std::string& line : lines_) out.push_back(Value::parse(line));
    return out;
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

/// Finds the response whose "id" is `id`; fails the test when absent.
const Value* find_id(const std::vector<Value>& responses, double id) {
  for (const Value& r : responses) {
    const Value* rid = r.find("id");
    if (rid != nullptr && rid->is_number() && rid->as_number() == id) {
      return &r;
    }
  }
  return nullptr;
}

// ----- FaultPlan grammar ---------------------------------------------------

TEST(FaultPlan, ParsesEveryEntryKindAndRoundTrips) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse(
      "kill:0:3;delay:7:250;store-fail:2;load-corrupt:1", plan, error))
      << error;
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].worker, 0);
  EXPECT_EQ(plan.kills[0].at, 3u);
  ASSERT_EQ(plan.delays.size(), 1u);
  EXPECT_EQ(plan.delays[0].id, 7.0);
  EXPECT_EQ(plan.delays[0].ms, 250.0);
  EXPECT_EQ(plan.store_failures, 2);
  EXPECT_EQ(plan.load_corrupts, 1);

  // The canonical spelling parses back to the same plan.
  FaultPlan again;
  ASSERT_TRUE(FaultPlan::parse(plan.to_string(), again, error)) << error;
  EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST(FaultPlan, EmptySpecIsEmptyPlanAndBadSpecsAreRejected) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("", plan, error));
  EXPECT_TRUE(plan.empty());

  for (const char* bad :
       {"kill:0", "kill:a:1", "kill:0:0", "delay:1", "nap:1:2",
        "store-fail:-1", "store-fail:1.5", "load-corrupt:x",
        "kill:0:1;bogus"}) {
    EXPECT_FALSE(FaultPlan::parse(bad, plan, error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(FaultPlan, KillsFireOncePerEntryAndDelaysAreNotConsumed) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("kill:1:2;delay:5:10;load-corrupt:2", plan,
                               error));
  FaultClock clock(plan);
  EXPECT_FALSE(clock.should_kill(0, 2));  // wrong worker
  EXPECT_FALSE(clock.should_kill(1, 1));  // wrong count
  EXPECT_TRUE(clock.should_kill(1, 2));
  EXPECT_FALSE(clock.should_kill(1, 2));  // one-shot

  // A requeued request is delayed again (delays never deplete).
  EXPECT_EQ(clock.delay_ms_for(5.0), 10.0);
  EXPECT_EQ(clock.delay_ms_for(5.0), 10.0);
  EXPECT_EQ(clock.delay_ms_for(6.0), 0.0);

  EXPECT_TRUE(clock.corrupt_next_load());
  EXPECT_TRUE(clock.corrupt_next_load());
  EXPECT_FALSE(clock.corrupt_next_load());  // budget drained
}

// ----- BoundedQueue --------------------------------------------------------

TEST(BoundedQueue, FullQueueRejectsButRequeueJumpsTheBound) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));     // backpressure
  EXPECT_TRUE(queue.push_front(99));   // accepted work never bounces
  EXPECT_EQ(queue.pop().value(), 99);  // and jumps the line
  EXPECT_EQ(queue.pop().value(), 1);
  queue.close();
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_EQ(queue.pop().value(), 2);        // close() still drains
  EXPECT_FALSE(queue.pop().has_value());    // then signals shutdown
}

// ----- SolveService --------------------------------------------------------

TEST(SolveServiceTest, SolvesParsesAndIgnoresBlankLines) {
  ServeOptions options;
  options.workers = 2;
  SolveService service(options);
  Collector collector;
  service.submit(request_line(small_scenario(60), 0), collector.sink());
  service.submit("   ", collector.sink());  // ignored, no response
  service.submit("{\"schema\":3,\"id\":7,\"scenario\":42}",
                 collector.sink());  // undecodable, answered in place
  const std::vector<Value> responses = collector.wait_for(2);
  ASSERT_EQ(responses.size(), 2u);

  const Value* solved = find_id(responses, 0.0);
  ASSERT_NE(solved, nullptr);
  EXPECT_TRUE(solved->at("ok").as_bool());
  // No cache directory attached: no "cache" tag, like cache-less batch.
  EXPECT_EQ(solved->find("cache"), nullptr);
  const e2e::BoundResult direct = deltanc::Solver().solve(small_scenario(60));
  EXPECT_EQ(io::decode_bound_result(solved->at("result")).delay_ms,
            direct.delay_ms);

  const Value* bad = find_id(responses, 7.0);
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->at("ok").as_bool());
  EXPECT_EQ(bad->find("kind"), nullptr);  // plain parse error, no kind

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.received, 2);
  EXPECT_EQ(stats.answered, 2);
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.parse_errors, 1);
}

TEST(SolveServiceTest, WarmLayersServeRepeatsAndReloadDropsMemory) {
  ServeOptions options;
  options.workers = 1;
  options.cache_dir = fresh_cache_dir("serve_warm");
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(50), 0);

  service.submit(line, collector.sink());
  collector.wait_for(1);
  service.submit(line, collector.sink());  // memory hit
  collector.wait_for(2);
  service.reload();                        // drops the memory layer
  service.submit(line, collector.sink());  // disk hit
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  // Solve, memory hit and disk hit answer with the same bytes: only the
  // "cache" tag says which layer it was.
  for (int i : {0, 1, 2}) {
    EXPECT_EQ(responses[i].at("result").dump(),
              cold_bytes(small_scenario(50)));
  }

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.memory_hits, 1);  // the post-reload hit came from disk
  EXPECT_EQ(stats.reloads, 1);
  // Cache traffic survives the reload (retired + live handles).
  EXPECT_EQ(stats.cache.stores, 1);
  EXPECT_EQ(stats.cache.hits, 1);
}

TEST(SolveServiceTest, DeadlineOverrunAnswersClassifiedTimeout) {
  ServeOptions options;
  options.workers = 1;
  options.deadline_ms = 60;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("delay:5:2000", options.faults, error));
  SolveService service(options);
  Collector collector;
  service.submit(request_line(small_scenario(45), 5), collector.sink());
  const std::vector<Value> responses = collector.wait_for(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].at("kind").as_string(), "timeout");

  // The replacement worker keeps serving after the zombie is abandoned.
  service.submit(request_line(small_scenario(46), 6), collector.sink());
  const std::vector<Value> more = collector.wait_for(2);
  const Value* next = find_id(more, 6.0);
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(next->at("ok").as_bool());

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.answered, 2);
}

TEST(SolveServiceTest, CrashedWorkerRequeuesAndStillAnswers) {
  ServeOptions options;
  options.workers = 1;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("kill:0:1", options.faults, error));
  SolveService service(options);
  Collector collector;
  service.submit(request_line(small_scenario(44), 3), collector.sink());
  const std::vector<Value> responses = collector.wait_for(1);
  ASSERT_EQ(responses.size(), 1u);
  // The crash is invisible to the client: the retry answered normally.
  EXPECT_TRUE(responses[0].at("ok").as_bool());

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.worker_losses, 1);
  EXPECT_EQ(stats.requeues, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.exhausted, 0);
}

TEST(SolveServiceTest, RetryExhaustionClassifiesWorkerLost) {
  ServeOptions options;
  options.workers = 1;
  options.max_requeues = 2;
  std::string error;
  // Every incumbent dies on its first dequeue: initial try + 2 retries.
  ASSERT_TRUE(FaultPlan::parse("kill:0:1;kill:0:1;kill:0:1", options.faults,
                               error));
  SolveService service(options);
  Collector collector;
  service.submit(request_line(small_scenario(43), 9), collector.sink());
  const std::vector<Value> responses = collector.wait_for(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].at("kind").as_string(), "worker-lost");

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.worker_losses, 3);
  EXPECT_EQ(stats.requeues, 2);
  EXPECT_EQ(stats.exhausted, 1);
  EXPECT_EQ(stats.answered, 1);  // classified, never silently dropped
}

TEST(SolveServiceTest, StoreFailureDegradesToCountedSolveThrough) {
  ServeOptions options;
  options.workers = 1;
  options.memory_entries = 0;  // force every repeat through the disk
  options.cache_dir = fresh_cache_dir("serve_store_fail");
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("store-fail:1", options.faults, error));
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(42), 0);

  service.submit(line, collector.sink());  // solves; store fails
  collector.wait_for(1);
  service.submit(line, collector.sink());  // still a miss; store succeeds
  collector.wait_for(2);
  service.submit(line, collector.sink());  // now a disk hit
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  for (const Value& r : responses) {
    EXPECT_TRUE(r.at("ok").as_bool());
    EXPECT_EQ(r.at("result").dump(), cold_bytes(small_scenario(42)));
  }

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.cache.store_failures, 1);
  EXPECT_EQ(stats.cache.stores, 1);
  EXPECT_EQ(stats.solved, 2);
  EXPECT_EQ(stats.served, 1);
}

TEST(SolveServiceTest, FailedStoreLeavesMemoryLayerCold) {
  ServeOptions options;
  options.workers = 1;  // memory layer stays at its default (enabled)
  options.cache_dir = fresh_cache_dir("serve_store_fail_memory");
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("store-fail:1", options.faults, error));
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(44), 0);

  service.submit(line, collector.sink());  // solves; store fails
  collector.wait_for(1);
  service.submit(line, collector.sink());
  const std::vector<Value> responses = collector.wait_for(2);
  ASSERT_EQ(responses.size(), 2u);
  // The failed store must leave the memory layer cold too: a --batch
  // run over the same directory would miss and re-solve, so a memory
  // hit here would report cache:"hit" for an entry the disk never
  // recorded.  The second request re-solves (miss) and stores.
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "miss");

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.memory_hits, 0);
  EXPECT_EQ(stats.solved, 2);
  EXPECT_EQ(stats.cache.store_failures, 1);
  EXPECT_EQ(stats.cache.stores, 1);
}

TEST(SolveServiceTest, InjectedCorruptLoadRecoversLikeBatch) {
  ServeOptions options;
  options.workers = 1;
  options.memory_entries = 0;
  options.cache_dir = fresh_cache_dir("serve_corrupt");
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("load-corrupt:1", options.faults, error));
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(41), 0);

  service.submit(line, collector.sink());  // cold solve + store
  collector.wait_for(1);
  service.submit(line, collector.sink());  // hit forced corrupt: re-solve
  collector.wait_for(2);
  service.submit(line, collector.sink());  // clean hit again
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[1].at("cache").as_string(), "corrupt");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  // Like the batch path, the recovery is recorded by the tag alone: all
  // three answers are the plain cold solve.
  for (const Value& r : responses) {
    EXPECT_EQ(r.at("result").dump(), cold_bytes(small_scenario(41)));
  }
  service.drain();
}

TEST(SolveServiceTest, FullQueueAndDrainingAnswerClassifiedOverload) {
  ServeOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  std::string error;
  // Hold the single worker busy so follow-ups pile into the queue.
  ASSERT_TRUE(FaultPlan::parse("delay:0:400", options.faults, error));
  SolveService service(options);
  Collector collector;
  const auto submit_id = [&](int id) {
    service.submit(request_line(small_scenario(40 + id), id),
                   collector.sink());
  };
  submit_id(0);  // occupies the worker (delayed 400 ms)
  // Give the worker a beat to dequeue id 0 before filling the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  submit_id(1);  // fills the depth-1 queue (or is itself rejected on a
  submit_id(2);  // slow machine where id 0 is still queued)
  submit_id(3);
  const std::vector<Value> responses = collector.wait_for(4);
  ASSERT_EQ(responses.size(), 4u);
  // id 0 was accepted first and must be answered; of ids 1-3, at least
  // two bounce off the depth-1 queue with a classified overload.
  const Value* first = find_id(responses, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->at("ok").as_bool());
  int overloads = 0;
  for (const int id : {1, 2, 3}) {
    const Value* r = find_id(responses, id);
    ASSERT_NE(r, nullptr);
    if (!r->at("ok").as_bool()) {
      EXPECT_EQ(r->at("kind").as_string(), "overload");
      ++overloads;
    }
  }
  EXPECT_GE(overloads, 2);

  service.drain();
  // Post-drain submissions are refused with the same classification.
  Collector late;
  service.submit(request_line(small_scenario(39), 8), late.sink());
  const std::vector<Value> refused = late.wait_for(1);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_FALSE(refused[0].at("ok").as_bool());
  EXPECT_EQ(refused[0].at("kind").as_string(), "overload");
  EXPECT_EQ(service.stats().overloads, overloads + 1);
}

TEST(SolveServiceTest, DrainAnswersEverythingAcceptedExactlyOnce) {
  ServeOptions options;
  options.workers = 4;
  options.cache_dir = fresh_cache_dir("serve_drain");
  SolveService service(options);
  Collector collector;
  constexpr int kRequests = 48;
  for (int i = 0; i < kRequests; ++i) {
    // 12 distinct keys cycled 4x: exercises all shards plus warm hits.
    service.submit(request_line(small_scenario(30 + (i % 12)), i),
                   collector.sink());
  }
  service.drain();  // must block until every request is answered
  EXPECT_EQ(collector.count(), static_cast<std::size_t>(kRequests));
  const std::vector<Value> responses = collector.wait_for(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const Value* r = find_id(responses, i);
    ASSERT_NE(r, nullptr) << "request " << i << " was never answered";
    EXPECT_TRUE(r->at("ok").as_bool());
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.received, kRequests);
  EXPECT_EQ(stats.answered, kRequests);
  EXPECT_EQ(stats.solved, 12);
  EXPECT_EQ(stats.served, kRequests - 12);
}

TEST(SolveServiceTest, ProfileRequestsAnswerThroughEveryWarmLayer) {
  // A profile request must flow through the same three layers as a
  // scalar one -- solve+store, in-memory warm hit, disk hit after a
  // reload -- and every answer must carry identical profile bits.
  ServeOptions options;
  options.workers = 1;
  options.cache_dir = fresh_cache_dir("serve_profile_warm");
  SolveService service(options);
  Collector collector;
  Value eps = Value::array();
  eps.push_back(io::encode_double(1e-3));
  eps.push_back(io::encode_double(1e-9));
  Value req = Value::object();
  req.set("schema", Value::number(io::kSchemaVersion))
      .set("id", Value::number(0))
      .set("scenario", io::encode_scenario(small_scenario(50)))
      .set("epsilons", std::move(eps));
  const std::string line = req.dump();

  service.submit(line, collector.sink());
  collector.wait_for(1);
  service.submit(line, collector.sink());  // memory hit
  collector.wait_for(2);
  service.reload();                        // drops the memory layer
  service.submit(line, collector.sink());  // disk hit
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  const std::vector<double> grid = {1e-3, 1e-9};
  const std::string fresh =
      io::encode_delay_profile(
          deltanc::Solver().solve_profile(small_scenario(50), grid))
          .dump();
  for (int i : {0, 1, 2}) {
    EXPECT_EQ(responses[i].at("profile").dump(), fresh);
  }

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.memory_hits, 1);
  EXPECT_EQ(stats.cache.stores, 1);
  EXPECT_EQ(stats.cache.hits, 1);
}

TEST(SolveServiceTest, ProfileAnswersMatchBatchBytesModuloTimings) {
  // The serve path must answer a profile request with run_batch's exact
  // response document -- byte for byte, no normalization: the encoded
  // answer carries no wall-clock timings.
  const std::string line = [&] {
    Value eps = Value::array();
    eps.push_back(io::encode_double(1e-4));
    eps.push_back(io::encode_double(1e-7));
    Value req = Value::object();
    req.set("schema", Value::number(io::kSchemaVersion))
        .set("id", Value::number(3))
        .set("scenario", io::encode_scenario(small_scenario(45)))
        .set("epsilons", std::move(eps));
    return req.dump();
  }();

  ServeOptions options;
  options.workers = 1;
  SolveService service(options);
  Collector collector;
  service.submit(line, collector.sink());
  const std::vector<Value> served = collector.wait_for(1);
  ASSERT_EQ(served.size(), 1u);
  service.drain();

  std::stringstream in(line + "\n");
  std::ostringstream out;
  (void)io::run_batch(in, out, io::BatchOptions{});
  const std::vector<Value> batched = {Value::parse(
      out.str().substr(0, out.str().find('\n')))};

  EXPECT_EQ(served[0].dump(), batched[0].dump());
  for (const char* timing : {"scan_ms", "refine_ms"}) {
    EXPECT_EQ(served[0].dump().find(timing), std::string::npos) << timing;
  }
}

TEST(SolveServiceTest, MemoryLayerHoldsOneBudgetForBothShapes) {
  // Scalar and profile answers share one memory map under one
  // memory_entries budget, and a scalar request and the one-level
  // profile of its epsilon are one key there as on disk.
  ServeOptions options;
  options.workers = 1;
  options.memory_entries = 1;
  options.cache_dir = fresh_cache_dir("serve_one_budget");
  SolveService service(options);
  Collector collector;
  const e2e::Scenario sc = small_scenario(50);
  const auto profile_line = [&](int id, std::vector<double> grid) {
    Value eps = Value::array();
    for (double e : grid) eps.push_back(io::encode_double(e));
    Value req = Value::object();
    req.set("schema", Value::number(io::kSchemaVersion))
        .set("id", Value::number(id))
        .set("scenario", io::encode_scenario(sc))
        .set("epsilons", std::move(eps));
    return req.dump();
  };

  service.submit(request_line(sc, 0), collector.sink());  // solve A
  collector.wait_for(1);
  service.submit(profile_line(1, {1e-3, 1e-9}), collector.sink());  // evicts A
  collector.wait_for(2);
  service.submit(request_line(sc, 2), collector.sink());  // A from disk
  collector.wait_for(3);
  service.submit(profile_line(3, {sc.epsilon}), collector.sink());  // A, memory
  const std::vector<Value> responses = collector.wait_for(4);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[2].at("result").dump(), cold_bytes(sc));
  const e2e::DelayProfile one =
      io::decode_delay_profile(responses[3].at("profile"));
  ASSERT_EQ(one.levels.size(), 1u);
  EXPECT_EQ(io::encode_bound_result(one.levels[0]).dump(), cold_bytes(sc));

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.solved, 2);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.memory_hits, 1);  // only the one-level profile of A
  EXPECT_EQ(stats.cache.hits, 1);   // A after its eviction
  EXPECT_EQ(stats.cache.stores, 2);
}

// ----- socket framing ------------------------------------------------------

// The listener's stop flag is a signal flag: set it from a handler that
// runs on the listener's own thread (pthread_kill), as a real SIGTERM
// would, so no other thread writes what the accept loop reads.
volatile std::sig_atomic_t g_framing_stop = 0;
extern "C" void framing_stop_handler(int) { g_framing_stop = 1; }

TEST(SocketServer, LongUnterminatedLineIsFramedInLinearTime) {
  // One 32 MB request line with no newline, then EOF.  Framing must
  // search each byte for '\n' once: re-searching the whole buffer after
  // every 4 KB recv is quadratic and takes over 9 s on this line.  The
  // line is still a request (truncated final line) and gets exactly one
  // answer.
  ServeOptions serve_options;
  serve_options.workers = 1;
  SolveService service(serve_options);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "framing.sock").string();
  struct sigaction stop_action {};
  stop_action.sa_handler = framing_stop_handler;
  sigemptyset(&stop_action.sa_mask);
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &stop_action, &previous), 0);
  g_framing_stop = 0;
  ListenerOptions options;
  options.socket_path = path;
  options.stop = &g_framing_stop;
  std::ostringstream server_err;
  bool clean = false;
  std::thread server(
      [&] { clean = run_socket_server(service, options, server_err); });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  bool connected = false;
  for (int attempt = 0; attempt < 200 && !connected; ++attempt) {
    connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0;
    if (!connected) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(connected) << server_err.str();

  const auto t0 = std::chrono::steady_clock::now();
  const std::string block(1 << 20, 'x');
  for (int mb = 0; mb < 32; ++mb) {
    std::size_t sent = 0;
    while (sent < block.size()) {
      const ssize_t n = ::send(fd, block.data() + sent, block.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }
  ::shutdown(fd, SHUT_WR);
  std::string answers;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    answers.append(chunk, static_cast<std::size_t>(n));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ::close(fd);
  ::pthread_kill(server.native_handle(), SIGUSR1);
  server.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  EXPECT_TRUE(clean) << server_err.str();
  ASSERT_FALSE(answers.empty());
  EXPECT_EQ(answers.find('\n'), answers.size() - 1) << "exactly one answer";
  EXPECT_FALSE(Value::parse(answers.substr(0, answers.size() - 1))
                   .at("ok")
                   .as_bool());
  EXPECT_LT(seconds, 5.0);
  EXPECT_EQ(service.stats().answered, 1);
}

}  // namespace
}  // namespace deltanc::serve

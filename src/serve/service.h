// Persistent solve service -- the engine behind `deltanc_cli --serve`.
//
// A SolveService keeps everything a one-shot `--batch` run throws away
// warm across requests: per-worker SolveWorkspaces and eb-memos (one
// Solver per solve-options flavor per worker thread), a per-worker
// in-memory answer map (the "warm cache"), and per-worker handles on
// the persistent disk ResultCache.  The keyspace is sharded across the
// N workers by the FNV prefix of the canonical cache key
// (io::ResultCache::shard_of), so exactly one worker ever touches a
// given key: warm state needs no cross-worker locks and disk entries
// stay compatible with unsharded `--batch` readers of the same
// directory.
//
// Robustness is the contract, not an afterthought.  Every accepted
// request line is answered exactly once -- with a solved/served
// response byte-identical to run_batch's, or with a *classified* error
// response -- never dropped silently:
//   * Bounded per-worker queues: when a shard's queue is full the
//     request is answered kOverload immediately (backpressure instead
//     of unbounded memory growth).
//   * Per-request deadline: a solve that overruns it is answered
//     kTimeout by the supervisor; the wedged worker is abandoned and a
//     fresh one spawned, so one slow request never stalls its shard.
//     The abandoned thread discards its late result and exits.
//   * Crashed workers (exercised deterministically via
//     serve::FaultPlan's kill entries): the supervisor detects the
//     death, requeues the in-flight request with bounded retries and
//     backoff, respawns the worker, and -- when retries are exhausted
//     -- answers kWorkerLost instead of dropping the request.
//   * Cache misbehavior degrades gracefully: a failed store (full
//     disk) is a counted solve-through (CacheStats::store_failures), a
//     corrupt entry re-solves and is tagged "cache":"corrupt", exactly
//     as on the batch path.
//   * drain() (SIGTERM) stops intake, answers everything already
//     accepted, and joins all threads; reload() (SIGHUP) drops the
//     in-memory warm layer and reopens the disk caches without
//     restarting the process.
//
// The service is transport-free: submit() takes a raw JSONL request
// line plus a sink that receives exactly one JSONL response line
// (possibly from another thread).  serve/listener.h adapts it onto a
// Unix-domain socket.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "io/batch.h"
#include "serve/fault_plan.h"

namespace deltanc::serve {

struct ServeOptions {
  /// Worker (= cache shard) count; <= 0 resolves like the sweep
  /// engine: DELTANC_THREADS env, else hardware_concurrency().
  int workers = 0;
  /// Bounded per-worker queue depth; a full queue answers kOverload.
  std::size_t queue_depth = 512;
  /// Per-request deadline (ms); 0 disables timeouts.
  double deadline_ms = 0.0;
  /// Requeue budget for requests orphaned by a crashed worker; after
  /// this many retries the request is answered kWorkerLost.
  int max_requeues = 2;
  /// Base backoff before a requeue (doubles per retry, capped at 8x).
  double requeue_backoff_ms = 1.0;
  /// Per-worker in-memory warm-answer cap (entries), one budget shared
  /// by scalar and profile requests (both are profiles there); 0
  /// disables the memory layer (every warm hit re-reads the disk cache).
  std::size_t memory_entries = 1 << 16;
  /// Persistent cache directory; empty = no disk cache (solve-only,
  /// responses carry no "cache" tag, exactly like cache-less --batch).
  std::filesystem::path cache_dir;
  /// Method used when a request carries no "options" object.
  e2e::Method default_method = e2e::Method::kExactOpt;
  /// Deterministic fault injection (see serve/fault_plan.h).
  FaultPlan faults{};
};

/// Running totals of one service lifetime (summed over all workers).
struct ServeStats {
  std::int64_t received = 0;       ///< non-blank lines submitted
  std::int64_t answered = 0;       ///< sink calls that completed
  std::int64_t parse_errors = 0;   ///< answered with ok=false (no kind)
  std::int64_t solved = 0;         ///< answered by running the solver
  std::int64_t served = 0;         ///< answered from memory or disk cache
  std::int64_t memory_hits = 0;    ///< subset of `served`: memory layer
  std::int64_t failed = 0;         ///< solver failures (response ok=true,
                                   ///<   result carries the +inf bound)
  std::int64_t timeouts = 0;       ///< answered kTimeout by the supervisor
  std::int64_t overloads = 0;      ///< answered kOverload (full queue/drain)
  std::int64_t worker_losses = 0;  ///< worker crashes detected
  std::int64_t requeues = 0;       ///< orphaned requests re-queued
  std::int64_t exhausted = 0;      ///< answered kWorkerLost (retries spent)
  std::int64_t discarded = 0;      ///< late results of abandoned workers
  std::int64_t dropped = 0;        ///< sink threw (client hung up)
  int respawns = 0;                ///< replacement workers spawned
  int reloads = 0;                 ///< reload() calls
  io::CacheStats cache{};          ///< disk traffic summed over shards
};

/// The transport-free service core.  Construction spawns the worker
/// pool and the supervisor; destruction drains.  submit()/reload()/
/// drain()/stats() are thread-safe.
class SolveService {
 public:
  /// Receives exactly one JSONL response line per submitted request.
  /// May be invoked from any service thread; exceptions are swallowed
  /// and counted as `dropped`.
  using Sink = std::function<void(const std::string& line)>;

  /// @throws std::runtime_error when the cache directory cannot be
  /// opened.
  explicit SolveService(const ServeOptions& options);
  ~SolveService();
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Resolved worker/shard count.
  [[nodiscard]] int workers() const noexcept;

  /// Submits one raw JSONL request line.  Blank lines are ignored
  /// (no sink call); every other line gets exactly one response --
  /// parse errors, overload, and drain rejections synchronously from
  /// this thread, solved/served answers later from a worker thread.
  void submit(const std::string& line, Sink sink);

  /// SIGHUP handler: drops every worker's in-memory warm layer and
  /// reopens the disk caches (accumulated CacheStats survive), so an
  /// externally doctored cache directory takes effect without
  /// restarting the service.
  void reload();

  /// SIGTERM handler: stops intake (further submits answer kOverload
  /// "draining"), waits until every accepted request is answered, and
  /// joins all threads.  Idempotent.
  void drain();

  [[nodiscard]] ServeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace deltanc::serve

#include "io/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "e2e/solver.h"

namespace deltanc::io {

namespace {

using Clock = std::chrono::steady_clock;
using json::Value;

/// One input line's lifecycle through the batch.
struct Request {
  bool parsed = false;
  bool ok = true;          ///< false when the solve failed (classified)
  std::string error;       ///< parse/decode failure when !parsed
  ParsedRequestLine line;  ///< valid when parsed
  CacheLookup outcome = CacheLookup::kMiss;
  e2e::DelayProfile answer;  ///< cache hit or solve
};

}  // namespace

const char* cache_lookup_name(CacheLookup outcome) {
  switch (outcome) {
    case CacheLookup::kHit:
      return "hit";
    case CacheLookup::kMiss:
      return "miss";
    case CacheLookup::kStale:
      return "stale";
    case CacheLookup::kCorrupt:
      return "corrupt";
  }
  return "?";
}

ParsedRequestLine parse_request_line(const std::string& line,
                                     e2e::Method default_method) {
  const Value doc = Value::parse(line);
  ParsedRequestLine req;
  try {
    // Capture the id before any validation so even a wrong-schema or
    // undecodable request gets its error echoed back under its own id.
    if (const Value* id = doc.find("id")) req.id = *id;
    require_schema(doc);
    e2e::Scenario sc = decode_scenario(doc.at("scenario"));
    SolveOptions options;
    options.method = default_method;
    if (const Value* o = doc.find("options"); o != nullptr && !o->is_null()) {
      options = decode_solve_options(*o);
    }
    // A non-null "epsilons" array asks for that grid; it is validated
    // here so a malformed one is a parse error (the engine would throw
    // the same complaint mid-solve otherwise).  A line without one is
    // the one-level profile of its own epsilon, which the solve's
    // scenario validation classifies when out of range.
    if (const Value* eps = doc.find("epsilons");
        eps != nullptr && !eps->is_null()) {
      for (const Value& e : eps->items()) {
        const double epsilon = decode_double(e);
        if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
          throw CodecError("batch: profile epsilons must be in (0, 1), got " +
                           e.dump());
        }
        req.epsilons.push_back(epsilon);
      }
      if (req.epsilons.empty()) {
        throw CodecError("batch: profile request with an empty epsilons "
                         "array");
      }
      req.carried_epsilons = true;
    } else {
      req.epsilons.push_back(sc.epsilon);
    }
    // Canonicalize here (not just inside cache_key) so grouping by
    // options groups by what actually varies the solve, and a one-level
    // request solves cold.
    canonicalize_request(sc, options, req.epsilons.size());
    req.scenario = sc;
    req.options = options;
    req.key = cache_key(sc, req.epsilons, options);
  } catch (const PartialRequestError&) {
    throw;
  } catch (const std::exception& e) {
    // The id (when readable) survives into the error response.
    throw PartialRequestError(e.what(), req.id);
  }
  return req;
}

ProfileAnswer solve_profile_request(const deltanc::Solver& solver,
                                    const e2e::Scenario& sc,
                                    std::span<const double> epsilons) {
  ProfileAnswer out;
  const diag::ValidationReport vr = sc.validate();
  diag::SolveErrorKind fail_kind = diag::SolveErrorKind::kNumericalDomain;
  try {
    if (!vr.ok()) {
      fail_kind = diag::SolveErrorKind::kInvalidScenario;
      throw std::invalid_argument(vr.message());
    }
    out.profile = solver.solve_profile(sc, epsilons);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    e2e::BoundResult failed{std::numeric_limits<double>::infinity(), 0.0, 0.0,
                            0.0, 0.0};
    failed.diagnostics.fail(fail_kind, e.what());
    out.profile = e2e::DelayProfile{};
    out.profile.epsilons.assign(epsilons.begin(), epsilons.end());
    out.profile.levels.assign(epsilons.size(), failed);
  }
  return out;
}

json::Value make_answer_response(const ParsedRequestLine& line,
                                 bool with_cache_tag, CacheLookup outcome,
                                 const e2e::DelayProfile& answer) {
  if (line.is_profile()) {
    return make_ok_profile_response(line.id, with_cache_tag, outcome, answer);
  }
  return make_ok_response(line.id, with_cache_tag, outcome,
                          answer.levels.front());
}

json::Value make_ok_response(const json::Value& id, bool with_cache_tag,
                             CacheLookup outcome,
                             const e2e::BoundResult& result) {
  Value response = Value::object();
  response.set("schema", Value::number(kSchemaVersion)).set("id", id);
  response.set("ok", Value::boolean(true));
  if (with_cache_tag) {
    response.set("cache", Value::string(cache_lookup_name(outcome)));
  }
  response.set("result", encode_bound_result(result));
  return response;
}

json::Value make_ok_profile_response(const json::Value& id,
                                     bool with_cache_tag, CacheLookup outcome,
                                     const e2e::DelayProfile& profile) {
  Value response = Value::object();
  response.set("schema", Value::number(kSchemaVersion)).set("id", id);
  response.set("ok", Value::boolean(true));
  if (with_cache_tag) {
    response.set("cache", Value::string(cache_lookup_name(outcome)));
  }
  response.set("profile", encode_delay_profile(profile));
  return response;
}

json::Value make_error_response(const json::Value& id,
                                const std::string& error,
                                diag::SolveErrorKind kind) {
  Value response = Value::object();
  response.set("schema", Value::number(kSchemaVersion)).set("id", id);
  response.set("ok", Value::boolean(false))
      .set("error", Value::string(error));
  if (kind != diag::SolveErrorKind::kNone) {
    response.set("kind", Value::string(diag::solve_error_name(kind)));
  }
  return response;
}

BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options) {
  const auto t0 = Clock::now();
  BatchSummary summary;
  const CacheStats cache_before =
      options.cache != nullptr ? options.cache->stats() : CacheStats{};

  // ----- ingest ----------------------------------------------------------
  // std::getline delivers a final line without a trailing newline like
  // any other (it extracts up to EOF), so "emit-batch | head -c" style
  // truncated tails are answered, not dropped.
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Request req;
    try {
      req.line = parse_request_line(line, options.default_method);
      req.parsed = true;
    } catch (const PartialRequestError& e) {
      req.line.id = e.id;
      req.error = e.what();
    } catch (const std::exception& e) {
      req.error = e.what();
    }
    requests.push_back(std::move(req));
  }
  summary.requests = static_cast<std::int64_t>(requests.size());

  // ----- cache pass ------------------------------------------------------
  std::vector<std::size_t> pending;  // request indices still to solve
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request& req = requests[i];
    if (!req.parsed) continue;
    if (options.cache != nullptr) {
      req.outcome = options.cache->lookup_profile(req.line.key, req.answer);
    }
    if (req.outcome == CacheLookup::kHit) {
      ++summary.cached;
    } else {
      pending.push_back(i);
    }
  }

  // ----- solve pass: group misses by options, fan out per group ----------
  std::map<std::string, std::vector<std::size_t>> groups;
  for (const std::size_t i : pending) {
    groups[encode_solve_options(requests[i].line.options).dump()].push_back(i);
  }
  const std::size_t total_pending = pending.size();
  std::size_t done_offset = 0;
  for (const auto& [options_key, members] : groups) {
    (void)options_key;
    const Solver solver(requests[members.front()].line.options);
    const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
        members.size(), options.threads > 0
                            ? static_cast<unsigned>(options.threads)
                            : ThreadPool::default_thread_count()));
    std::atomic<std::size_t> cursor{0};
    std::mutex progress_mu;
    std::size_t group_done = 0;
    const auto worker = [&] {
      for (;;) {
        const std::size_t j = cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= members.size()) return;
        Request& req = requests[members[j]];
        ProfileAnswer answer = solve_profile_request(
            solver, req.line.scenario, req.line.epsilons);
        req.ok = answer.ok;
        req.answer = std::move(answer.profile);
        if (options.progress) {
          std::lock_guard<std::mutex> lock(progress_mu);
          options.progress(done_offset + ++group_done, total_pending);
        }
      }
    };
    {
      ThreadPool pool(threads);
      for (unsigned t = 0; t < threads; ++t) pool.submit(worker);
      pool.wait_idle();
    }
    for (const std::size_t i : members) {
      Request& req = requests[i];
      if (req.ok && options.cache != nullptr) {
        // A failed store (full disk, read-only directory) degrades to a
        // counted solve-through -- the batch keeps answering.
        (void)options.cache->try_store(req.line.key, req.answer);
      }
      summary.stats += req.line.is_profile() ? req.answer.stats
                                             : req.answer.levels.front().stats;
      ++summary.solved;
      if (!req.ok) ++summary.failed;
    }
    done_offset += members.size();
  }

  // ----- emit (input order) ----------------------------------------------
  for (const Request& req : requests) {
    Value response;
    if (!req.parsed) {
      response = make_error_response(req.line.id, req.error);
      ++summary.parse_errors;
    } else {
      response = make_answer_response(req.line, options.cache != nullptr,
                                      req.outcome, req.answer);
    }
    out << response.dump() << '\n';
    if (!out.good()) {
      // The consumer hung up (e.g. `--batch | head`): stop emitting,
      // report the truncation instead of dying on SIGPIPE (the CLI
      // ignores the signal; the stream just goes bad).
      summary.output_failed = true;
      break;
    }
    ++summary.responses;
  }

  if (options.cache != nullptr) {
    summary.cache_stats = options.cache->stats();
    summary.cache_stats -= cache_before;
  }
  summary.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return summary;
}

}  // namespace deltanc::io

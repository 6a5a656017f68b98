// Measurement harness of the repository benchmark (perfbench/run.py runs
// it; it is not meant to be started by hand).
//
//   perfbench_harness --workload <name> --input <spec.txt> --seconds <s>
//                     --trace <0|1> --threads <n> --workdir <dir>
//                     --cli <deltanc_cli> --out <result.json>
//
// It builds the workload's inputs from the spec that workloads.py
// generated, sets up several times (the first from process start), runs
// the timed window, checks every output and writes raw measurements to
// --out.  run.py turns them into metrics.  All timing uses
// std::chrono::steady_clock.
//
// With --trace 1 the window records spans (name, start, end, parent,
// request id) in memory around each call the harness makes into a layer,
// written to <workdir>/spans.jsonl at the end, and the harness then
// replays single layer calls on the workload's own inputs (eb(s), the
// theta optimizer and sigma(eps); for serve-mixed also the codec, the
// disk cache and the in-process service) to price each layer per call.
// The io and serve layers do no work in the in-process workloads and are
// measured on serve-mixed only.  Spans
// are recorded only here, around public library calls; nothing inside
// the library changes.  Progress notes go to stderr.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "core/selfcheck.h"
#include "core/sweep.h"
#include "e2e/network_epsilon.h"
#include "e2e/solver.h"
#include "io/batch.h"
#include "io/codec.h"
#include "io/result_cache.h"
#include "sched/service_curve_provider.h"
#include "serve/service.h"

namespace {

using namespace deltanc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_origin = Clock::now();

double ms_since(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
double now_ms() { return ms_since(g_origin); }

void note(const char* what) {
  std::fprintf(stderr, "[%9.1f ms] %s\n", now_ms(), what);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

// ----- spans ----------------------------------------------------------

/// In-memory span store.  begin()/end() are cheap and thread-safe; when
/// disabled they record nothing and return -1.
class Tracer {
 public:
  /// Starts recording under a root span `name` (the traced window);
  /// later spans name root() as their parent.  Idempotent.
  void start(const char* name) {
    std::lock_guard<std::mutex> lock(mu_);
    if (on_.load()) return;
    spans_.push_back(Span{name, now_ms(), now_ms(), -1, -1});
    root_.store(static_cast<long>(spans_.size() - 1));
    on_.store(true);
  }
  /// Closes the root span (no-op when never started).
  void stop() { end(root()); }
  [[nodiscard]] bool on() const { return on_.load(); }
  [[nodiscard]] long root() const { return root_.load(); }

  long begin(const char* name, long parent = -1, long request = -1) {
    if (!on()) return -1;
    const double t = now_ms();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, request});
    return static_cast<long>(spans_.size() - 1);
  }
  void end(long id) {
    if (id < 0) return;
    const double t = now_ms();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = t;
  }
  /// A span whose bounds were measured elsewhere (e.g. a request's due
  /// time to its answer).
  long add(const char* name, double start, double end, long parent,
           long request) {
    if (!on()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<long>(spans_.size() - 1);
  }
  [[nodiscard]] std::size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  void write(const fs::path& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) die("cannot write " + path.string());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f,\"parent\":%ld,\"request\":%ld}\n",
                   i, s.name, s.start_ms, s.end_ms, s.parent, s.request);
    }
    std::fclose(f);
  }

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    long parent;
    long request;
  };
  std::atomic<bool> on_{false};
  std::atomic<long> root_{-1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// ----- result document ------------------------------------------------

/// The raw measurements of one run: scalars, sample arrays and failure
/// notes, written as one JSON object for run.py.
struct Result {
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> failures;  ///< first few failure descriptions
  long long attempted = 0;
  long long failed = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }

  void write(const fs::path& path) const {
    std::ofstream out(path);
    out << "{\"attempted\":" << attempted << ",\"failed\":" << failed;
    char buf[64];
    out << ",\"scalars\":{";
    bool first = true;
    for (const auto& [k, v] : scalars) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out << (first ? "" : ",") << '"' << k << "\":"
          << (std::isfinite(v) ? buf : "null");
      first = false;
    }
    out << "},\"samples\":{";
    first = true;
    for (const auto& [k, vs] : samples) {
      out << (first ? "" : ",") << '"' << k << "\":[";
      for (std::size_t i = 0; i < vs.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.9g", vs[i]);
        out << (i ? "," : "") << (std::isfinite(vs[i]) ? buf : "null");
      }
      out << ']';
      first = false;
    }
    out << "},\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i ? "," : "")
          << io::json::Value::string(failures[i]).dump();
    }
    out << "]}\n";
    if (!out) die("cannot write " + path.string());
  }
};

// ----- inputs ---------------------------------------------------------

struct Args {
  std::string workload;
  std::string input;
  std::string out;
  std::string workdir;
  std::string cli;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
};

/// The spec as records: first word -> remaining words, in file order.
using Spec = std::vector<std::pair<std::string, std::vector<std::string>>>;

Spec read_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  Spec spec;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string key;
    if (!(words >> key)) continue;
    std::vector<std::string> rest;
    for (std::string w; words >> w;) rest.push_back(w);
    spec.emplace_back(key, std::move(rest));
  }
  return spec;
}

const std::vector<std::string>& record(const Spec& spec,
                                       const std::string& key) {
  for (const auto& [k, v] : spec) {
    if (k == key) return v;
  }
  die("spec lacks '" + key + "'");
}

double number(const std::string& text) {
  std::size_t used = 0;
  const double v = std::stod(text, &used);
  if (used != text.size()) die("bad number '" + text + "'");
  return v;
}

std::vector<double> numbers(const std::vector<std::string>& words) {
  std::vector<double> out;
  for (const std::string& w : words) out.push_back(number(w));
  return out;
}

sched::SchedulerSpec scheduler(const std::string& name) {
  sched::SchedulerSpec spec;
  if (!scheduler_from_name(name, spec)) die("unknown scheduler " + name);
  return spec;
}

e2e::Scenario make_scenario(int hops, double uc, const std::string& sched,
                            double epsilon = 1e-9) {
  return ScenarioBuilder()
      .hops(hops)
      .through_flows(100)
      .cross_utilization(uc)
      .scheduler(scheduler(sched))
      .violation_probability(epsilon)
      .build();
}

/// One wire request line for the scenario, rendered through the
/// library's codec: a scalar request, or a profile request over
/// `epsilons` asking for the warm-chained profile.
std::string render_request(const e2e::Scenario& sc,
                           const std::vector<double>& epsilons, long id) {
  using io::json::Value;
  SolveOptions options;
  if (!epsilons.empty()) options.warm_start = e2e::WarmStart::kWarm;
  Value req = Value::object();
  req.set("schema", Value::number(io::kSchemaVersion))
      .set("scenario", io::encode_scenario(sc))
      .set("options", io::encode_solve_options(options));
  if (!epsilons.empty()) {
    Value levels = Value::array();
    for (const double e : epsilons) levels.push_back(Value::number(e));
    req.set("epsilons", std::move(levels));
  }
  req.set("id", Value::number(static_cast<double>(id)));
  return req.dump();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bound(const e2e::BoundResult& a, const e2e::BoundResult& b) {
  return same_bits(a.delay_ms, b.delay_ms) && same_bits(a.gamma, b.gamma) &&
         same_bits(a.s, b.s) && same_bits(a.sigma, b.sigma) &&
         same_bits(a.delta, b.delta);
}

/// The relative deviation the warm-start contract bounds
/// (core/selfcheck.h kWarmStartRelTol).
double warm_deviation(double warm, double cold) {
  if (std::isinf(warm) || std::isinf(cold)) {
    return std::isinf(warm) == std::isinf(cold) ? 0.0 : HUGE_VAL;
  }
  return std::abs(warm - cold) / std::max(cold, 1.0);
}

long peak_rss_kb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// VmHWM of a live child process, in kB (0 when unreadable).
long peak_rss_kb_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

/// Runs `fn(i)` for i in [0, n) over `threads` threads.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

/// Set-up repetitions of the in-process workloads; setup_s is their
/// median.
constexpr int kSetups = 5;

/// Times `count` set-up repetitions; the first is timed from process
/// start (g_origin), so it also carries static initialization.
template <typename Fn>
void timed_setups(Result& result, int count, Fn setup) {
  std::vector<double> reps;
  for (int rep = 0; rep < count; ++rep) {
    const Clock::time_point t0 = rep == 0 ? g_origin : Clock::now();
    setup(rep);
    reps.push_back(ms_since(t0) / 1000.0);
  }
  result.samples["setup_s"] = reps;
  note("set-up done");
}

/// Latency samples a run collects at least, so that its 99th
/// percentile has ten samples beyond it.
constexpr std::size_t kMinSamples = 1000;

// ----- child processes ------------------------------------------------

pid_t spawn(const std::vector<std::string>& argv, const fs::path& out,
            const fs::path& err) {
  std::vector<char*> cargs;
  for (const std::string& a : argv) cargs.push_back(const_cast<char*>(a.c_str()));
  cargs.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    const int fo = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int fe = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fo < 0 || fe < 0) _exit(127);
    dup2(fo, 1);
    dup2(fe, 2);
    execv(cargs[0], cargs.data());
    _exit(127);
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int connect_unix(const fs::path& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A running `deltanc_cli --serve` child.  stop() sends SIGTERM, waits
/// for the drain and parses the narration counters
/// ("serve: k=v ..." / "cache: k=v ...") into `counters`.
class ServerProcess {
 public:
  ServerProcess(const Args& args, const fs::path& cache_dir, int workers,
                const std::string& tag)
      : socket_(fs::path(args.workdir) / ("s-" + tag + ".sock")),
        err_(fs::path(args.workdir) / ("serve-" + tag + ".err")) {
    fs::remove(socket_);
    pid_ = spawn({args.cli, "--serve", socket_.string(), "--serve-workers",
                  std::to_string(workers), "--cache-dir", cache_dir.string()},
                 "/dev/null", err_);
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      const int fd = connect_unix(socket_);
      if (fd >= 0) {
        ::close(fd);
        break;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        die("deltanc_cli --serve exited during start-up; see " + err_.string());
      }
      if (ms_since(t0) > 20000.0) die("deltanc_cli --serve did not come up");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) stop();
  }

  [[nodiscard]] const fs::path& socket() const { return socket_; }
  [[nodiscard]] long peak_rss_kb() const { return peak_rss_kb_of(pid_); }

  /// SIGTERM + wait; returns the exit code.
  int stop() {
    ::kill(pid_, SIGTERM);
    const int rc = wait_exit(pid_);
    pid_ = -1;
    std::ifstream in(err_);
    for (std::string line; std::getline(in, line);) {
      std::string prefix;
      if (line.rfind("serve: ", 0) == 0) prefix = "serve.";
      else if (line.rfind("cache: ", 0) == 0) prefix = "cache.";
      else continue;
      std::istringstream words(line.substr(7));
      for (std::string w; words >> w;) {
        const std::size_t eq = w.find('=');
        if (eq == std::string::npos) continue;
        try {
          counters[prefix + w.substr(0, eq)] = std::stod(w.substr(eq + 1));
        } catch (const std::exception&) {
          // non-numeric values (the cache dir) are not counters
        }
      }
    }
    return rc;
  }

  std::map<std::string, double> counters;

 private:
  fs::path socket_;
  fs::path err_;
  pid_t pid_ = -1;
};

// ----- open-loop socket client ----------------------------------------

/// Per-request timing of one open-loop stream (ms since g_origin).
struct StreamTimes {
  std::vector<double> due;
  std::vector<double> sent;
  std::vector<double> received;  ///< first answer; NaN when unanswered
  std::vector<int> answers;      ///< answers per id (must end at 1)
  std::vector<std::string> response;  ///< first answer's raw line
  long long stray = 0;  ///< answers without a valid id
};

void send_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) die("server hung up mid-send");
    done += static_cast<std::size_t>(n);
  }
}

/// Sends lines[i] at start + offsets_ms[i] over one connection (never
/// waiting for answers) and records when each answer arrives.  Lines
/// carry "id": i.  Gives up waiting `grace_ms` after the last send.
StreamTimes run_stream(const fs::path& socket,
                       const std::vector<std::string>& lines,
                       const std::vector<double>& offsets_ms,
                       double grace_ms) {
  const std::size_t n = lines.size();
  StreamTimes st;
  st.due.assign(n, 0.0);
  st.sent.assign(n, 0.0);
  st.received.assign(n, std::nan(""));
  st.answers.assign(n, 0);
  st.response.assign(n, std::string());
  const int fd = connect_unix(socket);
  if (fd < 0) die("cannot connect to " + socket.string());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t answered = 0;
  std::thread receiver([&] {
    std::string buffer;
    std::vector<char> chunk(1 << 16);
    // Every line of one recv() is stamped with the time it returned.
    const auto handle = [&](std::string line, double t) {
      long id = -1;
      try {
        const io::json::Value doc = io::json::Value::parse(line);
        if (const io::json::Value* v = doc.find("id"); v && v->is_number()) {
          id = static_cast<long>(v->as_number());
        }
      } catch (const std::exception&) {
      }
      std::lock_guard<std::mutex> lock(mu);
      if (id < 0 || static_cast<std::size_t>(id) >= n) {
        ++st.stray;
        return;
      }
      const auto i = static_cast<std::size_t>(id);
      if (st.answers[i]++ == 0) {
        st.received[i] = t;
        st.response[i] = std::move(line);
        ++answered;
        cv.notify_all();
      }
    };
    for (;;) {
      const ssize_t got = ::recv(fd, chunk.data(), chunk.size(), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      const double t = now_ms();
      buffer.append(chunk.data(), static_cast<std::size_t>(got));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        handle(buffer.substr(start, nl - start), t);
      }
      buffer.erase(0, start);
    }
    if (!buffer.empty()) handle(buffer, now_ms());
  });
  const double start = now_ms() + 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    st.due[i] = start + offsets_ms[i];
    const auto due_tp =
        g_origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(st.due[i]));
    // Sleep to just short of the due time, then spin: a plain sleep
    // overshoots by the timer slack, which would count as latency.
    std::this_thread::sleep_until(due_tp - std::chrono::microseconds(200));
    while (Clock::now() < due_tp) {
    }
    const long span = g_tracer.begin("load.send", g_tracer.root(),
                                     static_cast<long>(i));
    st.sent[i] = now_ms();
    send_all(fd, lines[i] + "\n");
    g_tracer.end(span);
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::duration<double, std::milli>(grace_ms),
                [&] { return answered == n; });
  }
  ::shutdown(fd, SHUT_WR);
  receiver.join();
  ::close(fd);
  return st;
}

// ----- layer replays ----------------------------------------------------

/// Average wall time of one call of `fn`, in microseconds, over enough
/// repetitions to outlast the clock's resolution.
template <typename Fn>
double per_call_us(int reps, Fn fn) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  return ms_since(t0) * 1000.0 / reps;
}

double g_sink = 0.0;  // keeps replayed results observable

/// One solved unit the replays price: its scenario and the optimum the
/// solver found for it.
struct SolvedPoint {
  e2e::Scenario scenario;
  e2e::BoundResult bound;
};

/// Prices the solver layers' single calls at each point's optimum:
/// eb(s) (traffic), the theta optimizer and sigma(eps) (e2e), and the
/// per-solve scheduler lowering (sched).
void replay_solver_calls(const std::vector<SolvedPoint>& points,
                         Result& result) {
  std::vector<double> eb_us, theta_us, sigma_us, sched_us;
  for (const SolvedPoint& pt : points) {
    const e2e::Scenario& sc = pt.scenario;
    const e2e::BoundResult& b = pt.bound;
    if (!std::isfinite(b.delay_ms) || !(b.s > 0.0) || !(b.gamma > 0.0)) continue;
    const long span = g_tracer.begin("traffic.eb_replay");
    eb_us.push_back(per_call_us(64, [&](int i) {
      g_sink += sc.source.effective_bandwidth(b.s * (1.0 + 1e-12 * i));
    }));
    g_tracer.end(span);
    // Curve-backed schedulers (gps) have no Delta and skip the theta
    // optimizer; their solves only price eb(s) and the lowering.
    if (!std::isnan(b.delta)) {
      const double eb = sc.source.effective_bandwidth(b.s);
      const e2e::PathParams p{sc.capacity, sc.hops, sc.n_through * eb,
                              sc.n_cross * eb, b.s, 1.0, b.delta};
      const Solver solver{};
      const long span2 = g_tracer.begin("e2e.theta_replay");
      theta_us.push_back(per_call_us(16, [&](int) {
        g_sink += solver.optimize(p, b.gamma, b.sigma).delay;
      }));
      g_tracer.end(span2);
      const long span3 = g_tracer.begin("e2e.sigma_replay");
      sigma_us.push_back(per_call_us(64, [&](int i) {
        g_sink += e2e::sigma_for_epsilon(p, b.gamma * (1.0 - 1e-12 * i),
                                         sc.epsilon);
      }));
      g_tracer.end(span3);
    }
    const long span4 = g_tracer.begin("sched.replay");
    sched_us.push_back(per_call_us(16, [&](int) {
      const std::optional<double> d = sc.scheduler.static_delta();
      g_sink += d.value_or(0.0);
      if (!d.has_value() && sc.scheduler.kind() == sched::SchedulerKind::kGps) {
        const double mean = sc.source.mean_rate();
        const auto rl =
            sched::make_service_curve_provider(sc.scheduler)
                ->rate_latency(sc.capacity,
                               sched::ClassLoads{sc.n_through * mean,
                                                 sc.n_cross * mean});
        g_sink += rl ? rl->rate : 0.0;
      }
    }));
    g_tracer.end(span4);
  }
  result.samples["replay.eb_us"] = eb_us;
  result.samples["replay.theta_us"] = theta_us;
  result.samples["replay.sigma_us"] = sigma_us;
  result.samples["replay.sched_us"] = sched_us;
  note("solver replays done");
}

/// Wire lines plus what the program answered for them, for the codec,
/// cache and service replays.
struct ReplayUnit {
  std::string line;
  e2e::BoundResult bound;                   ///< scalar requests
  std::optional<e2e::DelayProfile> profile;  ///< profile requests
};

/// Prices the io layer per call on the workload's own units: request
/// parsing, response encoding, and disk-cache store / hit / miss.
void replay_io_calls(const std::vector<ReplayUnit>& units,
                     const fs::path& dir, Result& result) {
  fs::remove_all(dir);
  io::ResultCache cache(dir);
  std::vector<double> parse_us, encode_us, store_us, hit_us, miss_us;
  for (const ReplayUnit& u : units) {
    const long span = g_tracer.begin("io.replay");
    io::ParsedRequestLine parsed;
    parse_us.push_back(per_call_us(8, [&](int) {
      parsed = io::parse_request_line(u.line, e2e::Method::kExactOpt);
    }));
    encode_us.push_back(per_call_us(8, [&](int) {
      const io::json::Value doc =
          u.profile ? io::make_ok_profile_response(parsed.id, true,
                                                   io::CacheLookup::kHit,
                                                   *u.profile)
                    : io::make_ok_response(parsed.id, true,
                                           io::CacheLookup::kHit, u.bound);
      g_sink += static_cast<double>(doc.dump().size());
    }));
    store_us.push_back(per_call_us(1, [&](int) {
      if (u.profile) cache.store_profile(parsed.key, *u.profile);
      else cache.store(parsed.key, u.bound);
    }));
    hit_us.push_back(per_call_us(4, [&](int) {
      if (u.profile) {
        e2e::DelayProfile out;
        g_sink += static_cast<double>(cache.lookup_profile(parsed.key, out));
      } else {
        e2e::BoundResult out{};
        g_sink += static_cast<double>(cache.lookup(parsed.key, out));
      }
    }));
    miss_us.push_back(per_call_us(4, [&](int) {
      e2e::BoundResult out{};
      g_sink += static_cast<double>(cache.lookup(parsed.key + " ", out));
    }));
    g_tracer.end(span);
  }
  result.samples["replay.parse_us"] = parse_us;
  result.samples["replay.encode_us"] = encode_us;
  result.samples["replay.store_us"] = store_us;
  result.samples["replay.lookup_hit_us"] = hit_us;
  result.samples["replay.lookup_miss_us"] = miss_us;
  note("io replays done");
}

/// Submits lines[i] to an in-process SolveService at start + offsets[i]
/// and records submit-to-sink latency per request (NaN if unanswered)
/// as "replay.inproc_ms", and whether the answer was a cache hit as
/// "replay.inproc_hit".
void replay_in_process(const fs::path& cache_dir, int workers,
                       const std::vector<std::string>& lines,
                       const std::vector<double>& offsets_ms, Result& result) {
  serve::ServeOptions options;
  options.workers = workers;
  options.cache_dir = cache_dir;
  std::vector<double> latency(lines.size(), std::nan(""));
  std::vector<double> hit(lines.size(), 0.0);
  {
    serve::SolveService service(options);
    std::mutex mu;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(offsets_ms[i])));
      const long span =
          g_tracer.begin("serve.submit_replay", -1, static_cast<long>(i));
      const Clock::time_point t0 = Clock::now();
      service.submit(lines[i], [&, i, t0, span](const std::string& answer) {
        const double ms = ms_since(t0);
        g_tracer.end(span);
        const bool was_hit = answer.find("\"cache\":\"hit\"") != std::string::npos;
        std::lock_guard<std::mutex> lock(mu);
        latency[i] = ms;
        hit[i] = was_hit ? 1.0 : 0.0;
      });
    }
    service.drain();
  }
  result.samples["replay.inproc_ms"] = latency;
  result.samples["replay.inproc_hit"] = hit;
  note("in-process service replay done");
}

/// The solver work of the traced window, per the counters the solves
/// returned.  A "level solve" is one (scenario, epsilon) bound: a sweep
/// point, one profile level, or one scalar request.
void record_solver_work(Result& result, const e2e::SolveStats& st,
                        double level_solves, double chain_hits,
                        double chain_successors) {
  result.scalars["level_solves"] = level_solves;
  result.scalars["stats.optimize_evals"] = static_cast<double>(st.optimize_evals);
  result.scalars["stats.eb_evals"] = static_cast<double>(st.eb_evals);
  result.scalars["stats.edf_iterations"] = st.edf_iterations;
  result.scalars["stats.batched_evals"] = static_cast<double>(st.batched_evals);
  result.scalars["stats.warm_start_hits"] = static_cast<double>(st.warm_start_hits);
  result.scalars["stats.scan_ms"] = st.scan_ms;
  result.scalars["stats.refine_ms"] = st.refine_ms;
  result.scalars["stats.retries"] = st.retries;
  result.scalars["stats.fallbacks"] = st.fallbacks;
  result.scalars["stats.chain_hits"] = chain_hits;
  result.scalars["chain_successors"] = chain_successors;
}

// ----- sweep-longpath -------------------------------------------------

void run_sweep(const Args& args, const Spec& spec, Result& result) {
  const double epsilon = number(record(spec, "epsilon").at(0));
  std::vector<int> hops;
  for (const double h : numbers(record(spec, "hops"))) hops.push_back(static_cast<int>(h));
  const std::vector<std::string>& sched_names = record(spec, "schedulers");
  // One uc axis per grid; successive repetitions cycle through them.
  std::vector<std::vector<double>> ucs;
  for (const auto& [key, words] : spec) {
    if (key == "uc") ucs.push_back(numbers(words));
  }
  if (ucs.empty()) die("spec lacks 'uc'");
  std::vector<std::size_t> check;
  for (const double i : numbers(record(spec, "check"))) check.push_back(static_cast<std::size_t>(i));

  std::vector<SweepGrid> grids;
  std::vector<double> latency;  // filled by the runner's progress callback
  Clock::time_point run_started;
  std::optional<SweepRunner> runner;
  timed_setups(result, kSetups, [&](int) {
    e2e::Scenario base;
    base.n_through = 100;
    base.epsilon = epsilon;
    std::vector<sched::SchedulerKind> kinds;
    for (const std::string& name : sched_names) kinds.push_back(scheduler(name).kind());
    grids.clear();
    for (const std::vector<double>& uc : ucs) {
      grids.emplace_back(base);
      grids.back().hops_axis(hops).scheduler_axis(kinds).cross_utilization_axis(uc);
    }
    SweepOptions options;
    options.threads = args.threads;
    options.warm_start = e2e::WarmStart::kWarm;
    // A point's latency is the time from the start of its grid run to
    // its result: what a sweep's caller waits for it.
    options.progress = [&](std::size_t, std::size_t) {
      latency.push_back(ms_since(run_started));
    };
    runner.emplace(options);
    // Lazy set-up: one cold solve per (path length, scheduler) of the
    // grid, at its first uc point, so every code path the window takes
    // has run once.
    for (std::size_t c = 0; c < grids[0].size(); c += ucs[0].size()) {
      g_sink += Solver().solve(grids[0].scenario_at(c)).delay_ms;
    }
  });

  const std::size_t chain_len = ucs[0].size();
  const std::size_t points = grids[0].size();
  const std::size_t chains = points / chain_len;
  std::vector<double> solve_ms;
  SweepReport last;
  e2e::SolveStats stats{};
  double busy_ms = 0.0, threads_used = 0.0, longest_share = 0.0;
  double window_ms = 0.0;
  std::vector<double> grid_rates;  // points per second of each grid run
  std::size_t runs = 0;
  const Clock::time_point start = Clock::now();
  if (args.trace) g_tracer.start("bench.window");
  for (;;) {
    const long span = g_tracer.begin("core.run", g_tracer.root());
    const std::size_t g = runs++ % grids.size();
    run_started = Clock::now();
    SweepReport report = runner->run(grids[g]);
    const double wall = ms_since(run_started);
    g_tracer.end(span);
    window_ms += wall;
    grid_rates.push_back(static_cast<double>(points) / wall * 1000.0);
    std::vector<double> chain_ms(chains, 0.0);
    for (std::size_t i = 0; i < points; ++i) {
      const SweepPoint& p = report.points[i];
      ++result.attempted;
      solve_ms.push_back(p.solve_ms);
      chain_ms[i / chain_len] += p.solve_ms;
      if (!p.ok || !p.bound.diagnostics.ok() || !std::isfinite(p.bound.delay_ms)) {
        result.fail("point " + std::to_string(i) + " not ok: " + p.error);
      }
    }
    // Delta-ordering EDF <= FIFO <= BMUX at every (H, uc), up to the
    // warm-start tolerance (the points are warm-chained).
    const auto at = [&](std::size_t h, const std::string& s, std::size_t u) {
      const auto it = std::find(sched_names.begin(), sched_names.end(), s);
      const auto si = static_cast<std::size_t>(it - sched_names.begin());
      return report.points[(h * sched_names.size() + si) * chain_len + u]
          .bound.delay_ms;
    };
    for (std::size_t h = 0; h < hops.size(); ++h) {
      for (std::size_t u = 0; u < chain_len; ++u) {
        const double edf = at(h, "edf", u), fifo = at(h, "fifo", u),
                     bmux = at(h, "bmux", u);
        if (!(edf <= fifo * (1 + kWarmStartRelTol)) ||
            !(fifo <= bmux * (1 + kWarmStartRelTol))) {
          result.fail("Delta-ordering violated at H=" + std::to_string(hops[h]) +
                      " uc=" + std::to_string(ucs[g][u]));
        }
      }
    }
    stats += report.stats;
    busy_ms += report.solve_ms;
    // Chains run one per worker, so no more workers than chains ran.
    threads_used = static_cast<double>(
        std::min<std::size_t>(static_cast<std::size_t>(report.threads), chains));
    longest_share = std::max(
        longest_share, *std::max_element(chain_ms.begin(), chain_ms.end()) / wall);
    last = std::move(report);
    if (ms_since(start) >= args.seconds * 1000.0 && solve_ms.size() >= kMinSamples) break;
  }
  g_tracer.stop();
  note("window done");
  // The median grid run, so that a burst of outside load during one
  // run does not move the figure.
  std::sort(grid_rates.begin(), grid_rates.end());
  result.scalars["units_per_s"] = grid_rates[grid_rates.size() / 2];
  result.scalars["window_s"] = window_ms / 1000.0;
  result.samples["latency_ms"] = latency;
  result.scalars["peak_rss_kb"] = static_cast<double>(peak_rss_kb_self());

  // A seeded sample of points re-solved cold agrees with the warm chain.
  std::vector<double> cold(check.size());
  parallel_for(check.size(), args.threads, [&](std::size_t k) {
    cold[k] = Solver().solve(last.points.at(check[k]).scenario).delay_ms;
  });
  for (std::size_t k = 0; k < check.size(); ++k) {
    const double dev = warm_deviation(last.points[check[k]].bound.delay_ms, cold[k]);
    if (!(dev <= kWarmStartRelTol)) {
      result.fail("point " + std::to_string(check[k]) + " warm deviates from cold by " +
                  std::to_string(dev));
    }
  }
  note("checks done");
  if (!args.trace) return;

  const double solves = static_cast<double>(solve_ms.size());
  record_solver_work(result, stats, solves, static_cast<double>(stats.warm_start_hits),
                     solves * (1.0 - static_cast<double>(chains) / static_cast<double>(points)));
  result.scalars["core.threads_used"] = threads_used;
  result.scalars["core.chains"] = static_cast<double>(chains);
  result.scalars["busy_ms"] = busy_ms;
  result.scalars["parallel_wall_ms"] = window_ms;
  result.scalars["core.longest_chain_share"] = longest_share;
  result.samples["solve_ms"] = solve_ms;

  std::vector<SolvedPoint> solved;
  for (std::size_t i = 0; i < points; ++i) {
    solved.push_back({last.points[i].scenario, last.points[i].bound});
  }
  replay_solver_calls(solved, result);
}

// ----- ccdf-profiles --------------------------------------------------

void run_ccdf(const Args& args, const Spec& spec, Result& result) {
  const std::vector<double> epsilons = numbers(record(spec, "epsilons"));
  std::vector<e2e::Scenario> scenarios;
  std::vector<std::pair<std::size_t, std::size_t>> checks;
  SolveOptions warm;
  warm.warm_start = e2e::WarmStart::kWarm;
  timed_setups(result, kSetups, [&](int) {
    scenarios.clear();
    checks.clear();
    for (const auto& [key, words] : spec) {
      if (key == "scenario") {
        scenarios.push_back(make_scenario(static_cast<int>(number(words.at(0))),
                                          number(words.at(1)), words.at(2)));
      } else if (key == "check") {
        checks.emplace_back(static_cast<std::size_t>(number(words.at(0))),
                            static_cast<std::size_t>(number(words.at(1))));
      }
    }
    // Lazy set-up: one warm profile per scheduler at the shortest and
    // the longest path of the list.
    int shortest = scenarios.front().hops, longest_path = shortest;
    for (const e2e::Scenario& sc : scenarios) {
      shortest = std::min(shortest, sc.hops);
      longest_path = std::max(longest_path, sc.hops);
    }
    for (const char* name : {"fifo", "bmux", "edf", "gps"}) {
      for (const int h : {shortest, longest_path}) {
        g_sink += Solver(warm).solve_profile(make_scenario(h, 0.3, name), epsilons)
                      .levels[0].delay_ms;
      }
    }
  });

  // Levels in increasing epsilon, for the monotonicity check.
  std::vector<std::size_t> by_eps(epsilons.size());
  for (std::size_t i = 0; i < by_eps.size(); ++i) by_eps[i] = i;
  std::sort(by_eps.begin(), by_eps.end(),
            [&](std::size_t a, std::size_t b) { return epsilons[a] < epsilons[b]; });
  std::map<std::size_t, std::vector<std::size_t>> checks_of;  // scenario -> checks
  for (std::size_t k = 0; k < checks.size(); ++k) checks_of[checks[k].first].push_back(k);

  // Each finished profile is checked and folded into running totals at
  // once; the window keeps scalars only (and the levels the cold check
  // and the replays need, a fixed amount), so the harness's own memory
  // does not grow with the number of profiles solved.
  std::mutex mu;
  std::vector<double> latency, ends;
  e2e::SolveStats stats{};
  double busy_ms = 0.0, longest = 0.0;
  std::vector<char> worker_ran(static_cast<std::size_t>(args.threads), 0);
  std::vector<double> warm_level(checks.size(), std::nan(""));
  std::vector<SolvedPoint> solved;  // first level of the first profiles
  const auto finish = [&](int w, std::size_t idx, double ms, double end,
                          const e2e::DelayProfile& profile) {
    bool good = profile.levels.size() == epsilons.size();
    for (const e2e::BoundResult& b : profile.levels) {
      good = good && b.diagnostics.ok() && std::isfinite(b.delay_ms);
    }
    // d(eps) is non-increasing in eps, up to the warm-start tolerance.
    for (std::size_t k = 1; good && k < by_eps.size(); ++k) {
      good = profile.levels[by_eps[k]].delay_ms <=
             profile.levels[by_eps[k - 1]].delay_ms * (1 + kWarmStartRelTol);
    }
    std::lock_guard<std::mutex> lock(mu);
    ++result.attempted;
    if (!good) {
      result.fail("profile of scenario " + std::to_string(idx) +
                  " is not a finite non-increasing d(eps)");
    }
    latency.push_back(ms);
    ends.push_back(end);
    stats += profile.stats;
    busy_ms += ms;
    longest = std::max(longest, ms);
    worker_ran[static_cast<std::size_t>(w)] = 1;
    if (const auto it = checks_of.find(idx); it != checks_of.end()) {
      for (const std::size_t k : it->second) {
        if (std::isnan(warm_level[k]) && good) {
          warm_level[k] = profile.levels.at(checks[k].second).delay_ms;
        }
      }
    }
    if (args.trace && solved.size() < 64 && good) {
      solved.push_back({scenarios[idx], profile.levels[0]});
      solved.back().scenario.epsilon = profile.epsilons[0];
    }
  };

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  // The window closes after --seconds, or once kMinSamples profiles
  // have finished if that takes longer; profiles still running then
  // finish but do not count towards throughput.
  const double deadline_ms = args.seconds * 1000.0;
  std::atomic<double> window_ms{deadline_ms};
  if (args.trace) g_tracer.start("bench.window");
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (int w = 0; w < args.threads; ++w) {
    pool.emplace_back([&, w] {
      const Solver solver(warm);
      while (ms_since(start) < deadline_ms || finished.load() < kMinSamples) {
        const std::size_t idx = next++ % scenarios.size();
        const long span = g_tracer.begin("e2e.solve_profile", g_tracer.root(),
                                         static_cast<long>(idx));
        const Clock::time_point t0 = Clock::now();
        const e2e::DelayProfile profile = solver.solve_profile(scenarios[idx], epsilons);
        const double ms = ms_since(t0);
        g_tracer.end(span);
        const double end = ms_since(start);
        finish(w, idx, ms, end, profile);
        if (++finished == kMinSamples && end > deadline_ms) window_ms.store(end);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall_ms = ms_since(start);
  g_tracer.stop();
  note("window done");
  // Peak memory of the solving, before the checks add their own.
  result.scalars["peak_rss_kb"] = static_cast<double>(peak_rss_kb_self());

  // Levels of the profiles that finished inside the window, per second
  // of window; profiles still running at its end are not counted.
  const double in_window = static_cast<double>(std::count_if(
      ends.begin(), ends.end(), [&](double e) { return e <= window_ms.load(); }));
  result.scalars["units_per_s"] =
      in_window * static_cast<double>(epsilons.size()) / window_ms.load() * 1000.0;
  result.scalars["window_s"] = window_ms.load() / 1000.0;
  result.samples["latency_ms"] = latency;

  // Sampled levels match cold scalar solves within the tolerance.
  std::vector<double> cold(checks.size(), 0.0);
  parallel_for(checks.size(), args.threads, [&](std::size_t k) {
    const auto [idx, level] = checks[k];
    e2e::Scenario sc = scenarios.at(idx);
    if (std::isnan(warm_level[k])) {
      warm_level[k] = Solver(warm).solve_profile(sc, epsilons).levels.at(level).delay_ms;
    }
    sc.epsilon = epsilons.at(level);
    cold[k] = Solver().solve(sc).delay_ms;
  });
  for (std::size_t k = 0; k < checks.size(); ++k) {
    ++result.attempted;
    const double dev = warm_deviation(warm_level[k], cold[k]);
    if (!(dev <= kWarmStartRelTol)) {
      result.fail("scenario " + std::to_string(checks[k].first) + " level " +
                  std::to_string(checks[k].second) + " deviates from cold by " +
                  std::to_string(dev));
    }
  }
  note("checks done");
  if (!args.trace) return;

  // Each profile is one warm chain along epsilon, solved by one worker.
  const double profiles = static_cast<double>(latency.size());
  record_solver_work(result, stats, static_cast<double>(stats.profile_levels),
                     static_cast<double>(stats.profile_chain_hits),
                     static_cast<double>(stats.profile_levels) - profiles);
  result.scalars["core.threads_used"] =
      static_cast<double>(std::count(worker_ran.begin(), worker_ran.end(), 1));
  result.scalars["core.chains"] = profiles;
  result.scalars["busy_ms"] = busy_ms;
  result.scalars["parallel_wall_ms"] = wall_ms;
  result.scalars["core.longest_chain_share"] = longest / wall_ms;
  result.samples["solve_ms"] = latency;
  replay_solver_calls(solved, result);
}

// ----- serve-mixed ----------------------------------------------------

void run_serve(const Args& args, const Spec& spec, Result& result) {
  const double limit_ms = number(record(spec, "limit_ms").at(0));
  const std::vector<double> profile_eps = numbers(record(spec, "profile_epsilons"));
  const fs::path work(args.workdir);
  const int workers = std::max(1, args.threads / 2);

  std::vector<e2e::Scenario> population;
  std::vector<std::string> lines;
  std::vector<double> offsets;
  std::vector<std::pair<std::size_t, bool>> picks;  // (population index, profile)
  // Servers of earlier set-ups are stopped after the timed set-ups.
  std::vector<std::unique_ptr<ServerProcess>> servers;
  fs::path cache_dir;
  // Three set-ups: each pre-warms a cache for several seconds.
  constexpr int kServeSetups = 3;
  timed_setups(result, kServeSetups, [&](int rep) {
    population.clear();
    lines.clear();
    offsets.clear();
    picks.clear();
    std::vector<std::size_t> prewarm;
    for (const auto& [key, words] : spec) {
      if (key == "population") {
        population.push_back(make_scenario(static_cast<int>(number(words.at(0))),
                                           number(words.at(1)), words.at(2)));
      } else if (key == "prewarm") {
        for (const double i : numbers(words)) prewarm.push_back(static_cast<std::size_t>(i));
      } else if (key == "request") {
        offsets.push_back(number(words.at(0)));
        picks.emplace_back(static_cast<std::size_t>(number(words.at(1))),
                           words.at(2) == "1");
      }
    }
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const auto [idx, profile] = picks[i];
      lines.push_back(render_request(population.at(idx),
                                     profile ? profile_eps : std::vector<double>{},
                                     static_cast<long>(i)));
    }
    // Pre-warm the disk cache for the seeded half through --batch, on
    // one thread: a parallel batch's time swings with how the host
    // schedules its threads (1.2-2.0 s for the same input on 4 vCPUs),
    // a sequential one's only with the host's speed.
    const fs::path batch_in = work / "prewarm.jsonl";
    {
      std::ofstream out(batch_in);
      for (const std::size_t idx : prewarm) {
        out << render_request(population.at(idx), {}, static_cast<long>(idx)) << '\n';
      }
    }
    cache_dir = work / ("cache-" + std::to_string(rep));
    fs::remove_all(cache_dir);
    const pid_t batch = spawn({args.cli, "--batch", batch_in.string(), "--cache-dir",
                               cache_dir.string(), "--threads", "1"},
                              "/dev/null", work / "prewarm.err");
    if (wait_exit(batch) != 0) die("pre-warm batch failed; see prewarm.err");
    if (args.trace && rep == kServeSetups - 1) {
      fs::remove_all(work / "replay-cache");
      fs::copy(cache_dir, work / "replay-cache");
    }
    servers.push_back(std::make_unique<ServerProcess>(
        args, cache_dir, workers, "run" + std::to_string(rep)));
  });
  ServerProcess* server = servers.back().get();
  for (std::size_t i = 0; i + 1 < servers.size(); ++i) servers[i]->stop();

  const std::size_t n = lines.size();
  if (args.trace) g_tracer.start("bench.window");
  const StreamTimes st = run_stream(server->socket(), lines, offsets, 60000.0);
  g_tracer.stop();
  note("window done");
  const long rss = server->peak_rss_kb();
  if (server->stop() != 0) result.fail("server did not drain cleanly");

  // Every request answered exactly once, ok, within the window.
  std::vector<double> latency;
  std::vector<double> live_hit(n, 0.0);  // 1 when answered from a cache
  double good = 0.0;
  double last_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ++result.attempted;
    if (st.answers[i] != 1) {
      result.fail("request " + std::to_string(i) + " answered " +
                  std::to_string(st.answers[i]) + " times");
      continue;
    }
    const double ms = st.received[i] - st.due[i];
    latency.push_back(ms);
    last_ms = std::max(last_ms, st.received[i]);
    bool ok = false;
    try {
      const io::json::Value doc = io::json::Value::parse(st.response[i]);
      ok = doc.at("ok").as_bool();
      const io::json::Value* tag = doc.find("cache");
      if (tag != nullptr && tag->is_string() && tag->as_string() == "hit") live_hit[i] = 1.0;
    } catch (const std::exception&) {
    }
    if (!ok) result.fail("request " + std::to_string(i) + " not ok: " + st.response[i]);
    else if (ms <= limit_ms) good += 1.0;
  }
  if (st.stray > 0) result.fail(std::to_string(st.stray) + " answers without a request id");
  const double window_ms = last_ms - st.due.front();
  result.scalars["units_per_s"] = good / window_ms * 1000.0;
  result.scalars["window_s"] = window_ms / 1000.0;
  result.samples["latency_ms"] = latency;
  result.scalars["peak_rss_kb"] = static_cast<double>(rss);

  // Each answer's bound is bit-equal to an in-process solve of the line.
  std::map<std::pair<std::size_t, bool>, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < n; ++i) by_key[picks[i]].push_back(i);
  std::vector<const std::vector<std::size_t>*> groups;
  for (const auto& [key, ids] : by_key) groups.push_back(&ids);
  std::vector<SolvedPoint> solved(groups.size());
  std::vector<double> solve_ms(groups.size(), 0.0);
  std::vector<e2e::SolveStats> stats(groups.size());
  std::vector<std::string> mismatch(groups.size());
  parallel_for(groups.size(), args.threads, [&](std::size_t g) {
    const std::vector<std::size_t>& ids = *groups[g];
    const io::ParsedRequestLine parsed =
        io::parse_request_line(lines[ids.front()], e2e::Method::kExactOpt);
    const Solver solver(parsed.options);
    const Clock::time_point t0 = Clock::now();
    std::vector<e2e::BoundResult> expect;
    if (parsed.is_profile()) {
      io::ProfileAnswer answer = io::solve_profile_request(solver, parsed.scenario,
                                                           parsed.epsilons);
      stats[g] = answer.profile.stats;
      expect = answer.profile.levels;
    } else {
      expect.push_back(solver.solve(parsed.scenario));
      stats[g] = expect.back().stats;
    }
    solve_ms[g] = ms_since(t0);
    solved[g] = {parsed.scenario, expect.front()};
    solved[g].scenario.epsilon = parsed.is_profile() ? parsed.epsilons.front()
                                                     : parsed.scenario.epsilon;
    for (const std::size_t i : ids) {
      if (st.answers[i] != 1) continue;
      try {
        const io::json::Value doc = io::json::Value::parse(st.response[i]);
        std::vector<e2e::BoundResult> got;
        if (parsed.is_profile()) {
          got = io::decode_delay_profile(doc.at("profile")).levels;
        } else {
          got.push_back(io::decode_bound_result(doc.at("result")));
        }
        bool same = got.size() == expect.size();
        for (std::size_t k = 0; same && k < got.size(); ++k) {
          same = same_bound(got[k], expect[k]);
        }
        if (!same) mismatch[g] = "request " + std::to_string(i) + " bound differs";
      } catch (const std::exception& e) {
        mismatch[g] = "request " + std::to_string(i) + ": " + e.what();
      }
    }
  });
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!mismatch[g].empty()) result.fail(mismatch[g]);
  }
  for (const auto& [k, v] : server->counters) result.scalars[k] = v;
  note("checks done");
  if (!args.trace) return;

  // Solver work of the workload's distinct lines (the misses' cost).
  e2e::SolveStats total{};
  double levels = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    total += stats[g];
    levels += picks[groups[g]->front()].second ? static_cast<double>(profile_eps.size()) : 1.0;
  }
  record_solver_work(result, total, levels, 0.0, 0.0);
  result.scalars["core.threads_used"] = workers;
  result.scalars["core.chains"] = 0.0;
  result.scalars["busy_ms"] = 0.0;
  for (const double ms : solve_ms) result.scalars["busy_ms"] += ms;
  result.scalars["parallel_wall_ms"] = window_ms;
  result.scalars["core.longest_chain_share"] =
      *std::max_element(solve_ms.begin(), solve_ms.end()) / window_ms;
  result.samples["solve_ms"] = solve_ms;
  // Per request: lateness, latency (NaN when unanswered) and whether a
  // cache answered it, for the ledger.
  std::vector<double> late, client_ms;
  for (std::size_t i = 0; i < n; ++i) {
    late.push_back(st.sent[i] - st.due[i]);
    client_ms.push_back(st.received[i] - st.due[i]);
    if (st.answers[i] == 1) {
      g_tracer.add("load.request", st.due[i], st.received[i], g_tracer.root(),
                   static_cast<long>(i));
    }
  }
  result.samples["load.late_ms"] = late;
  result.samples["load.client_ms"] = client_ms;
  result.samples["load.hit"] = live_hit;
  result.scalars["load.sent"] = static_cast<double>(n);
  double answered = 0;
  for (const int a : st.answers) answered += a > 0 ? 1 : 0;
  result.scalars["load.answered"] = answered;

  // Per-call prices on this workload's lines, then the same stream
  // replayed in process against a copy of the pre-warmed cache.
  std::vector<SolvedPoint> sample(solved.begin(),
                                  solved.begin() + static_cast<long>(std::min<std::size_t>(solved.size(), 96)));
  replay_solver_calls(sample, result);
  std::vector<ReplayUnit> units;
  for (std::size_t g = 0; g < groups.size() && units.size() < 96; ++g) {
    const std::size_t i = groups[g]->front();
    if (st.answers[i] != 1) continue;
    const io::json::Value doc = io::json::Value::parse(st.response[i]);
    if (picks[i].second) {
      units.push_back({lines[i], e2e::BoundResult{}, io::decode_delay_profile(doc.at("profile"))});
    } else {
      units.push_back({lines[i], io::decode_bound_result(doc.at("result")), std::nullopt});
    }
  }
  replay_io_calls(units, work / "io-cache", result);
  // The first 3000 requests: p99 is supported and the replay stays short.
  const std::size_t replay_n = std::min<std::size_t>(n, 3000);
  const std::vector<std::string> replay_lines(lines.begin(), lines.begin() + static_cast<long>(replay_n));
  const std::vector<double> replay_offsets(offsets.begin(), offsets.begin() + static_cast<long>(replay_n));
  replay_in_process(work / "replay-cache", workers, replay_lines, replay_offsets, result);
  std::vector<double> client(replay_n);
  for (std::size_t i = 0; i < replay_n; ++i) client[i] = st.received[i] - st.due[i];
  result.samples["replay.client_ms"] = client;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--input") a.input = value;
    else if (flag == "--out") a.out = value;
    else if (flag == "--workdir") a.workdir = value;
    else if (flag == "--cli") a.cli = value;
    else if (flag == "--seconds") a.seconds = number(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--threads") a.threads = std::max(1, static_cast<int>(number(value)));
    else die("unknown flag " + flag);
  }
  if (a.workload.empty() || a.input.empty() || a.out.empty() || a.workdir.empty() ||
      a.cli.empty()) {
    die("usage: perfbench_harness --workload W --input SPEC --out JSON --workdir DIR "
        "--cli DELTANC_CLI [--seconds S] [--trace 0|1] [--threads N]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Spec spec = read_spec(args.input);
  Result result;
  try {
    if (args.workload == "sweep-longpath") run_sweep(args, spec, result);
    else if (args.workload == "ccdf-profiles") run_ccdf(args, spec, result);
    else if (args.workload == "serve-mixed") run_serve(args, spec, result);
    else die("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    die(std::string("workload aborted: ") + e.what());
  }
  if (args.trace) {
    // What recording one span costs, for the tracing-overhead estimate.
    Tracer probe;
    probe.start("probe");
    result.scalars["trace.span_cost_us"] =
        per_call_us(20000, [&](int) { probe.end(probe.begin("probe.span")); });
    result.scalars["trace.spans"] = static_cast<double>(g_tracer.size());
    g_tracer.write(fs::path(args.workdir) / "spans.jsonl");
  }
  // Publishing the replays' results keeps their calls observable.
  result.scalars["replay.checksum"] = g_sink;
  result.write(args.out);
  return 0;
}

#include "serve.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <vector>

#include "oracle.h"
#include "qo/persist.h"
#include "qo/plan_cache.h"
#include "replay_serve.h"
#include "stream.h"
#include "trace.h"

namespace e2ebench {

namespace {

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::read(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// The wire framing of io/framing.h, written out here so the client's own
// cost does not move with the program's.
std::string Frame(const std::string& payload) {
  uint32_t size = static_cast<uint32_t>(payload.size());
  std::string out(4, '\0');
  for (int b = 0; b < 4; ++b) out[static_cast<size_t>(b)] = static_cast<char>((size >> (8 * b)) & 0xff);
  return out + payload;
}

bool ReadFrame(int fd, std::string* payload) {
  unsigned char prefix[4];
  if (!ReadAll(fd, reinterpret_cast<char*>(prefix), 4)) return false;
  uint32_t size = static_cast<uint32_t>(prefix[0]) |
                  static_cast<uint32_t>(prefix[1]) << 8 |
                  static_cast<uint32_t>(prefix[2]) << 16 |
                  static_cast<uint32_t>(prefix[3]) << 24;
  if (size > (64u << 20)) return false;
  payload->resize(size);
  return ReadAll(fd, payload->data(), size);
}

// One aqo_serve child on a pipe pair; stderr goes to a log file.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(5.0, nullptr, nullptr); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::vector<std::string>& argv, const std::string& log) {
    int to[2];
    int from[2];
    if (::pipe2(to, O_CLOEXEC) != 0) return false;
    if (::pipe2(from, O_CLOEXEC) != 0) {
      ::close(to[0]);
      ::close(to[1]);
      return false;
    }
    int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                        0644);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to[0], 0);
      ::dup2(from[1], 1);
      if (log_fd >= 0) ::dup2(log_fd, 2);
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(to[0]);
    ::close(from[1]);
    if (log_fd >= 0) ::close(log_fd);
    if (pid_ < 0) {
      ::close(to[1]);
      ::close(from[0]);
      return false;
    }
    to_ = to[1];
    from_ = from[0];
    return true;
  }

  bool Send(const std::string& frame) { return to_ >= 0 && WriteAll(to_, frame.data(), frame.size()); }
  bool Receive(std::string* payload) { return from_ >= 0 && ReadFrame(from_, payload); }

  // User plus system CPU so far, from /proc/<pid>/stat.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    // Fields 3.. follow the command name; utime and stime are 14 and 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  // Closes the server's stdin (a graceful shutdown) and reaps it, killing
  // it after `timeout_s`. Fills *ru and *status when given.
  void Stop(double timeout_s, struct rusage* ru, int* status) {
    if (to_ >= 0) ::close(to_);
    to_ = -1;
    if (pid_ > 0) {
      struct rusage usage = {};
      int wstatus = 0;
      auto deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
      pid_t done = 0;
      while ((done = ::wait4(pid_, &wstatus, WNOHANG, &usage)) == 0 &&
             NowNs() < deadline) {
        ::usleep(2000);
      }
      if (done == 0) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &wstatus, 0, &usage);
      }
      if (ru != nullptr) *ru = usage;
      if (status != nullptr) *status = wstatus;
      pid_ = -1;
    }
    if (from_ >= 0) ::close(from_);
    from_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

std::string StatsJson(const aqo::PlanCache::Stats& s) {
  JsonObject out;
  out.Add("hits", s.hits).Add("misses", s.misses).Add("inserts", s.inserts)
      .Add("evictions", s.evictions).Add("entries", s.entries);
  return out.str();
}

aqo::PlanCache::Stats Minus(const aqo::PlanCache::Stats& a,
                            const aqo::PlanCache::Stats& b) {
  aqo::PlanCache::Stats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.inserts = a.inserts - b.inserts;
  d.evictions = a.evictions - b.evictions;
  d.entries = a.entries;
  return d;
}

// The traced replay of a served stream. Three replays, each on a fresh
// cache recovered like the server's, take every request in turn, in an
// order that rotates per request so all three see the same machine: the
// layer calls untraced (the overhead baseline), the layer calls with
// spans, and the OptimizeQ*Batch call alone (the service's own time).
// Each must answer every request with the server's plan.
std::string TraceReplay(const StreamGenerator& gen, size_t timed,
                        const std::vector<std::string>& served,
                        const std::string& workdir, const std::string& prefill,
                        const std::string& server_cache_dir,
                        int64_t* parity_failures,
                        std::vector<std::string>* reasons) {
  namespace fs = std::filesystem;
  // persist.recover: what a restarted server would recover.
  double recover_ms = 0.0;
  {
    aqo::PlanCache cache(ServeCacheOptions());
    aqo::PersistOptions persist;
    persist.dir = server_cache_dir;
    persist.fsync = false;
    aqo::PlanStore store(persist);
    int64_t start = NowNs();
    store.LoadAndRecover(&cache);
    recover_ms = static_cast<double>(NowNs() - start) / 1e6;
  }

  ServeReplay untraced(workdir + "/replay_untraced", prefill, false);
  ServeReplay traced(workdir + "/replay_traced", prefill, false);
  ServeReplay batch(workdir + "/replay_batch", prefill, true);
  ServeReplay* replays[] = {&untraced, &traced, &batch};
  for (size_t i = 0; i < gen.WarmCount(); ++i) {
    std::string payload = gen.Warm(i).payload;
    for (ServeReplay* replay : replays) replay->Handle(payload, -1);
  }
  ReplayCounters counters_before = traced.counters();
  std::map<std::string, uint64_t> evals_before = traced.evaluations();
  aqo::PlanCache::Stats cache_before = traced.CacheStats();
  int64_t batch_before = batch.batch_ns();
  int64_t untraced_ns = 0;
  int64_t traced_ns = 0;
  Tracer tracer;
  traced.set_tracer(&tracer);
  for (size_t i = 0; i < timed; ++i) {
    std::string payload = gen.Timed(i).payload;
    std::string want = PlanFields(served[i]);
    for (size_t k = 0; k < 3; ++k) {
      ServeReplay* replay = replays[(i + k) % 3];
      std::string response = replay->Handle(payload, static_cast<int64_t>(i));
      if (replay == &untraced) untraced_ns += replay->last_request_ns();
      if (replay == &traced) traced_ns += replay->last_request_ns();
      if (PlanFields(response) != want) {
        ++*parity_failures;
        if (reasons->size() < 5) {
          reasons->push_back("replay parity, request " + std::to_string(i) +
                             ": server '" + want + "' replay '" +
                             PlanFields(response) + "'");
        }
      }
    }
  }
  traced.set_tracer(nullptr);
  int64_t batch_ns = batch.batch_ns() - batch_before;
  ReplayCounters counters;
  counters.AddDelta(counters_before, traced.counters());
  JsonObject evals;
  for (const auto& [name, count] : traced.evaluations()) {
    evals.Add(name, count - evals_before[name]);
  }
  tracer.Write(workdir + "/spans.tsv");

  uint64_t request_bytes = 0;
  for (size_t i = 0; i < timed; ++i) request_bytes += gen.Timed(i).payload.size();

  JsonObject out;
  out.Add("requests", static_cast<uint64_t>(timed))
      .Add("request_bytes", request_bytes)
      .Add("untraced_ns", untraced_ns)
      .Add("traced_ns", traced_ns)
      .Add("batch_ns", batch_ns)
      .AddRaw("layers", LayersJson(tracer.SelfTimes()))
      .AddRaw("evaluations", evals.str())
      .Add("pipeline_evals", counters.pipeline_evals)
      .Add("fast_candidates", counters.fast_candidates)
      .Add("fast_repricings", counters.fast_repricings)
      .Add("appends", counters.appends)
      .Add("append_bytes", counters.append_bytes)
      .Add("fsyncs", counters.fsyncs)
      .AddRaw("cache_timed", StatsJson(Minus(traced.CacheStats(), cache_before)))
      .Add("recover_ms", recover_ms);
  std::error_code ec;
  for (const char* dir : {"/replay_untraced", "/replay_batch", "/replay_traced"}) {
    fs::remove_all(workdir + dir, ec);
  }
  return out.str();
}

// serve_cold restarts on a journal that grew past the cache budget, as
// after a crash: kPrefillPlans distinct plans written through PlanStore,
// shaped like the stream's (n = 10, 8, 8; QO_H ones with pipelines).
// Recovery therefore does real work in set-up, and the cache is full
// from the first timed request, so every insert evicts.
constexpr int kPrefillPlans = 20000;

bool WritePrefill(const std::string& dir, uint64_t seed) {
  aqo::PersistOptions persist;
  persist.dir = dir;
  persist.fsync = false;
  aqo::PlanStore store(persist);
  SplitMix64 rng(seed ^ 0x70726566696c6cULL);
  for (int i = 0; i < kPrefillPlans; ++i) {
    int n = i % 3 == 0 ? 10 : 8;
    aqo::CachedPlan plan;
    plan.feasible = true;
    for (int v = 0; v < n; ++v) plan.sequence.push_back(v);
    for (int k = n - 1; k > 0; --k) {
      std::swap(plan.sequence[static_cast<size_t>(k)],
                plan.sequence[static_cast<size_t>(rng.Below(k + 1))]);
    }
    if (i % 3 == 2) plan.pipeline_starts = {1, 1 + rng.Below(n - 2) + 1};
    plan.cost = aqo::LogDouble::FromLog2(rng.Uniform(20.0, 120.0));
    plan.evaluations = rng.Next() % 100000;
    aqo::Hash128 key;
    key.lo = rng.Next();
    key.hi = rng.Next();
    if (!store.AppendEntry(key, plan)) return false;
  }
  return true;
}

}  // namespace

int RunServe(const ServeOptions& options) {
  namespace fs = std::filesystem;
  ::signal(SIGPIPE, SIG_IGN);
  StreamGenerator gen(options.workload, options.seed);
  if (!gen.ok()) {
    std::cerr << "benchkit: unknown serve workload '" << options.workload << "'\n";
    return 2;
  }
  std::error_code ec;
  fs::create_directories(options.workdir, ec);
  std::string log = options.workdir + "/server.log";
  int reps = options.trace ? 1 : kSetupReps;

  std::vector<double> setup_s;
  std::vector<std::string> reasons;
  int64_t failed = 0;
  int64_t warm_sent = 0;
  // Requests a dying server left unanswered: each one counts as failed.
  int64_t warm_unanswered = 0;
  int64_t unanswered = 0;
  std::string cache_dir;
  std::string prefill = options.workdir + "/prefill";
  fs::remove_all(prefill, ec);
  bool cold = options.workload == "serve_cold";
  if (cold && !WritePrefill(prefill, options.seed)) {
    std::cerr << "benchkit: cannot write the prefill journal in " << prefill << "\n";
    return 1;
  }
  ServerProcess server;
  // Spawns aqo_serve on `dir` and waits for the first ping's answer.
  auto start_server = [&](const std::string& dir, bool telemetry) {
    std::vector<std::string> argv = {
        options.server, "--threads=1",
        "--seed=" + std::to_string(kServeSeed),
        "--plan-cache-mb=" + std::to_string(kPlanCacheMb),
        "--plan-cache-shards=" + std::to_string(kPlanCacheShards),
        "--cache-dir=" + dir, "--fsync=0"};
    if (telemetry) {
      argv.push_back("--json-out=" + options.workdir + "/server.jsonl");
      argv.push_back("--latency-table=1");
    }
    std::string pong;
    bool alive = server.Start(argv, log) && server.Send(Frame("ping 0")) &&
                 server.Receive(&pong) && pong.rfind("ok 0 pong", 0) == 0;
    if (!alive) {
      reasons.push_back("aqo_serve did not answer ping (see " + log + ")");
    }
    return alive;
  };
  // Every set-up's warm pass is checked. A server that dies in set-up ends
  // the set-ups there, and the rest of its warm pass fails.
  bool alive = true;
  for (int rep = 0; rep < reps && alive; ++rep) {
    if (rep > 0) server.Stop(60.0, nullptr, nullptr);
    cache_dir = options.workdir + "/cache" + std::to_string(rep);
    fs::remove_all(cache_dir, ec);
    if (cold) fs::copy(prefill, cache_dir, fs::copy_options::recursive, ec);
    int64_t start = NowNs();
    alive = start_server(cache_dir, false);
    // serve_hot's warm pass: each base once, so every timed request hits.
    size_t answered = 0;
    for (; alive && answered < gen.WarmCount(); ++answered) {
      Request request = gen.Warm(answered);
      std::string response;
      alive = server.Send(Frame(request.payload)) && server.Receive(&response);
      if (!alive) break;
      std::string why;
      if (!CheckResponse(request, response, &why)) {
        ++failed;
        if (reasons.size() < 5) {
          reasons.push_back("warm " + std::to_string(answered) + ": " + why);
        }
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    warm_sent += static_cast<int64_t>(gen.WarmCount());
    if (!alive) {
      warm_unanswered = static_cast<int64_t>(gen.WarmCount() - answered);
      reasons.push_back("aqo_serve died in set-up " + std::to_string(rep) +
                        " after " + std::to_string(answered) + " warm requests");
    }
  }
  // The traced run restarts the set-up server with telemetry on, so its
  // histograms hold the timed requests only; it recovers the warm plans
  // from the snapshot the first one rotated at shutdown.
  if (options.trace && alive) {
    server.Stop(60.0, nullptr, nullptr);
    alive = start_server(cache_dir, true);
  }

  // The timed run; it sends nothing once the server is dead.
  std::vector<std::string> served;
  std::vector<double> latency_us;
  uint64_t request_bytes = 0;
  double cpu_start = server.CpuSeconds();
  int64_t run_start = NowNs();
  int64_t run_end = run_start + static_cast<int64_t>(options.seconds * 1e9);
  // The next request is built while the server works on the current one,
  // so it leaves as soon as the answer arrives.
  std::string frame = Frame(gen.Timed(0).payload);
  for (size_t i = 0; alive; ++i) {
    if (options.count > 0 ? i >= options.count : NowNs() >= run_end) break;
    std::string response;
    int64_t sent = NowNs();
    alive = server.Send(frame);
    size_t frame_bytes = frame.size();
    frame = Frame(gen.Timed(i + 1).payload);
    alive = alive && server.Receive(&response);
    int64_t done = NowNs();
    if (!alive) {
      reasons.push_back("aqo_serve stopped answering at timed request " +
                        std::to_string(i));
      break;
    }
    request_bytes += frame_bytes;
    latency_us.push_back(static_cast<double>(done - sent) / 1e3);
    served.push_back(std::move(response));
  }
  int64_t run_stop = NowNs();
  double wall_s = static_cast<double>(run_stop - run_start) / 1e9;
  double cpu_s = server.CpuSeconds() - cpu_start;
  if (!alive) {
    // The request in flight and every one the run would still have sent
    // fail: the rest of --count, or the rest of the timed window at the
    // rate answered so far (1 ms a request before any answer).
    double mean_s = served.empty() ? 1e-3 : wall_s / static_cast<double>(served.size());
    unanswered = options.count > 0
                     ? static_cast<int64_t>(options.count - served.size())
                     : 1 + static_cast<int64_t>(std::max<double>(
                               0.0, static_cast<double>(run_end - run_stop) / 1e9 / mean_s));
  }
  struct rusage usage = {};
  int status = 0;
  server.Stop(60.0, &usage, &status);

  // The oracle: every answered request, re-priced from the generated input.
  int64_t oracle_failed = 0;
  int64_t inexact_costs = 0;
  for (size_t i = 0; i < served.size(); ++i) {
    std::string why;
    bool inexact = false;
    bool ok = CheckResponse(gen.Timed(i), served[i], &why, &inexact);
    inexact_costs += inexact ? 1 : 0;
    if (!ok) {
      ++oracle_failed;
      latency_us[i] = std::numeric_limits<double>::infinity();
      if (reasons.size() < 5) reasons.push_back("request " + std::to_string(i) + ": " + why);
    }
  }
  failed += oracle_failed + warm_unanswered + unanswered;
  std::vector<double> with_failures = latency_us;
  for (int64_t k = 0; k < unanswered; ++k) {
    with_failures.push_back(std::numeric_limits<double>::infinity());
  }
  int64_t good = static_cast<int64_t>(served.size()) - oracle_failed;
  double mean_us = 0.0;
  for (double v : latency_us) mean_us += std::isfinite(v) ? v : 0.0;
  mean_us = good > 0 ? mean_us / static_cast<double>(good) : 0.0;

  if (!options.save_responses.empty()) {
    std::ofstream out(options.save_responses, std::ios::binary);
    for (const std::string& r : served) out << Frame(r);
  }

  int64_t parity_failures = 0;
  std::string trace_json = "null";
  if (options.trace) {
    trace_json = TraceReplay(gen, served.size(), served, options.workdir,
                             cold ? prefill : "", cache_dir, &parity_failures,
                             &reasons);
    failed += parity_failures;
  }

  JsonObject out;
  out.Add("workload", options.workload)
      .Add("setup_s", setup_s)
      .Add("attempted", static_cast<int64_t>(served.size()) + unanswered + warm_sent)
      .Add("failed", failed)
      .Add("timed_sent", static_cast<int64_t>(served.size()) + unanswered)
      .Add("timed_ok", good)
      .Add("unanswered", warm_unanswered + unanswered)
      .Add("oracle_failed", oracle_failed)
      .Add("inexact_costs", inexact_costs)
      .Add("parity_failed", parity_failures)
      .Add("wall_s", wall_s)
      .Add("p50_us", Percentile(with_failures, 0.50))
      .Add("p90_us", Percentile(with_failures, 0.90))
      .Add("p99_us", Percentile(with_failures, 0.99))
      .Add("mean_us", mean_us)
      .Add("server_cpu_s", cpu_s)
      .Add("peak_rss_kb", static_cast<int64_t>(usage.ru_maxrss))
      .Add("server_exit", WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status))
      .Add("request_bytes", request_bytes)
      .Add("reasons", reasons)
      .AddRaw("trace", trace_json);
  std::cout << out.str() << std::endl;
  for (int rep = 0; rep < reps; ++rep) {
    fs::remove_all(options.workdir + "/cache" + std::to_string(rep), ec);
  }
  fs::remove_all(prefill, ec);
  return 0;
}

int RunCheck(const std::string& workload, uint64_t seed,
             const std::string& responses_path) {
  StreamGenerator gen(workload, seed);
  std::ifstream in(responses_path, std::ios::binary);
  if (!gen.ok() || !in) {
    std::cerr << "benchkit: bad workload or unreadable " << responses_path << "\n";
    return 2;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  int64_t checked = 0;
  int64_t inexact_costs = 0;
  std::vector<std::string> failures;
  size_t at = 0;
  while (at + 4 <= bytes.size()) {
    uint32_t size = 0;
    for (int b = 0; b < 4; ++b) {
      size |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + static_cast<size_t>(b)])) << (8 * b);
    }
    std::string response = bytes.substr(at + 4, size);
    at += 4 + size;
    std::string why;
    bool inexact = false;
    if (!CheckResponse(gen.Timed(static_cast<size_t>(checked)), response, &why,
                       &inexact)) {
      failures.push_back(std::to_string(checked) + ": " + why);
    }
    inexact_costs += inexact ? 1 : 0;
    ++checked;
  }
  JsonObject out;
  out.Add("checked", checked)
      .Add("failed", static_cast<int64_t>(failures.size()))
      .Add("inexact_costs", inexact_costs)
      .Add("failures", failures);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace e2ebench

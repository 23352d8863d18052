// The `served` workload: a real `refereectl serve --workers 2` daemon on a
// Unix socket, driven open-loop at a fixed offered rate from four
// connections. The schedule is deterministic in the workload seed: one
// request in every block of 20 (5%) is a heavy, non-batchable served
// `campaign` (the fault sweep at --threads 1), the rest are small,
// batchable `decode-transcript` requests (kdeg n=256, k=3). Latency runs
// from each request's due time, so a stall is charged to every request it
// delays, and the generator's lateness is reported beside it.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "service/procedure.hpp"
#include "service/wire.hpp"
#include "support/random.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace referee;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSmallInputs = 32;
/// Small decodes take a few ms: large enough that the daemon's thread
/// wakeups (tens to hundreds of µs on a contended VM) stay a small share of
/// the p50, small enough that a decode is still batchable work.
constexpr int kSmallNodes = 256;
constexpr std::size_t kBlock = 20;  // one heavy request per block
/// Offered rate of the measured window: about half the capacity the ladder
/// below measured with this mix on a 4-core x86 VM (60-80 req/s as the
/// host's speed drifted), so the daemon stays clear of saturation.
constexpr double kRatePerS = 30;
/// Capacity ladder (traced runs): 2 s per rung, in ascending order.
constexpr double kLadder[] = {30, 45, 60, 80, 100, 125, 150, 200, 250};
constexpr double kLadderRungS = 2;
constexpr double kTailLimitMs = 1000;
constexpr double kBacklogLimitMs = 50;
constexpr std::size_t kSmallProbes = 64;
constexpr std::size_t kHeavyProbes = 3;
constexpr auto kSpin = std::chrono::microseconds(200);

Request make_request(std::string proc, std::map<std::string, std::string> args,
                     std::string input = {}) {
  Request request;
  request.proc = std::move(proc);
  request.args.values = std::move(args);
  request.input = std::move(input);
  return request;
}

/// The procedure's handler called in-process: the reference every served
/// answer must equal byte for byte.
std::string run_in_process(const Request& request) {
  const ProcedureDesc* desc = find_procedure(request.proc);
  if (desc == nullptr) throw std::runtime_error("no procedure " + request.proc);
  std::ostringstream out;
  std::ostringstream err;
  ProcedureIO io{out, err};
  if (desc->handler(request, ProcedureContext{}, io) != 0) {
    throw std::runtime_error(request.proc + " failed in-process: " + err.str());
  }
  return out.str();
}

struct Inputs {
  std::vector<Request> smalls;
  std::vector<std::string> small_refs;
  Request heavy;
  std::string heavy_ref;
};

Inputs make_inputs(const Options& options) {
  Inputs in;
  std::uint64_t state = mix64(options.seed ^ 0x736572766564ull);  // "served"
  for (std::size_t i = 0; i < kSmallInputs; ++i) {
    const std::string graph = run_in_process(make_request(
        "gen", {{"family", "kdeg"},
                {"n", std::to_string(kSmallNodes)},
                {"k", "3"},
                {"seed", std::to_string(splitmix64(state))}}));
    const std::string path =
        (std::filesystem::path(options.work_dir) /
         ("small-" + std::to_string(i) + ".rft"))
            .string();
    run_in_process(make_request("capture", {{"k", "3"}, {"out", path}}, graph));
    in.smalls.push_back(
        make_request("decode-transcript", {{"k", "3"}, {"in", path}}));
    in.small_refs.push_back(run_in_process(in.smalls.back()));
  }
  in.heavy = make_request(
      "campaign", {{"fault-sweep", "1"}, {"threads", "1"}, {"json", "1"}});
  in.heavy_ref = run_in_process(in.heavy);
  return in;
}

/// -1 marks a heavy request, else the index of the small input to send.
std::vector<int> make_schedule(std::uint64_t seed, std::size_t count) {
  Rng rng(mix64(seed ^ 0x7363686564ull));  // "sched"
  std::vector<int> kinds(count);
  for (std::size_t block = 0; block < count; block += kBlock) {
    const std::size_t heavy = block + rng.next() % kBlock;
    for (std::size_t i = block; i < block + kBlock && i < count; ++i) {
      kinds[i] = i == heavy ? -1 : static_cast<int>(rng.next() % kSmallInputs);
    }
  }
  return kinds;
}

std::size_t request_count(double seconds, double rate) {
  return fixed_count(seconds, 1.0 / rate, kBlock);
}

std::string check_response(const ServiceResponse& response,
                           const std::string& reference) {
  if (response.status != ServiceStatus::kOk) {
    return "status " + std::string(service_status_name(response.status));
  }
  if (response.exit_code != 0) {
    return "exit " + std::to_string(response.exit_code);
  }
  if (response.output != reference) return "output differs from in-process";
  return {};
}

/// A `refereectl serve` child process, stopped (SIGTERM drain) and reaped
/// by the destructor.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& socket,
         const std::string& log) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const std::string workers = std::to_string(kWorkers);
    const char* argv[] = {exe.c_str(), "serve",         "--socket",
                          socket.c_str(), "--workers", workers.c_str(),
                          nullptr};
    const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + exe);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
      try {
        ServiceClient probe(socket);
        return;
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("daemon exited during start; see " + log);
        }
        if (Clock::now() > deadline) {
          stop();
          throw std::runtime_error("daemon did not come up; see " + log);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

 private:
  /// SIGTERM drains the queue; a daemon still up after 60 s is killed.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
};

/// One procedure's `service stats` counters.
struct ProcCounters {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t batched = 0;
  std::uint64_t total_micros = 0;
};

struct StatsSnapshot {
  std::uint64_t arena_growth = 0;
  ProcCounters small;
  ProcCounters heavy;
};

std::uint64_t json_u64(std::string_view json, std::string_view key) {
  std::string needle(1, '"');
  needle.append(key).append("\":");
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) {
    throw std::runtime_error("service stats lacks " + std::string(key));
  }
  return std::stoull(std::string(json.substr(pos + needle.size(), 24)));
}

ProcCounters proc_counters(std::string_view json, std::string_view name) {
  std::string needle = "{\"name\":\"";
  needle.append(name).append("\"");
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) {
    throw std::runtime_error("service stats lacks " + std::string(name));
  }
  const std::string_view row = json.substr(pos, json.find('}', pos) - pos);
  return {json_u64(row, "requests"), json_u64(row, "errors"),
          json_u64(row, "shed"), json_u64(row, "batched"),
          json_u64(row, "total_micros")};
}

StatsSnapshot fetch_stats(ServiceClient& client) {
  const ServiceResponse response =
      client.call(make_request("service stats", {}));
  if (response.status != ServiceStatus::kOk) {
    throw std::runtime_error("service stats refused");
  }
  return {json_u64(response.output, "arena_growth_events"),
          proc_counters(response.output, "decode-transcript"),
          proc_counters(response.output, "campaign")};
}

struct Sample {
  double latency_ms = 0;
  double late_ms = 0;
  std::string failure = "not sent";
};

struct Window {
  std::vector<Sample> samples;
  double elapsed_s = 0;
};

/// The open loop: request i is due at start + i/rate; each connection
/// takes the next due request as soon as its previous answer arrives.
Window open_loop(const std::string& socket, const Inputs& in,
                 const std::vector<int>& kinds, double rate) {
  Window w;
  w.samples.resize(kinds.size());
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<ServiceClient>(socket));
  }
  std::atomic<std::size_t> next{0};
  std::vector<Clock::time_point> last_done(kConnections);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto sender = [&](std::size_t c) {
    last_done[c] = start;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= kinds.size()) return;
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) /
                                                    rate));
      // Sleep to just short of the due time, then spin: a plain sleep
      // wakes tens of microseconds late, which sub-ms latencies would
      // absorb as noise.
      std::this_thread::sleep_until(due - kSpin);
      while (Clock::now() < due) {
      }
      const auto sent = Clock::now();
      Sample& s = w.samples[i];
      const bool heavy = kinds[i] < 0;
      try {
        const ServiceResponse response =
            clients[c]->call(heavy ? in.heavy : in.smalls[kinds[i]]);
        const auto done = Clock::now();
        s.latency_ms = ms_between(due, done);
        s.late_ms = std::max(0.0, ms_between(due, sent));
        s.failure = check_response(
            response, heavy ? in.heavy_ref : in.small_refs[kinds[i]]);
        last_done[c] = done;
      } catch (const std::exception& e) {
        s.failure = e.what();  // the connection is gone: stop this sender
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) threads.emplace_back(sender, c);
  for (std::thread& t : threads) t.join();
  w.elapsed_s =
      ms_between(start, *std::max_element(last_done.begin(), last_done.end())) /
      1000;
  return w;
}

std::vector<double> latencies(const Window& w) {
  std::vector<double> out;
  for (const Sample& s : w.samples) {
    if (s.failure.empty()) out.push_back(s.latency_ms);
  }
  return out;
}

/// A rung passes when every request succeeds, the tail stays under the
/// limit, and the generator runs no more than 50 ms later in the last
/// quarter than in the first (no growing backlog).
bool rung_passes(const Window& w) {
  const std::size_t n = w.samples.size();
  double early = 0;
  double late = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!w.samples[i].failure.empty()) return false;
    if (i < n / 4) early += w.samples[i].late_ms;
    if (i >= n - n / 4) late += w.samples[i].late_ms;
  }
  const double quarter = static_cast<double>(n / 4);
  return tail_of(latencies(w)).value < kTailLimitMs &&
         late / quarter <= early / quarter + kBacklogLimitMs;
}

/// Closed-loop probes of one request class: mean round trip through the
/// daemon, mean time inside the core (its enqueue→completion counters),
/// and mean in-process handler time on the same requests.
struct ClassSplit {
  double rtt_ms = 0;
  double core_ms = 0;
  double handler_ms = 0;
};

template <class Pick>
ClassSplit probe_class(ServiceClient& client, std::size_t probes, Pick&& pick,
                       ProcCounters StatsSnapshot::*row, Report& report) {
  ClassSplit split;
  const ProcCounters before = fetch_stats(client).*row;
  std::vector<double> rtt;
  for (std::size_t i = 0; i < probes; ++i) {
    const auto& [request, reference] = pick(i);
    const auto t0 = Clock::now();
    const ServiceResponse response = client.call(request);
    rtt.push_back(ms_since(t0));
    report.op(check_response(response, reference));
  }
  const ProcCounters after = fetch_stats(client).*row;
  std::vector<double> handler;
  for (std::size_t i = 0; i < probes; ++i) {
    const auto t0 = Clock::now();
    run_in_process(pick(i).first);
    handler.push_back(ms_since(t0));
  }
  split.rtt_ms = mean(rtt);
  split.core_ms = static_cast<double>(after.total_micros - before.total_micros) /
                  static_cast<double>(after.requests - before.requests) / 1000;
  split.handler_ms = mean(handler);
  return split;
}

}  // namespace

void run_served(const Options& options, Report& report) {
  if (options.refereectl.empty()) {
    throw std::runtime_error("served needs --refereectl PATH");
  }
  const std::filesystem::path dir(options.work_dir);
  // Relative to the working directory: sun_path holds only 108 bytes.
  const std::string socket = (dir / "served.sock").string();
  const std::string log = (dir / "served.log").string();

  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<Daemon> daemon;
  for (int s = 0; s < kSetups; ++s) {
    daemon.reset();
    const auto t0 = Clock::now();
    in = make_inputs(options);
    daemon = std::make_unique<Daemon>(options.refereectl, socket, log);
    ServiceClient client(socket);
    const std::string small = check_response(client.call(in.smalls.front()),
                                              in.small_refs.front());
    const std::string heavy =
        check_response(client.call(in.heavy), in.heavy_ref);
    setup_s.push_back(ms_since(t0) / 1000);
    if (!small.empty() || !heavy.empty()) {
      throw std::runtime_error("warm-up request failed: " + small + heavy);
    }
  }

  const std::vector<int> kinds =
      make_schedule(options.seed, request_count(options.seconds, kRatePerS));
  ServiceClient control(socket);
  const StatsSnapshot before = fetch_stats(control);
  const Window window = open_loop(socket, in, kinds, kRatePerS);
  const StatsSnapshot after = fetch_stats(control);
  for (const Sample& s : window.samples) report.op(s.failure);
  report.end_to_end(latencies(window), window.elapsed_s, setup_s,
                    peak_rss_mb(daemon->pid()));
  report.context("ops", static_cast<double>(kinds.size()));
  report.context("rate_per_s", kRatePerS);
  report.context("workers", static_cast<double>(kWorkers));
  report.context("connections", static_cast<double>(kConnections));
  std::vector<double> late_ms;
  for (const Sample& s : window.samples) late_ms.push_back(s.late_ms);
  report.context("generator_late_p50_ms", median(late_ms));
  if (!report.traced()) return;

  const auto small_pick = [&](std::size_t i) {
    return std::pair<const Request&, const std::string&>(
        in.smalls[i % kSmallInputs], in.small_refs[i % kSmallInputs]);
  };
  const auto heavy_pick = [&](std::size_t) {
    return std::pair<const Request&, const std::string&>(in.heavy,
                                                         in.heavy_ref);
  };
  const ClassSplit small = probe_class(control, kSmallProbes, small_pick,
                                       &StatsSnapshot::small, report);
  const ClassSplit heavy = probe_class(control, kHeavyProbes, heavy_pick,
                                       &StatsSnapshot::heavy, report);

  double max_rate = 0;
  for (const double rate : kLadder) {
    const Window rung = open_loop(
        socket, in, make_schedule(options.seed, request_count(kLadderRungS, rate)),
        rate);
    if (!rung_passes(rung)) break;
    max_rate = rate;
  }

  double late_max = 0;
  for (const Sample& s : window.samples) late_max = std::max(late_max, s.late_ms);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.metric("service.small_rtt_ms", small.rtt_ms, "ms", kSmallProbes);
  report.metric("service.heavy_rtt_ms", heavy.rtt_ms, "ms", kHeavyProbes);
  report.metric("service.small_core_ms", small.core_ms, "ms", kSmallProbes);
  report.metric("service.heavy_core_ms", heavy.core_ms, "ms", kHeavyProbes);
  report.metric("service.small_handler_ms", small.handler_ms, "ms",
                kSmallProbes);
  report.metric("service.heavy_handler_ms", heavy.handler_ms, "ms",
                kHeavyProbes);
  report.metric("service.small_queue_ms", small.core_ms - small.handler_ms,
                "ms", kSmallProbes);
  report.metric("service.heavy_queue_ms", heavy.core_ms - heavy.handler_ms,
                "ms", kHeavyProbes);
  report.metric("service.small_wire_ms", small.rtt_ms - small.core_ms, "ms",
                kSmallProbes);
  report.metric("service.heavy_wire_ms", heavy.rtt_ms - heavy.core_ms, "ms",
                kHeavyProbes);
  report.metric("service.batched_ratio",
                delta(before.small.batched, after.small.batched) /
                    delta(before.small.requests, after.small.requests),
                "ratio", kinds.size());
  report.metric("service.shed",
                delta(before.small.shed, after.small.shed) +
                    delta(before.heavy.shed, after.heavy.shed),
                "count", kinds.size());
  report.metric("service.errors",
                delta(before.small.errors, after.small.errors) +
                    delta(before.heavy.errors, after.heavy.errors),
                "count", kinds.size());
  report.metric("service.max_rate_per_s", max_rate, "1/s",
                std::size(kLadder));
  report.metric("support.arena_growth",
                delta(before.arena_growth, after.arena_growth), "count",
                kinds.size());
  report.metric("bench.generator_late_ms", late_max, "ms", kinds.size());
}

}  // namespace perfbench

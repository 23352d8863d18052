// Shared plumbing of the benchmark's measuring program: run options,
// timing, the latency summaries every workload reports, and the result
// printer.
//
// Every workload follows one shape: set up several times (reporting the
// median as setup_s), run a fixed count of one kind of operation while
// checking each operation's output, then — in a traced run only — replay
// the same operations stage by stage through the library's public
// functions to price each layer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string refereectl;
  std::string commit = "unknown";
};

/// Setups per run; setup_s is their median.
inline constexpr int kSetups = 3;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The tail rule of every workload: the highest percentile that has at
/// least ten samples beyond it (the 11th-largest sample), or the maximum
/// (percentile 100) when there are fewer than eleven samples.
struct Tail {
  double value = 0;
  double percentile = 100;
};
Tail tail_of(std::vector<double> values);

/// Operation count for a run of `seconds`: the nominal per-operation cost
/// is a constant of the workload, so parent and change run the same count.
/// The count is a positive multiple of `multiple`.
std::size_t fixed_count(double seconds, double nominal_op_s,
                        std::size_t multiple = 1);

/// This process's peak resident set (VmHWM), in MB.
double peak_rss_mb();
/// Another process's peak resident set, from /proc/<pid>/status.
double peak_rss_mb(int pid);

/// One run's output: the metrics, the context block and the op tally.
class Report {
 public:
  explicit Report(const Options& options);

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1);
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);

  /// Count one attempted operation; a non-empty `failure` marks it failed.
  void op(const std::string& failure = {});

  /// The end-to-end metrics of a closed-loop workload.
  void end_to_end(const std::vector<double>& latency_ms, double elapsed_s,
                  const std::vector<double>& setup_s, double rss_mb);

  /// Prints the context line, then the result line (always last).
  void print() const;

  bool traced() const { return traced_; }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;  // raw JSON
  bool traced_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

void run_sweep(const Options& options, Report& report);
void run_million(const Options& options, Report& report);
void run_served(const Options& options, Report& report);

}  // namespace perfbench

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in " + status_path);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail tail_of(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) return {values.back(), 100.0};
  return {values[n - 11],
          100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

std::size_t fixed_count(double seconds, double nominal_op_s,
                        std::size_t multiple) {
  const double blocks =
      std::round(seconds / (nominal_op_s * static_cast<double>(multiple)));
  return multiple * static_cast<std::size_t>(std::max(1.0, blocks));
}

double peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double peak_rss_mb(int pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

Report::Report(const Options& options) : traced_(options.trace) {
  context("workload", options.workload);
  context("seed", static_cast<double>(options.seed));
  context("seconds", options.seconds);
  context("trace", options.trace ? 1.0 : 0.0);
  context("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  context("cpu_model", cpu_model());
  context("commit", options.commit);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, json_string(value));
}

void Report::context(const std::string& key, double value) {
  context_.emplace_back(key, json_number(value));
}

void Report::op(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  if (failed_ <= 5) std::cerr << "perfbench: failed op: " << failure << "\n";
}

void Report::end_to_end(const std::vector<double>& latency_ms,
                        double elapsed_s, const std::vector<double>& setup_s,
                        double rss_mb) {
  const Tail tail = tail_of(latency_ms);
  const std::size_t n = latency_ms.size();
  metric("ops_per_s", static_cast<double>(n) / elapsed_s, "1/s", n);
  metric("latency_p50_ms", median(latency_ms), "ms", n);
  metric("latency_tail_ms", tail.value, "ms", n);
  metric("peak_rss_mb", rss_mb, "MB");
  metric("setup_s", median(setup_s), "s", setup_s.size());
  context("tail_percentile", tail.percentile);
}

void Report::print() const {
  // Every metric the workload recorded; run.py keeps the end-to-end or the
  // per-layer ones that BENCHMARK.json lists, by the run's kind.
  std::ostringstream ctx;
  ctx << "{\"context\":{";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    ctx << (i ? "," : "") << json_string(context_[i].first) << ":"
        << context_[i].second;
  }
  ctx << ",\"samples\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    ctx << (i ? "," : "") << json_string(metrics_[i].name) << ":"
        << metrics_[i].samples;
  }
  ctx << "}}}";

  std::ostringstream out;
  out << "{\"correct\":" << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? "," : "") << json_string(metrics_[i].name)
        << ":{\"value\":" << json_number(metrics_[i].value)
        << ",\"unit\":" << json_string(metrics_[i].unit) << "}";
  }
  out << "}}";
  std::cout << ctx.str() << "\n" << out.str() << std::endl;
}

}  // namespace perfbench

// The `sweep` workload: one op is the whole 200-cell default contract
// sweep (default_fault_sweep_config()), planned with CampaignPlan and run
// by a 2-thread ThreadPoolBackend into a StreamingReportWriter. Per-cell
// fixed costs and the campaign layer dominate it. The grid is the pinned
// contract sweep, so the workload seed does not change it.
#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/backend.hpp"
#include "campaign/plan.hpp"
#include "campaign/scenario.hpp"
#include "campaign/stream.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace referee;

constexpr std::size_t kPoolThreads = 2;
// Nominal cost of one sweep on a 4-core x86 VM, between its quiet and its
// contended speed; it only fixes the op count.
constexpr double kSweepNominalS = 0.13;
constexpr std::size_t kSweepCells = 200;

struct SweepOutput {
  std::string json;
  std::size_t rows = 0;
  std::size_t silent_wrong = 0;
  double plan_ms = 0;
  double run_ms = 0;
};

SweepOutput sweep_once(const CampaignConfig& config, ThreadPool* pool) {
  SweepOutput out;
  const auto t0 = Clock::now();
  const CampaignPlan plan(config);
  const auto t1 = Clock::now();
  std::ostringstream json;
  StreamingReportWriter writer(json);
  ThreadPoolBackend(pool).run_to(plan, writer);
  out.plan_ms = ms_between(t0, t1);
  out.run_ms = ms_since(t1);
  out.json = json.str();
  out.rows = writer.folder().rows();
  out.silent_wrong = writer.folder().silent_wrong();
  return out;
}

std::string gate(const SweepOutput& got, const std::string& reference) {
  if (got.silent_wrong != 0) {
    return std::to_string(got.silent_wrong) + " silent-wrong cells";
  }
  if (got.json != reference) return "sweep JSON differs from the reference";
  return {};
}

}  // namespace

void run_sweep(const Options& options, Report& report) {
  const CampaignConfig config = default_fault_sweep_config();
  std::vector<double> setup_s;
  std::unique_ptr<ThreadPool> pool;
  std::string reference;
  for (int s = 0; s < kSetups; ++s) {
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<ThreadPool>(kPoolThreads);
    // The reference is emitted sequentially: the pooled ops must match it
    // byte for byte (reports are thread-count invariant).
    const SweepOutput ref = sweep_once(config, nullptr);
    const SweepOutput warm = sweep_once(config, pool.get());
    setup_s.push_back(ms_since(t0) / 1000);
    if (ref.rows != kSweepCells || ref.silent_wrong != 0) {
      throw std::runtime_error("reference sweep: " + std::to_string(ref.rows) +
                               " rows, " + std::to_string(ref.silent_wrong) +
                               " silent-wrong");
    }
    reference = ref.json;
    if (!gate(warm, reference).empty()) {
      throw std::runtime_error("warm-up sweep: " + gate(warm, reference));
    }
  }

  const std::size_t count = fixed_count(options.seconds, kSweepNominalS);
  std::vector<double> latency_ms;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    const SweepOutput got = sweep_once(config, pool.get());
    latency_ms.push_back(ms_since(t0));
    report.op(gate(got, reference));
  }
  const double elapsed_s = ms_since(start) / 1000;
  report.end_to_end(latency_ms, elapsed_s, setup_s, peak_rss_mb());
  report.context("ops", static_cast<double>(count));
  report.context("pool_threads", static_cast<double>(kPoolThreads));
  if (!report.traced()) return;

  // Traced pass: the plan/run split of whole sweeps, then every cell timed
  // alone through run_scenario on one warm arena (a first pass warms it).
  const std::size_t replays = std::min<std::size_t>(count, 20);
  const double untraced_ms = median(latency_ms);
  std::vector<double> plan_ms, run_ms, coverage, overhead;
  for (std::size_t i = 0; i < replays; ++i) {
    const auto t0 = Clock::now();
    const SweepOutput got = sweep_once(config, pool.get());
    const double wall_ms = ms_since(t0);
    report.op(gate(got, reference));
    plan_ms.push_back(got.plan_ms);
    run_ms.push_back(got.run_ms);
    coverage.push_back((got.plan_ms + got.run_ms) / untraced_ms);
    overhead.push_back(wall_ms / untraced_ms - 1.0);
  }

  const CampaignPlan plan(config);
  const Simulator sim;
  std::vector<Message> transcript;
  DecodeArena arena;
  for (const CampaignCell& cell : plan.cells()) {
    run_scenario(cell.spec, sim, transcript, arena);
  }
  const std::uint64_t growth_before = arena.growth_events();
  std::vector<double> cell_ms;
  for (const CampaignCell& cell : plan.cells()) {
    const auto t0 = Clock::now();
    const ScenarioResult res = run_scenario(cell.spec, sim, transcript, arena);
    cell_ms.push_back(ms_since(t0));
    report.op(res.contract_ok ? std::string()
                              : "cell " + std::to_string(cell.id) +
                                    " is silent-wrong");
  }
  double cell_sum_ms = 0;
  for (const double ms : cell_ms) cell_sum_ms += ms;

  report.metric("campaign.plan_ms", median(plan_ms), "ms", replays);
  report.metric("campaign.run_ms", median(run_ms), "ms", replays);
  report.metric("campaign.cell_p50_ms", median(cell_ms), "ms", cell_ms.size());
  report.metric("campaign.cell_max_ms",
                *std::max_element(cell_ms.begin(), cell_ms.end()), "ms",
                cell_ms.size());
  report.metric("campaign.pool_util",
                cell_sum_ms / (kPoolThreads * median(run_ms)), "ratio",
                replays);
  report.metric("support.arena_growth",
                static_cast<double>(arena.growth_events() - growth_before),
                "count", cell_ms.size());
  report.metric("bench.stage_coverage", median(coverage), "ratio", replays);
  report.metric("bench.trace_overhead", median(overhead), "ratio", replays);
}

}  // namespace perfbench

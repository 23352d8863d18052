// The `million` workload: one fault-free `degeneracy` (k=3) cell on a
// 2^20-node chord-path edge file, through run_scenario on a warm arena with
// a 2-thread intra-cell pool — dominated by the envelope and bit codecs of
// the model layer.
//
// The traced pass replays the same cell stage by stage through the public
// functions run_scenario composes, and asserts that each replay grades the
// same outcome on the same wire bits as run_scenario did.
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/scenario.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "model/envelope.hpp"
#include "model/local_view.hpp"
#include "model/protocol.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace referee;

constexpr std::size_t kMillionNodes = std::size_t{1} << 20;
constexpr std::size_t kCellPoolThreads = 2;

// A million setup runs a whole cold cell; two keep the run short.
constexpr int kMillionSetups = 2;

// Nominal per-cell cost on a 4-core x86 VM, between its quiet and its
// contended speed; it only fixes the op count.
constexpr double kMillionNominalS = 6.5;

/// The chord path v–v+1 plus v–v+64 (as in bench_campaign's mmap cell),
/// with the chords' phase drawn from the seed so each seed writes its own
/// file without changing the cell's cost profile.
void write_chord_path(const std::string& path, std::uint64_t seed) {
  const auto phase = static_cast<Vertex>(mix64(seed) % 64);
  std::vector<Edge> edges;
  edges.reserve(kMillionNodes + kMillionNodes / 64);
  for (Vertex v = 0; v + 1 < kMillionNodes; ++v) edges.emplace_back(v, v + 1);
  for (Vertex v = phase; v + 64 < kMillionNodes; v += 64) {
    edges.emplace_back(v, v + 64);
  }
  write_edge_file(path, kMillionNodes, edges);
}

std::size_t wire_bits(const std::vector<Message>& transcript) {
  std::size_t bits = 0;
  for (const Message& m : transcript) bits += m.bit_size();
  return bits;
}

/// One untraced op's observable outputs, kept for the replay parity check.
struct CellOutcome {
  std::string outcome;
  std::size_t payload_bits = 0;
  std::size_t wire_bits = 0;
};

/// Per-stage times (ms) of one traced replay.
struct Stages {
  double csr_build = 0;
  double pack = 0;
  double local = 0;
  double audit = 0;
  double seal = 0;
  double open = 0;
  double decode = 0;
  double truth = 0;
  double total() const {
    return csr_build + pack + local + audit + seal + open + decode + truth;
  }
  CellOutcome result;
};

/// run_scenario's one-round, fault-free pipeline, stage by stage. Fault
/// injection is skipped: with an inactive plan it leaves the wire as is.
Stages replay_cell(const ScenarioSpec& spec, const Simulator& sim,
                   std::vector<Message>& transcript, DecodeArena& arena) {
  Stages st;
  auto t = Clock::now();
  const auto lap = [&t] {
    const auto now = Clock::now();
    const double ms = ms_between(t, now);
    t = now;
    return ms;
  };
  const auto source = open_edge_source(file_generator_path(spec.generator));
  const CsrGraph csr(*source);
  st.csr_build = lap();
  const GraphView g(csr);
  const auto n = static_cast<std::uint32_t>(g.vertex_count());
  const LocalViewPack views(csr);
  st.pack = lap();

  const auto protocol = make_campaign_protocol(spec, g);
  sim.run_local_phase(views, *protocol, transcript);
  st.local = lap();
  const FrugalityReport frugality = audit_frugality(n, transcript);
  st.audit = lap();
  const std::uint64_t epoch = scenario_epoch(spec);
  seal_transcript(epoch, n, transcript);
  st.seal = lap();
  auto payloads = arena.scratch<Message>();
  open_transcript_into(epoch, n, transcript, arena, *payloads);
  st.open = lap();
  const auto& referee = dynamic_cast<const ReconstructionProtocol&>(*protocol);
  const Graph h = referee.reconstruct(
      n, std::span<const Message>(payloads->data(), n), arena);
  st.decode = lap();
  const bool exact = graphs_equal(h, g);
  st.truth = lap();

  st.result = {exact ? "exact" : "silent-wrong", frugality.total_bits,
               wire_bits(transcript)};
  return st;
}

/// A warm cell runner: one simulator, transcript buffer and arena reused
/// across ops, as a campaign worker chunk reuses them.
struct CellRunner {
  Simulator sim;
  std::vector<Message> transcript;
  DecodeArena arena;

  CellOutcome run(const ScenarioSpec& spec) {
    const ScenarioResult res = run_scenario(spec, sim, transcript, arena);
    return {res.outcome, res.report.total_bits, wire_bits(transcript)};
  }
};

std::string gate(const ScenarioSpec& spec, const CellOutcome& got) {
  if (got.outcome == "exact") return {};
  return spec.generator + " graded " + got.outcome;
}

}  // namespace

void run_million(const Options& options, Report& report) {
  const std::string path =
      (std::filesystem::path(options.work_dir) / "chord_path.rgb").string();
  ScenarioSpec spec;
  spec.generator = "file:" + path;
  spec.protocol = "degeneracy";
  spec.k = 3;

  std::vector<double> setup_s;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<CellRunner> runner;
  std::unique_ptr<CellPoolScope> scope;
  for (int s = 0; s < kMillionSetups; ++s) {
    scope.reset();
    pool.reset();
    const auto t0 = Clock::now();
    write_chord_path(path, options.seed);
    pool = std::make_unique<ThreadPool>(kCellPoolThreads);
    scope = std::make_unique<CellPoolScope>(pool.get());
    runner = std::make_unique<CellRunner>();
    const CellOutcome warm = runner->run(spec);
    setup_s.push_back(ms_since(t0) / 1000);
    if (!gate(spec, warm).empty()) {
      throw std::runtime_error("warm-up cell failed: " + gate(spec, warm));
    }
  }

  // Every op runs on the arena the warm-up cell grew, so arena growth
  // counts over all of them.
  const std::size_t count = fixed_count(options.seconds, kMillionNominalS);
  std::vector<double> latency_ms;
  CellOutcome outcome;
  const std::uint64_t growth_before = runner->arena.growth_events();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    outcome = runner->run(spec);
    latency_ms.push_back(ms_since(t0));
    report.op(gate(spec, outcome));
  }
  const double elapsed_s = ms_since(start) / 1000;
  const std::uint64_t growth = runner->arena.growth_events() - growth_before;
  report.end_to_end(latency_ms, elapsed_s, setup_s, peak_rss_mb());
  report.context("ops", static_cast<double>(count));
  report.context("cell_pool_threads", static_cast<double>(pool->size()));
  if (!report.traced()) return;

  // Traced pass: one replay, checked against the untraced ops.
  const double untraced_ms = median(latency_ms);
  const auto t0 = Clock::now();
  const Stages st =
      replay_cell(spec, runner->sim, runner->transcript, runner->arena);
  const double wall_ms = ms_since(t0);
  std::string failure = gate(spec, st.result);
  if (failure.empty() && (st.result.outcome != outcome.outcome ||
                          st.result.wire_bits != outcome.wire_bits ||
                          st.result.payload_bits != outcome.payload_bits)) {
    failure = "stage replay diverged from run_scenario";
  }
  report.op(failure);
  report.metric("graph.csr_build_ms", st.csr_build, "ms");
  report.metric("graph.truth_ms", st.truth, "ms");
  report.metric("model.pack_ms", st.pack, "ms");
  report.metric("model.local_ms", st.local, "ms");
  report.metric("model.audit_ms", st.audit, "ms");
  report.metric("model.seal_ms", st.seal, "ms");
  report.metric("model.open_ms", st.open, "ms");
  // Exact counts: they repeat exactly per seed.
  report.metric("model.payload_bits",
                static_cast<double>(st.result.payload_bits), "bits");
  report.metric("model.wire_bits", static_cast<double>(st.result.wire_bits),
                "bits");
  report.metric("protocols.decode_ms", st.decode, "ms");
  report.metric("support.arena_growth", static_cast<double>(growth), "count",
                count);
  report.metric("bench.stage_coverage", st.total() / untraced_ms, "ratio");
  report.metric("bench.trace_overhead", wall_ms / untraced_ms - 1.0, "ratio");
}

}  // namespace perfbench

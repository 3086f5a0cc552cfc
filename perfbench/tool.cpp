/// \file tool.cpp
/// \brief Input generator, reference solver and traced in-process replay
///        for the MATEX benchmark (driven by perfbench/run.py).
///
///   perfbench_tool gen   --workload W --seed S --out DECK
///   perfbench_tool ref   --deck DECK --out TABLE --probe NODE...
///   perfbench_tool trace --workload W --deck DECK --run-id ID
///                        --spans FILE --out TABLE
///                        --journal FILE --store FILE --probe NODE...
///
/// `gen` writes the seeded SPICE deck of a workload and prints its traffic
/// properties as one JSON line. `ref` is the accuracy reference: one
/// R-MATEX system driven by every source, at Krylov tolerance 1e-10,
/// accepted only within 0.1 mV of trapezoidal at tstep. `trace` replays the
/// workload through the public functions of circuit, la, solver, krylov,
/// core and runtime, records a span around every call, and prints the
/// per-layer metrics as one JSON line. The product code is not modified:
/// spans live here, around the calls.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/spice.hpp"
#include "core/decomposition.hpp"
#include "core/input_view.hpp"
#include "core/matex_solver.hpp"
#include "core/scheduler.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/operator.hpp"
#include "la/ordering.hpp"
#include "la/sparse_csc.hpp"
#include "la/sparse_lu.hpp"
#include "pgbench/pg_generator.hpp"
#include "runtime/batch.hpp"
#include "runtime/checkpoint.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/observer.hpp"
#include "solver/waveform_io.hpp"
#include "solver/waveform_store.hpp"

namespace {

using namespace matex;
using Clock = std::chrono::steady_clock;

// The CLI defaults every workload runs with: 10 ns window on a 10 ps
// output grid, gamma = 10 * tstep, Krylov tolerance 1e-7.
constexpr double kTstep = 1e-11;
constexpr double kTstop = 1e-8;
constexpr double kGamma = 10.0 * kTstep;
constexpr double kTol = 1e-7;
// Reference: R-MATEX at this Krylov tolerance, accepted only within
// kRefTrGapBound of trapezoidal at tstep.
constexpr double kRefTol = 1e-10;
constexpr double kRefTrGapBound = 1e-4;

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(2);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  std::vector<std::string> probes;

  const std::string& get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) fail("missing --" + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) fail("usage: perfbench_tool gen|ref|trace [--key value]...");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) fail("bad argument " + key);
    if (key == "--probe")
      args.probes.push_back(argv[i + 1]);
    else
      args.values[key.substr(2)] = argv[i + 1];
  }
  return args;
}

/// Deck structure per workload: the Table 3 generator specs. deck_dist
/// runs design 6 at 2x (n ~ 13.7k, 1,600 loads over 16 shapes); campaign
/// uses design 4 at 3x (n ~ 12.5k, 1,500 loads over 4
/// shapes), whose few shapes let the factor cache amortize.
pgbench::PowerGridSpec workload_spec(const std::string& workload,
                                     std::uint64_t seed) {
  pgbench::PowerGridSpec spec;
  if (workload == "deck_dist")
    spec = pgbench::table_benchmark_spec(6, 2.0);
  else if (workload == "campaign")
    spec = pgbench::table_benchmark_spec(4, 3.0);
  else
    fail("unknown workload " + workload);
  spec.seed = seed * 1000003ULL + static_cast<std::uint64_t>(spec.layers);
  return spec;
}

/// 16 fixed bottom-layer probes on a 4x4 lattice. The names depend only on
/// the structure, never on the seed, so every run passes the same probes.
std::vector<std::string> probe_names(const pgbench::PowerGridSpec& spec) {
  std::vector<std::string> names;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      names.push_back(spec.name + "_n0_" +
                      std::to_string(spec.rows * (2 * i + 1) / 8) + "_" +
                      std::to_string(spec.cols * (2 * j + 1) / 8));
  return names;
}

std::vector<la::index_t> probe_indices(const circuit::Netlist& netlist,
                                       const circuit::MnaSystem& mna,
                                       const std::vector<std::string>& names) {
  std::vector<la::index_t> idx;
  for (const auto& name : names) {
    const la::index_t i = mna.unknown_index(netlist.find_node(name));
    if (i < 0) fail("probe " + name + " is not an unknown");
    idx.push_back(i);
  }
  return idx;
}

int cmd_gen(const Args& args) {
  const auto spec =
      workload_spec(args.get("workload"),
                    std::strtoull(args.get("seed").c_str(), nullptr, 10));
  const circuit::Netlist netlist = pgbench::generate_power_grid(spec);
  circuit::write_spice_file(netlist, args.get("out"), "MATEX benchmark deck",
                            kTstep, kTstop);
  const circuit::MnaSystem mna(netlist);
  core::DecompositionOptions dopt;
  dopt.t_end = kTstop;
  const core::Decomposition decomp = core::decompose_sources(mna, dopt);
  const auto names = probe_names(spec);
  probe_indices(netlist, mna, names);  // validates the probes
  std::printf("{\"n\": %d, \"nnz_g\": %d, \"nnz_c\": %d, \"loads\": %d, "
              "\"shapes\": %d, \"inputs\": %d, \"groups\": %zu, "
              "\"gts\": %zu, \"rows\": %d, \"cols\": %d, \"layers\": %d, "
              "\"probes\": [",
              static_cast<int>(mna.dimension()),
              static_cast<int>(mna.g().nnz()),
              static_cast<int>(mna.c().nnz()), spec.source_count,
              spec.bump_shape_count, static_cast<int>(mna.input_count()),
              decomp.groups.size(), decomp.gts_size,
              static_cast<int>(spec.rows), static_cast<int>(spec.cols),
              spec.layers);
  for (std::size_t i = 0; i < names.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
  std::printf("]}\n");
  return 0;
}

int cmd_ref(const Args& args) {
  const circuit::SpiceDeck deck = circuit::read_spice_file(args.get("deck"));
  const circuit::MnaSystem mna(deck.netlist);
  const auto idx = probe_indices(deck.netlist, mna, args.probes);
  const auto dc = solver::dc_operating_point(mna);
  const auto grid = solver::uniform_grid(0.0, kTstop, kTstep);
  const auto t0 = Clock::now();

  // One R-MATEX system driven by every source at once: no decomposition,
  // scheduler, superposition, cache or runtime, at a tolerance 1,000x
  // tighter than the runs it checks.
  core::MatexOptions opt;
  opt.kind = krylov::KrylovKind::kRational;
  opt.gamma = kGamma;
  opt.tolerance = kRefTol;
  solver::ProbeRecorder ref(idx);
  core::MatexCircuitSolver matex(mna, opt, dc.g_factors);
  matex.run(dc.x, 0.0, kTstop, core::FullInput(mna), grid, ref.observer());
  if (ref.times().size() != grid.size())
    fail("reference did not land on every output time");

  // Cross-check with a method that shares no Krylov code: trapezoidal at
  // tstep, whose own discretization error is 3-20 uV on these decks. A
  // load group dropped or mistimed moves the probes by far more.
  solver::ProbeRecorder trap(idx);
  solver::FixedStepOptions fopt;
  fopt.t_end = kTstop;
  fopt.h = kTstep;
  solver::run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal, fopt,
                         trap.observer());
  double gap = 0.0;
  for (std::size_t p = 0; p < idx.size(); ++p)
    for (std::size_t k = 0; k < grid.size(); ++k)
      gap = std::max(gap, std::abs(ref.waveform(p)[k] - trap.waveform(p)[k]));
  if (!(gap <= kRefTrGapBound))
    fail("reference is " + std::to_string(gap) +
         " V from trapezoidal at tstep");

  solver::write_waveform_table_file(
      solver::WaveformTable::from_recorder(ref, args.probes),
      args.get("out"));
  std::printf("{\"tr_gap_v\": %.6g, \"seconds\": %.6f}\n", gap,
              std::chrono::duration<double>(Clock::now() - t0).count() +
                  dc.seconds);
  return 0;
}

// ------------------------------------------------------------- tracing

/// Spans recorded around the calls into each layer. Kept in memory and
/// written once when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int begin(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  double end() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end = now();
    return s.end - s.start;
  }
  /// Runs fn inside a span and returns its duration in seconds.
  template <class F>
  double time(std::string name, F&& fn) {
    begin(std::move(name));
    fn();
    return end();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Layer of a span: the prefix before the first '.'.
std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// A memory figure of this process from /proc/self/status, in MB:
/// "VmRSS" (resident now) or "VmHWM" (peak resident).
double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
  return 0.0;
}

/// Resets VmHWM to the current RSS, so the next VmHWM reads the peak of
/// what ran in between (where the kernel allows it).
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

using Metrics = std::map<std::string, double>;

/// Per-layer micro-probes shared by every workload, measured outside the
/// workload's root span on the workload's own deck.
void probe_layers(Tracer& tr, Metrics& m, const circuit::MnaSystem& mna,
                  const std::shared_ptr<la::SparseLU>& g_factors,
                  std::span<const double> x_dc) {
  tr.begin("probes");
  std::vector<la::index_t> perm;
  m["la.order_s"] = tr.time("la.order", [&] {
    perm = la::compute_ordering(mna.g(), la::Ordering::kMinDegree);
  });
  const la::CscMatrix a1 = la::add_scaled(1.0, mna.c(), kGamma, mna.g());
  const la::CscMatrix a2 = la::add_scaled(1.0, mna.c(), 2.0 * kGamma, mna.g());
  std::shared_ptr<la::SparseLU> lu;
  m["la.factor_s"] = tr.time("la.factor", [&] {
    lu = std::make_shared<la::SparseLU>(a1);
  });
  m["la.refill_s"] = tr.time("la.refill", [&] {
    const la::SparseLU refill(a2, lu->symbolic());
    if (refill.order() != lu->order()) fail("refill changed the order");
  });
  const auto n = static_cast<std::size_t>(mna.dimension());
  m["la.fill_nnz"] = static_cast<double>(lu->nnz_l() + lu->nnz_u());
  m["la.supernode_avg_width"] =
      lu->symbolic()->supernode_stats().avg_width(mna.dimension());
  // A fixed batch of right-hand sides: the circuit's rhs at 64 times.
  constexpr int kRhs = 64;
  std::vector<std::vector<double>> rhs(kRhs, std::vector<double>(n));
  for (int k = 0; k < kRhs; ++k)
    mna.rhs_at(kTstop * k / kRhs, rhs[static_cast<std::size_t>(k)]);
  std::vector<double> work(n);
  m["la.solve_us"] = 1e6 / kRhs * tr.time("la.solve", [&] {
    for (auto& b : rhs) lu->solve_in_place(b, work);
  });

  // Arnoldi on the R-MATEX and I-MATEX operators from a fixed start vector
  // shaped like a node's: the deviation of the t = 0 operating point from
  // the one at the busiest output time (v = x - w1 in Alg. 2), at a
  // typical transition-spot spacing.
  std::vector<double> v0(n), rhs0(n);
  mna.rhs_at(0.0, rhs0);
  double busiest = -1.0;
  for (double t : solver::uniform_grid(0.0, kTstop, kTstep)) {
    mna.rhs_at(t, work);
    double load = 0.0;
    for (std::size_t i = 0; i < n; ++i) load += std::abs(work[i] - rhs0[i]);
    if (load > busiest) {
      busiest = load;
      v0 = work;
    }
  }
  g_factors->solve_in_place(v0, work);
  for (std::size_t i = 0; i < n; ++i) v0[i] = x_dc[i] - v0[i];
  const krylov::CircuitOperator rational(mna.c(), mna.g(),
                                         krylov::KrylovKind::kRational,
                                         kGamma, lu);
  const krylov::CircuitOperator inverted(mna.c(), mna.g(),
                                         krylov::KrylovKind::kInverted, 0.0,
                                         g_factors);
  krylov::ArnoldiOptions aopt;
  aopt.tolerance = kTol;
  constexpr int kReps = 2;
  int dims = 0;
  const double arnoldi_s = tr.time("krylov.arnoldi", [&] {
    for (int r = 0; r < kReps; ++r)
      for (const auto* op : {&rational, &inverted})
        dims += krylov::arnoldi(*op, v0, 1.5e-10, aopt).dim();
  });
  m["krylov.arnoldi_us"] = 1e6 * arnoldi_s / (2 * kReps);
  m["krylov.arnoldi_dim"] = static_cast<double>(dims) / (2 * kReps);

  core::DecompositionOptions dopt;
  dopt.t_end = kTstop;
  std::size_t groups = 0;
  m["core.decompose_s"] = tr.time("core.decompose", [&] {
    groups = core::decompose_sources(mna, dopt).groups.size();
  });
  m["core.groups"] = static_cast<double>(groups);
  tr.end();
}

/// The CLI's dist path without the scheduler: every group's node solver
/// built and run in turn, uncached, so per-node setup and run times are
/// visible one by one.
void replay_nodes(Tracer& tr, Metrics& m, const circuit::MnaSystem& mna,
                  const std::shared_ptr<la::SparseLU>& g_factors) {
  tr.begin("nodes");
  core::DecompositionOptions dopt;
  dopt.t_end = kTstop;
  const core::Decomposition decomp = core::decompose_sources(mna, dopt);
  const auto grid = solver::uniform_grid(0.0, kTstop, kTstep);
  const std::vector<double> zero(static_cast<std::size_t>(mna.dimension()));
  core::MatexOptions opt;
  opt.gamma = kGamma;
  opt.tolerance = kTol;
  double setup_max = 0, setup_sum = 0, run_max = 0, run_sum = 0;
  solver::TransientStats total;
  for (const auto& group : decomp.groups) {
    std::unique_ptr<core::MatexCircuitSolver> node;
    const double setup = tr.time("core.node_setup", [&] {
      node = std::make_unique<core::MatexCircuitSolver>(mna, opt, g_factors);
    });
    const core::GroupInput input(mna, group.members, 0.0);
    const double run = tr.time("core.node_run", [&] {
      total.merge(node->run(zero, 0.0, kTstop, input, grid, nullptr));
    });
    setup_max = std::max(setup_max, setup);
    setup_sum += setup;
    run_max = std::max(run_max, run);
    run_sum += run;
  }
  tr.end();
  m["core.node_setup_s.max"] = setup_max;
  m["core.node_setup_s.sum"] = setup_sum;
  m["core.node_run_s.max"] = run_max;
  m["core.node_run_s.sum"] = run_sum;
  m["krylov.dim_avg"] = total.krylov_dim_avg();
  m["krylov.subspaces"] = static_cast<double>(total.krylov_subspaces);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int cmd_trace(const Args& args) {
  const std::string workload = args.get("workload");
  const std::string deck_path = args.get("deck");
  const std::string run_id = args.get("run-id");
  const auto grid = solver::uniform_grid(0.0, kTstop, kTstep);
  Tracer tr;
  Metrics m;

  // ---- root: the workload's own path, replayed call by call.
  const int root = tr.begin(workload);
  circuit::SpiceDeck deck;
  m["circuit.parse_s"] = tr.time("circuit.parse", [&] {
    deck = circuit::read_spice_file(deck_path);
  });
  std::unique_ptr<circuit::MnaSystem> mna;
  m["circuit.stamp_s"] = tr.time("circuit.stamp", [&] {
    mna = std::make_unique<circuit::MnaSystem>(deck.netlist);
  });
  const auto idx = probe_indices(deck.netlist, *mna, args.probes);
  // dc_operating_point(mna) is LU(G) plus one solve; the two halves are
  // timed apart so the factorization lands in la. The CLI's campaign
  // path takes no DC of its own, so there it is timed after the root.
  std::shared_ptr<la::SparseLU> g_factors;
  solver::DcResult dc;
  const auto run_dc = [&] {
    const double g_s = tr.time("la.factor_g", [&] {
      g_factors = std::make_shared<la::SparseLU>(mna->g());
    });
    const double dc_s = tr.time("solver.dc", [&] {
      dc = solver::dc_operating_point(*mna, 0.0, g_factors);
    });
    m["solver.dc_s"] = g_s + dc_s;
  };
  if (workload != "campaign") run_dc();

  solver::ProbeRecorder recorder(idx);
  std::vector<runtime::ScenarioResult> results;
  if (workload == "deck_dist") {
    core::SchedulerOptions opt;
    opt.t_end = kTstop;
    opt.solver.gamma = kGamma;
    opt.solver.tolerance = kTol;
    opt.output_times = grid;
    opt.parallelism = 4;
    const double rss_before = status_mb("VmRSS");
    reset_peak_rss();
    core::DistributedResult dist;
    m["core.dist_s"] = tr.time("core.dist", [&] {
      dist = core::run_distributed_matex(*mna, opt, recorder.observer());
    });
    m["core.dist_rss_mb"] = status_mb("VmHWM") - rss_before;
    m["core.superpose_s"] = dist.superposition_seconds;
  } else {
    // The CLI's campaign, in one process: the same sweep on a 2-thread
    // engine journaling to --journal, then the binary store.
    runtime::BatchOptions bopt;
    bopt.threads = 2;
    bopt.checkpoint_path = args.get("journal");
    std::unique_ptr<runtime::BatchEngine> engine;
    std::vector<runtime::ScenarioSpec> scenarios;
    tr.time("runtime.setup", [&] {
      engine = std::make_unique<runtime::BatchEngine>(bopt);
      engine->add_deck(deck_path, deck.netlist);
      runtime::CampaignSweep sweep;
      sweep.methods = {krylov::KrylovKind::kRational,
                       krylov::KrylovKind::kInverted};
      sweep.gammas = {kGamma, 2.0 * kGamma};
      sweep.tolerances = {kTol, kTol / 10.0};
      sweep.base.t_end = kTstop;
      sweep.base.output_times = grid;
      sweep.probes = idx;
      scenarios = engine->expand(sweep);
    });
    double first_result = -1.0;
    const auto batch_start = Clock::now();
    runtime::BatchReport report;
    m["runtime.batch_s"] = tr.time("runtime.batch", [&] {
      report = engine->run(scenarios, [&](const runtime::ScenarioResult&) {
        if (first_result < 0)
          first_result = std::chrono::duration<double>(Clock::now() -
                                                       batch_start)
                             .count();
      });
    });
    m["runtime.first_result_s"] = first_result;
    m["runtime.cache_hit_rate"] = report.cache_hit_rate();
    m["runtime.cache_misses"] = static_cast<double>(report.cache.misses);
    m["runtime.pool_busy_s"] = report.pool.busy_seconds;
    m["runtime.pool_stolen"] = static_cast<double>(report.pool.tasks_stolen);
    if (report.failures != 0) fail("in-process campaign had failures");
    solver::TransientStats total;
    for (const auto& r : report.results) total.merge(r.distributed.aggregate);
    m["krylov.dim_avg"] = total.krylov_dim_avg();
    m["krylov.subspaces"] = static_cast<double>(total.krylov_subspaces);
    m["solver.store_write_s"] = tr.time("solver.store_write", [&] {
      solver::WaveformStoreWriter store(args.get("store"));
      for (std::size_t si = 0; si < report.results.size(); ++si) {
        const auto& r = report.results[si];
        store.append(static_cast<std::uint32_t>(si),
                     runtime::scenario_fingerprint(scenarios[si], deck_path),
                     r.name, args.probes, r.times, r.probe_waveforms);
      }
      store.close();
    });
    results = std::move(report.results);
  }
  if (workload != "campaign") {
    tr.time("solver.write", [&] {
      solver::write_waveform_table_file(
          solver::WaveformTable::from_recorder(recorder, args.probes),
          args.get("out"));
    });
  }
  const double root_s = tr.end();

  // ---- outside the root: layer probes and per-node breakdowns.
  if (workload == "campaign") {
    double checksum = 0.0;
    m["solver.store_read_s"] = tr.time("solver.store_read", [&] {
      const solver::WaveformStoreReader reader(args.get("store"));
      if (reader.chunks().size() != results.size())
        fail("store lost chunks");
      for (const auto& chunk : reader.chunks())
        for (const auto& col : chunk.columns)
          for (double v : col) checksum += v;
    });
    if (!std::isfinite(checksum)) fail("store holds non-finite samples");
    m["solver.store_bytes"] =
        static_cast<double>(std::filesystem::file_size(args.get("store")));
    m["runtime.journal_bytes"] =
        static_cast<double>(std::filesystem::file_size(args.get("journal")));
    std::size_t restored = 0;
    m["runtime.journal_load_s"] = tr.time("runtime.journal_load", [&] {
      restored = runtime::load_checkpoint(args.get("journal")).completed.size();
    });
    if (restored != results.size()) fail("journal lost scenarios");
    // Replayed outputs go to one table per scenario, for the checker.
    for (std::size_t si = 0; si < results.size(); ++si) {
      solver::WaveformTable table;
      table.names = args.probes;
      table.times = results[si].times;
      table.columns = results[si].probe_waveforms;
      solver::write_waveform_table_file(
          table, args.get("out") + "." + std::to_string(si));
    }
  }
  if (workload == "campaign") run_dc();
  probe_layers(tr, m, *mna, g_factors, dc.x);
  if (workload == "deck_dist") {
    replay_nodes(tr, m, *mna, g_factors);
    // The paper's baseline on the same deck: trapezoidal at tstep, one
    // factorization and 1,000 solve pairs.
    solver::FixedStepOptions opt;
    opt.t_end = kTstop;
    opt.h = kTstep;
    solver::ProbeRecorder baseline(idx);
    m["solver.tr_run_s"] = tr.time("solver.tr_run", [&] {
      solver::run_fixed_step(*mna, dc.x, solver::StepMethod::kTrapezoidal,
                             opt, baseline.observer());
    });
  }

  // ---- self time per layer inside the root span.
  const auto& spans = tr.spans();
  std::map<std::string, double> self;
  double children_of_root = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    double covered = 0.0;
    for (const auto& c : spans)
      if (c.parent == static_cast<int>(i)) covered += c.end - c.start;
    if (static_cast<int>(i) == root) {
      children_of_root = covered;
      continue;
    }
    // Only spans under the root take part in the attribution.
    int p = s.parent;
    while (p >= 0 && p != root) p = spans[static_cast<std::size_t>(p)].parent;
    if (p == root) self[layer_of(s.name)] += (s.end - s.start) - covered;
  }
  for (const char* layer : {"circuit", "la", "solver", "krylov", "core",
                            "runtime"})
    m[std::string("self.") + layer + "_s"] = self[layer];
  m["self.unattributed_s"] = root_s - children_of_root;
  m["trace.root_s"] = root_s;

  // ---- spans file.
  std::ofstream out(args.get("spans"));
  out << "[\n";
  out.precision(17);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "  {\"name\": \"" << json_escape(s.name) << "\", \"start\": "
        << s.start << ", \"end\": " << s.end << ", \"parent\": ";
    if (s.parent < 0)
      out << "null";
    else
      out << '"' << json_escape(spans[static_cast<std::size_t>(s.parent)].name)
          << '"';
    out << ", \"id\": " << i << ", \"parent_id\": " << s.parent
        << ", \"workload\": \"" << json_escape(workload)
        << "\", \"run_id\": \"" << json_escape(run_id) << "\"}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.flush();
  if (!out) fail("cannot write spans file");

  const char* sep = "{";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  if (args.command == "gen") return cmd_gen(args);
  if (args.command == "ref") return cmd_ref(args);
  if (args.command == "trace") return cmd_trace(args);
  fail("unknown command " + args.command);
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench_tool: %s\n", e.what());
  return 1;
}

// Campaign benchmark runner: one process per benchmark step. run.py drives
// it; every number it reports is taken from outside the library, by timing
// calls into the public entry points of each module.
//
// Commands (flags are --key=value; each command prints one JSON object on
// stdout and exits 0 only when every check it makes passed):
//
//   fingerprint                       compiler, build type, SIMD backend
//   pin    --ref=DIR --jobs=N         write the full-suite reference figures
//   setup  --workload=W --dir=D --jobs=N
//                                     build the workload's starting state in D
//   run    --workload=W --dir=D --jobs=N --seed=S --ref=DIR
//                                     regenerate the workload's figures once,
//                                     in the seed's order, and check them
//   golden --workload=W --golden=DIR --jobs=N
//                                     check the kernel-subset golden figures
//   trace  --workload=W --dir=D --seed=S --ref=DIR --trace-out=FILE
//                                     the same work as `run`, decomposed into
//                                     timed calls per layer at --jobs=1, with
//                                     spans dumped as Chrome trace-event JSON
//
// The runner never reads STTSIM_RESULT_STORE or STTSIM_TRACE_STORE: the only
// stores a workload sees are the ones under --dir that this runner opens.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "sttsim/check/golden.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/experiments/figures.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/tech/technology.hpp"
#include "sttsim/util/bits.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/util/simd.hpp"

namespace {

using namespace sttsim;
using cpu::Dl1Organization;
using experiments::SuiteJob;
using workloads::CodegenOptions;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Figures and the grids they hand to run_grid --------------------------
//
// Each grid lists the (configuration, codegen) jobs the figure function
// replays over the full kernel suite, in the order it hands them to
// experiments::run_grid. The traced run replays these points itself, layer by
// layer; it then fails unless the figure function, run against the results
// it stored, finds every point warm. The warm workload's run also fails
// unless the memo hits and misses it predicts from these grids are the ones
// Telemetry counts. So a grid that drifts from its figure stops the
// benchmark instead of skewing it.

SuiteJob job(Dl1Organization org, const CodegenOptions& opts) {
  return {experiments::make_config(org), opts};
}

cpu::SystemConfig clocked(Dl1Organization org, double ghz) {
  cpu::SystemConfig c = experiments::make_config(org);
  c.clock_ghz = ghz;
  return c;
}

/// Same fault schedule as the pinned reliability figures.
cpu::SystemConfig faulted(Dl1Organization org, std::uint32_t ppm) {
  cpu::SystemConfig c = experiments::make_config(org);
  c.faults.enabled = true;
  c.faults.seed = 0x5eed;
  c.faults.fail_ppm = ppm;
  return c;
}

std::vector<SuiteJob> vwb_size_grid(const CodegenOptions& opts) {
  std::vector<SuiteJob> jobs{job(Dl1Organization::kSramBaseline, opts)};
  for (const unsigned kbit : {1u, 2u, 4u}) {
    cpu::SystemConfig c = experiments::make_config(Dl1Organization::kNvmVwb);
    c.vwb_total_kbit = kbit;
    jobs.push_back({c, opts});
  }
  return jobs;
}

using FigureFn = report::FigureData (*)(const experiments::KernelFilter&);
using GridFn = std::vector<SuiteJob> (*)();

struct FigureSpec {
  const char* name;  ///< reference file stem, as under tests/golden/
  FigureFn fn;
  GridFn grid;
};

const std::vector<FigureSpec>& figure_specs() {
  using D = Dl1Organization;
  static const CodegenOptions base = CodegenOptions::none();
  static const CodegenOptions full = CodegenOptions::all();
  static const std::vector<FigureSpec> specs{
      {"fig1_dropin_penalty", experiments::fig1_dropin_penalty,
       [] {
         return std::vector<SuiteJob>{job(D::kSramBaseline, base),
                                      job(D::kNvmDropIn, base)};
       }},
      {"fig3_vwb_penalty", experiments::fig3_vwb_penalty,
       [] {
         return std::vector<SuiteJob>{job(D::kSramBaseline, base),
                                      job(D::kNvmDropIn, base),
                                      job(D::kNvmVwb, base)};
       }},
      {"fig4_rw_breakdown", experiments::fig4_rw_breakdown,
       [] {
         return std::vector<SuiteJob>{job(D::kSramBaseline, base),
                                      job(D::kNvmVwb, base)};
       }},
      {"fig5_transformations", experiments::fig5_transformations,
       [] {
         return std::vector<SuiteJob>{
             job(D::kSramBaseline, base), job(D::kSramBaseline, full),
             job(D::kNvmDropIn, base), job(D::kNvmVwb, base),
             job(D::kNvmVwb, full)};
       }},
      {"fig6_contributions", experiments::fig6_contributions,
       [] {
         return std::vector<SuiteJob>{
             job(D::kNvmVwb, base),
             job(D::kNvmVwb, CodegenOptions::only_vectorize()),
             job(D::kNvmVwb, CodegenOptions::only_prefetch()),
             job(D::kNvmVwb, CodegenOptions::only_branch_opts())};
       }},
      {"fig7_vwb_size", experiments::fig7_vwb_size,
       [] { return vwb_size_grid(base); }},
      {"fig7_vwb_size_optimized", experiments::fig7_vwb_size_optimized,
       [] { return vwb_size_grid(full); }},
      {"fig8_alternatives", experiments::fig8_alternatives,
       [] {
         return std::vector<SuiteJob>{
             job(D::kSramBaseline, full), job(D::kNvmVwb, full),
             job(D::kNvmEmshr, full), job(D::kNvmL0, full)};
       }},
      {"fig9_baseline_gain", experiments::fig9_baseline_gain,
       [] {
         return std::vector<SuiteJob>{
             job(D::kSramBaseline, base), job(D::kSramBaseline, full),
             job(D::kNvmVwb, base), job(D::kNvmVwb, full)};
       }},
      {"ablation_banking", experiments::ablation_banking,
       [] {
         std::vector<SuiteJob> jobs{job(D::kSramBaseline, full)};
         for (const unsigned banks : {1u, 2u, 4u, 8u}) {
           cpu::SystemConfig c = experiments::make_config(D::kNvmVwb);
           c.nvm_banks = banks;
           jobs.push_back({c, full});
         }
         return jobs;
       }},
      {"ablation_store_buffer", experiments::ablation_store_buffer,
       [] {
         std::vector<SuiteJob> jobs{job(D::kSramBaseline, base)};
         for (const unsigned depth : {1u, 2u, 4u, 8u}) {
           cpu::SystemConfig c = experiments::make_config(D::kNvmDropIn);
           c.store_buffer_depth = depth;
           jobs.push_back({c, base});
         }
         return jobs;
       }},
      {"ablation_write_mitigation", experiments::ablation_write_mitigation,
       [] {
         return std::vector<SuiteJob>{
             job(D::kSramBaseline, base), job(D::kNvmDropIn, base),
             job(D::kNvmVwb, base), job(D::kNvmWriteBuf, base)};
       }},
      {"sensitivity_clock", experiments::sensitivity_clock,
       [] {
         std::vector<SuiteJob> jobs;
         for (const double ghz : {1.0, 1.5, 2.0, 3.0}) {
           jobs.push_back({clocked(D::kSramBaseline, ghz), base});
           jobs.push_back({clocked(D::kNvmDropIn, ghz), base});
         }
         return jobs;
       }},
      {"sensitivity_cell", experiments::sensitivity_cell,
       [] {
         std::vector<SuiteJob> jobs{job(D::kSramBaseline, base)};
         for (const D org : {D::kNvmDropIn, D::kNvmVwb}) {
           for (const tech::TechnologyParams& cell :
                {tech::stt_mram_l1d_64kb(), tech::stt_mram_l1d_64kb_1t1mtj()}) {
             cpu::SystemConfig c = experiments::make_config(org);
             c.stt = cell;
             jobs.push_back({c, base});
           }
         }
         return jobs;
       }},
      {"exploration_iso_area", experiments::exploration_iso_area,
       [] {
         cpu::SystemConfig big = experiments::make_config(D::kNvmVwb);
         big.stt = tech::scale_capacity(big.stt, 128 * kKiB);
         cpu::SystemConfig big_fast = experiments::make_config(D::kNvmVwb);
         big_fast.stt.capacity_bytes = 128 * kKiB;
         return std::vector<SuiteJob>{job(D::kSramBaseline, base),
                                      job(D::kNvmVwb, base), {big, base},
                                      {big_fast, base}};
       }},
      {"fig_reliability_retention", experiments::fig_reliability_retention,
       [] {
         std::vector<SuiteJob> jobs{job(D::kSramBaseline, base)};
         for (const std::uint32_t ppm : {0u, 1000u, 10000u, 100000u}) {
           jobs.push_back({faulted(D::kNvmVwb, ppm), base});
         }
         return jobs;
       }},
      {"fig_reliability_lifetime", experiments::fig_reliability_lifetime,
       [] {
         return std::vector<SuiteJob>{job(D::kNvmDropIn, base),
                                      job(D::kNvmVwb, base),
                                      job(D::kNvmWriteBuf, base)};
       }},
      {"fig_reliability_ecc_overhead",
       experiments::fig_reliability_ecc_overhead,
       [] {
         std::vector<SuiteJob> jobs;
         for (const double ghz : {1.0, 2.0, 3.0}) {
           cpu::SystemConfig f = faulted(D::kNvmVwb, 100000);
           f.clock_ghz = ghz;
           jobs.push_back({clocked(D::kNvmVwb, ghz), base});
           jobs.push_back({f, base});
         }
         return jobs;
       }},
  };
  return specs;
}

const FigureSpec& figure(const std::string& name) {
  for (const FigureSpec& s : figure_specs()) {
    if (name == s.name) return s;
  }
  throw std::runtime_error("unknown figure " + name);
}

// ---- Workloads -------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> figures;
  /// Warm workloads only: the figures whose points set-up stores, next to
  /// a trace store holding every trace the workload replays.
  std::vector<std::string> setup_figures;
  bool warm() const { return !setup_figures.empty(); }
};

const WorkloadSpec& workload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs{
      {"paper_cold",
       {"fig1_dropin_penalty", "fig3_vwb_penalty", "fig4_rw_breakdown",
        "fig5_transformations", "fig6_contributions", "fig8_alternatives",
        "fig9_baseline_gain"},
       {}},
      {"explore_warm",
       {"fig7_vwb_size", "fig7_vwb_size_optimized", "ablation_banking",
        "ablation_store_buffer", "ablation_write_mitigation",
        "sensitivity_clock", "sensitivity_cell", "exploration_iso_area"},
       {"fig7_vwb_size", "ablation_banking", "sensitivity_clock"}},
      {"reliability",
       {"fig_reliability_retention", "fig_reliability_lifetime",
        "fig_reliability_ecc_overhead"},
       {}},
  };
  for (const WorkloadSpec& w : specs) {
    if (w.name == name) return w;
  }
  throw std::runtime_error("unknown workload " + name);
}

/// The workload's figures in the seed's order (Fisher-Yates over
/// sttsim::Rng, so the order is the same on every platform). Figure outputs
/// do not depend on the order; only the schedule of store hits does.
std::vector<const FigureSpec*> in_seed_order(const WorkloadSpec& w,
                                             std::uint64_t seed) {
  std::vector<const FigureSpec*> order;
  for (const std::string& f : w.figures) order.push_back(&figure(f));
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

// ---- Stores ------------------------------------------------------------------

std::string trace_store_path(const std::string& dir) {
  return dir + "/traces.store";
}
std::string result_store_path(const std::string& dir) {
  return dir + "/results.store";
}

/// Opens the warm workload's stores under `dir` and installs them process
/// wide; uninstalls them on destruction.
struct WarmStores {
  exec::TraceStore traces;
  exec::ResultStore results;
  explicit WarmStores(const std::string& dir)
      : traces(trace_store_path(dir), cpu::kTraceFormatVersion),
        results(result_store_path(dir), sim::kRunStatsBytes) {
    exec::set_trace_store(&traces);
    exec::set_result_store(&results);
  }
  ~WarmStores() {
    exec::set_trace_store(nullptr);
    exec::set_result_store(nullptr);
  }
  WarmStores(const WarmStores&) = delete;
  WarmStores& operator=(const WarmStores&) = delete;
};

std::uint64_t point_digest(const workloads::Kernel& k, const SuiteJob& j) {
  return experiments::simulation_digest(k.name, j.opts, j.config);
}

std::uint64_t trace_key(const workloads::Kernel& k, const SuiteJob& j) {
  return experiments::trace_digest(k.name, j.opts);
}

/// Every distinct trace the figures replay.
std::set<std::uint64_t> traces_of(const std::vector<const FigureSpec*>& figs) {
  std::set<std::uint64_t> out;
  for (const FigureSpec* f : figs) {
    for (const SuiteJob& j : f->grid()) {
      for (const workloads::Kernel& k : workloads::polybench_suite()) {
        out.insert(trace_key(k, j));
      }
    }
  }
  return out;
}

/// Store traffic a warm run must produce. run_grid probes all of a grid's
/// points before simulating any, and each miss is appended, so a point is
/// warm when set-up stored it or an earlier figure of the run simulated it;
/// each figure decodes a stored trace once for all of its misses.
struct WarmExpectation {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t trace_loads = 0;
};

WarmExpectation expect_warm(const std::vector<const FigureSpec*>& order,
                            const exec::ResultStore& store) {
  WarmExpectation e;
  std::unordered_set<std::uint64_t> simulated;
  for (const FigureSpec* f : order) {
    std::set<std::uint64_t> traces;
    std::vector<std::uint64_t> grid;
    for (const SuiteJob& j : f->grid()) {
      for (const workloads::Kernel& k : workloads::polybench_suite()) {
        const std::uint64_t d = point_digest(k, j);
        grid.push_back(d);
        if (store.contains(d) || simulated.count(d) != 0) {
          ++e.hits;
        } else {
          ++e.misses;
          traces.insert(trace_key(k, j));
        }
      }
    }
    simulated.insert(grid.begin(), grid.end());
    e.trace_loads += traces.size();
  }
  return e;
}

// ---- Checks --------------------------------------------------------------

struct CheckTally {
  std::uint64_t figures = 0;
  std::uint64_t failed_figures = 0;
  std::uint64_t cells = 0;
  std::uint64_t failed_cells = 0;
  std::vector<std::string> failures;

  void fail(std::string what) {
    ++failed_figures;
    failures.push_back(std::move(what));
  }
};

/// Compares `fig` field by field with its reference under `ref_dir`. NaN
/// cells (degraded grid points) fail too: the comparator's tolerance test
/// lets a NaN through.
void check_figure(const std::string& ref_dir, const std::string& name,
                  const report::FigureData& fig, CheckTally& t) {
  std::uint64_t cells = 0;
  std::uint64_t nan = 0;
  for (const report::Series& s : fig.series) {
    cells += s.values.size();
    nan += static_cast<std::uint64_t>(
        std::count_if(s.values.begin(), s.values.end(),
                      [](double v) { return std::isnan(v); }));
  }
  const check::GoldenComparison cmp =
      check::compare_against_golden(ref_dir + "/" + name + ".golden", fig);
  ++t.figures;
  t.cells += cells;
  if (cmp.missing) {
    t.failed_cells += cells;
    t.fail(name + ": reference missing under " + ref_dir);
    return;
  }
  if (!cmp.matches() || nan != 0) {
    t.failed_cells += std::min<std::uint64_t>(cells, cmp.diffs.size() + nan);
    t.fail(name + ": " + std::to_string(cmp.diffs.size()) + " diffs, " +
           std::to_string(nan) + " NaN cells\n" + cmp.to_string());
  }
}

// ---- Accuracy against the paper ------------------------------------------
//
// Three averages the paper states as numbers: the Fig. 1 drop-in penalty
// (~54%), the Fig. 5 optimized VWB penalty (~8%), and the Fig. 9 gap between
// the optimized SRAM baseline and the optimized proposal (~8%).

double average_of(const report::FigureData& fig, const std::string& series) {
  const auto row = std::find(fig.row_labels.begin(), fig.row_labels.end(),
                             std::string("AVERAGE"));
  for (const report::Series& s : fig.series) {
    if (s.name == series && row != fig.row_labels.end()) {
      return s.values.at(static_cast<std::size_t>(row - fig.row_labels.begin()));
    }
  }
  throw std::runtime_error("no AVERAGE of series '" + series + "' in " +
                           fig.title);
}

const report::Series& series_of(const report::FigureData& fig,
                                const std::string& name) {
  for (const report::Series& s : fig.series) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("no series '" + name + "' in " + fig.title);
}

/// Fig. 9 reports each system's gain from the transformations; with Fig. 3's
/// unoptimized VWB penalty that gives the optimized SRAM-vs-proposal gap:
/// Vo/So = (Vb/Sb) * (1 - g_vwb) / (1 - g_sram), averaged over kernels.
double fig9_gap(const report::FigureData& fig3, const report::FigureData& fig9) {
  const std::vector<double>& vwb = series_of(fig3, "NVM D-Cache with VWB").values;
  const std::vector<double>& g_sram =
      series_of(fig9, "Baseline Performance gain").values;
  const std::vector<double>& g_vwb =
      series_of(fig9, "NVM proposal Performance gain").values;
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < fig9.row_labels.size(); ++i) {
    if (fig9.row_labels[i] == "AVERAGE") continue;
    sum += ((1 + vwb.at(i) / 100) * (1 - g_vwb.at(i) / 100) /
                (1 - g_sram.at(i) / 100) -
            1) *
           100;
    ++n;
  }
  return sum / static_cast<double>(n);
}

struct PaperGap {
  std::string source;  ///< which figures the three averages came from
  double dropin = 0, vwb_opt = 0, opt_gap = 0;
  double gap_pp() const {
    return (std::abs(dropin - 54) + std::abs(vwb_opt - 8) +
            std::abs(opt_gap - 8)) /
           3;
  }
};

/// The gap from the figures a workload regenerated. paper_cold holds Figs.
/// 1, 3, 5 and 9 themselves. explore_warm holds the same points under other
/// figures: ablation_write_mitigation's drop-in series is Fig. 1's
/// configuration, and fig7_vwb_size_optimized's 2 KBit series is Fig. 5's
/// optimized VWB, which is also the Fig. 9 gap. reliability regenerates no
/// anchor figure, so its value is read from the pinned references.
PaperGap paper_gap(const std::map<std::string, report::FigureData>& figs,
                   const std::string& ref_dir) {
  const auto has = [&](const char* n) { return figs.count(n) != 0; };
  PaperGap g;
  if (has("fig1_dropin_penalty")) {
    g.source = "fig1,fig5,fig3+fig9";
    g.dropin = average_of(figs.at("fig1_dropin_penalty"),
                          "Drop-In STT-MRAM D-Cache");
    g.vwb_opt = average_of(figs.at("fig5_transformations"), "With Optimization");
    g.opt_gap = fig9_gap(figs.at("fig3_vwb_penalty"),
                         figs.at("fig9_baseline_gain"));
  } else if (has("ablation_write_mitigation")) {
    g.source = "ablation_write_mitigation,fig7_vwb_size_optimized";
    g.dropin = average_of(figs.at("ablation_write_mitigation"), "Drop-in NVM");
    g.vwb_opt = average_of(figs.at("fig7_vwb_size_optimized"), "VWB = 2KBit");
    g.opt_gap = g.vwb_opt;
  } else {
    std::map<std::string, report::FigureData> pinned;
    for (const char* n : {"fig1_dropin_penalty", "fig3_vwb_penalty",
                          "fig5_transformations", "fig9_baseline_gain"}) {
      std::ifstream in(ref_dir + "/" + n + ".golden");
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      pinned[n] = check::parse_figure(text);
    }
    g = paper_gap(pinned, ref_dir);
    g.source = "pinned references";
  }
  return g;
}

// ---- JSON output -------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Flat JSON object writer; values keep every digit (%.17g).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + json_escape(key) + "\": ") + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

void add_checks(Json& j, const CheckTally& t) {
  j.count("figures", t.figures)
      .count("failed_figures", t.failed_figures)
      .count("cells", t.cells)
      .count("failed_cells", t.failed_cells)
      .raw("failures", json_list(t.failures));
}

void add_telemetry(Json& j, const exec::TelemetrySnapshot& d) {
  j.count("simulations", d.simulations)
      .count("trace_ops", d.trace_ops)
      .count("traces_generated", d.traces_generated)
      .count("trace_store_hits", d.trace_store_hits)
      .count("memo_hits", d.memo_hits)
      .count("memo_misses", d.memo_misses)
      .num("generate_s", static_cast<double>(d.generate_ns) * 1e-9)
      .num("decode_s", static_cast<double>(d.decode_ns) * 1e-9)
      .num("replay_s", static_cast<double>(d.replay_ns) * 1e-9);
}

// ---- Commands ------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::runtime_error("missing --" + key + "=");
    return it->second;
  }
  unsigned jobs() const { return static_cast<unsigned>(std::stoul(get("jobs"))); }
};

int cmd_fingerprint() {
  std::printf("%s\n",
              Json()
                  .str("compiler", STTSIM_BENCH_COMPILER)
                  .str("build_type", STTSIM_BENCH_BUILD_TYPE)
                  .str("simd_backend", util::simd::kBackend)
                  .count("hardware_jobs", exec::hardware_jobs())
                  .text()
                  .c_str());
  return 0;
}

int cmd_pin(const Args& a) {
  exec::set_default_jobs(a.jobs());
  const std::string dir = a.get("ref");
  std::vector<std::string> written;
  for (const FigureSpec& f : figure_specs()) {
    check::update_golden(dir + "/" + f.name + ".golden", f.fn({}));
    written.push_back(f.name);
  }
  std::printf("%s\n", Json().raw("pinned", json_list(written)).text().c_str());
  return 0;
}

int cmd_setup(const Args& a) {
  const WorkloadSpec& w = workload(a.get("workload"));
  const std::string dir = a.get("dir");
  exec::set_default_jobs(a.jobs());
  Json j;
  j.count("kernels", workloads::polybench_suite().size());
  bool ok = true;
  if (w.warm()) {
    WarmStores stores(dir);
    for (const std::string& f : w.setup_figures) figure(f).fn({});
    std::vector<const FigureSpec*> figs;
    for (const std::string& f : w.figures) figs.push_back(&figure(f));
    const std::size_t want = traces_of(figs).size();
    ok = stores.traces.entries() == want;
    j.count("trace_entries", stores.traces.entries())
        .count("traces_wanted", want)
        .count("result_entries", stores.results.entries());
  }
  std::printf("%s\n", j.boolean("ok", ok).text().c_str());
  return ok ? 0 : 1;
}

int cmd_run(const Args& a) {
  const WorkloadSpec& w = workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const std::string ref = a.get("ref");
  exec::set_default_jobs(a.jobs());
  const std::vector<const FigureSpec*> order =
      in_seed_order(w, std::stoull(a.get("seed")));

  const exec::TelemetrySnapshot before = exec::Telemetry::instance().snapshot();
  const double t0 = now_s();
  std::unique_ptr<WarmStores> stores;
  WarmExpectation expect;
  if (w.warm()) {
    stores = std::make_unique<WarmStores>(dir);
    expect = expect_warm(order, stores->results);
  }
  std::map<std::string, report::FigureData> figs;
  for (const FigureSpec* f : order) figs[f->name] = f->fn({});
  const double campaign_s = now_s() - t0;
  const exec::TelemetrySnapshot d =
      exec::Telemetry::instance().snapshot() - before;

  CheckTally t;
  for (const auto& [name, fig] : figs) check_figure(ref, name, fig, t);
  if (w.warm()) {
    const auto want = [&](const char* what, std::uint64_t got,
                          std::uint64_t expected) {
      if (got != expected) {
        t.failures.push_back(std::string(what) + ": " + std::to_string(got) +
                             ", expected " + std::to_string(expected));
      }
    };
    want("traces_generated", d.traces_generated, 0);
    want("memo_hits", d.memo_hits, expect.hits);
    want("memo_misses", d.memo_misses, expect.misses);
    want("trace_store_hits", d.trace_store_hits, expect.trace_loads);
  }
  const PaperGap gap = paper_gap(figs, ref);

  std::vector<std::string> names;
  for (const FigureSpec* f : order) names.push_back(f->name);
  Json j;
  j.raw("order", json_list(names)).num("campaign_s", campaign_s);
  add_telemetry(j, d);
  add_checks(j, t);
  j.num("paper_gap_pp", gap.gap_pp())
      .num("anchor_dropin_pct", gap.dropin)
      .num("anchor_vwb_opt_pct", gap.vwb_opt)
      .num("anchor_opt_gap_pct", gap.opt_gap)
      .str("anchor_source", gap.source);
  const bool ok = t.failures.empty();
  std::printf("%s\n", j.boolean("ok", ok).text().c_str());
  return ok ? 0 : 1;
}

int cmd_golden(const Args& a) {
  const WorkloadSpec& w = workload(a.get("workload"));
  const std::string golden = a.get("golden");
  exec::set_default_jobs(a.jobs());
  // The subset tests/test_golden.cpp pins.
  const experiments::KernelFilter subset{"trisolv", "gesummv"};
  CheckTally t;
  for (const std::string& f : w.figures) {
    check_figure(golden, f, figure(f).fn(subset), t);
  }
  Json j;
  add_checks(j, t);
  const bool ok = t.failures.empty();
  std::printf("%s\n", j.boolean("ok", ok).text().c_str());
  return ok ? 0 : 1;
}

// ---- Traced run --------------------------------------------------------------

/// In-memory span log: name, start, end and parent of every layer call.
/// Single-threaded: the traced run calls every layer from this thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the part of it the span's children cover.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end - spans_[i].start;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end - spans_[i].start;
      }
    }
    return self;
  }

  /// Index of the outermost ancestor of span `i`.
  std::size_t root_of(std::size_t i) const {
    while (spans_[i].parent >= 0) i = static_cast<std::size_t>(spans_[i].parent);
    return i;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                    (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i, s.parent);
      out << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name)
          << "\", " << buf;
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  int open(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0, current_});
    current_ = static_cast<int>(spans_.size() - 1);
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

std::string org_key(const cpu::SystemConfig& c) {
  std::string key = cpu::to_string(c.organization);
  if (c.faults_active()) key += "-faulted";
  return key;
}

const std::vector<std::string>& org_keys() {
  static const std::vector<std::string> keys{
      "sram-baseline", "nvm-drop-in", "nvm-vwb",        "nvm-l0",
      "nvm-emshr",     "nvm-writebuf", "nvm-vwb-faulted"};
  return keys;
}

/// RunStats summed counter by counter, through the store's canonical
/// encoding (every counter is a u64 word).
struct StatsSum {
  std::uint64_t words[sim::kRunStatsWords] = {};
  void add(const sim::RunStats& s) {
    std::uint8_t buf[sim::kRunStatsBytes];
    sim::encode_run_stats(s, buf);
    for (std::size_t i = 0; i < sim::kRunStatsWords; ++i) {
      std::uint64_t w = 0;
      for (int b = 7; b >= 0; --b) w = (w << 8) | buf[i * 8 + static_cast<std::size_t>(b)];
      words[i] += w;
    }
  }
  sim::RunStats total() const {
    std::uint8_t buf[sim::kRunStatsBytes];
    for (std::size_t i = 0; i < sim::kRunStatsWords; ++i) {
      for (std::size_t b = 0; b < 8; ++b) {
        buf[i * 8 + b] = static_cast<std::uint8_t>(words[i] >> (8 * b));
      }
    }
    return sim::decode_run_stats(buf);
  }
};

struct LayerCounts {
  std::uint64_t synth_ops = 0, trace_lookups = 0, trace_hits = 0;
  std::uint64_t probes = 0, probe_hits = 0;
  std::uint64_t replays = 0, appends = 0;
  std::map<std::string, std::uint64_t> org_ops;
  std::map<std::string, StatsSum> org_stats;
};

/// The decomposed workload. Per figure, as run_grid does it: probe every
/// point (warm only), then for each miss get the trace through the figure's
/// own cache (synthesize and compress it cold, load it from the trace store
/// warm), replay it, and append the result. The figure function then runs
/// against the result store, where every point must be warm, so its time is
/// the figure assembly alone. `tstore` is set for the warm workload only.
/// Cold workloads use no store, so `results` is a staging store the figure
/// reads back; staging is the traced run's own overhead, spanned as
/// trace.harness.
void traced_campaign(Tracer& tr, const std::vector<const FigureSpec*>& order,
                     exec::ResultStore& results, exec::TraceStore* tstore,
                     const std::string& ref, CheckTally& checks,
                     LayerCounts& c,
                     std::map<std::string, report::FigureData>& figs) {
  const std::vector<workloads::Kernel>& kernels = workloads::polybench_suite();
  const bool warm = tstore != nullptr;
  exec::set_result_store(&results);
  exec::set_trace_store(tstore);
  for (const FigureSpec* f : order) {
    Tracer::Scope fig_span(tr, std::string("figure:") + f->name);
    const std::vector<SuiteJob> jobs = f->grid();
    for (const SuiteJob& j : jobs) j.config.validate();

    struct Miss {
      std::size_t j, k;
      std::uint64_t digest;
    };
    std::vector<Miss> misses;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        const std::uint64_t d = point_digest(kernels[k], jobs[j]);
        if (warm) {
          Tracer::Scope s(tr, "result_store.probe");
          std::uint8_t payload[sim::kRunStatsBytes];
          ++c.probes;
          if (results.lookup(d, payload)) {
            ++c.probe_hits;
            continue;
          }
        }
        misses.push_back({j, k, d});
      }
    }

    std::map<std::uint64_t, cpu::DecodedTrace> cache;  // the figure's TraceCache
    for (const Miss& m : misses) {
      const workloads::Kernel& kernel = kernels[m.k];
      const SuiteJob& job = jobs[m.j];
      const std::uint64_t tkey = trace_key(kernel, job);
      auto it = cache.find(tkey);
      if (it == cache.end()) {
        cpu::DecodedTrace decoded;
        if (warm) {
          Tracer::Scope s(tr, "trace_store.load");
          std::vector<std::uint8_t> blob;
          cpu::CompressedTrace compressed;
          ++c.trace_lookups;
          if (!tstore->lookup(tkey, blob) ||
              !cpu::deserialize_compressed(blob.data(), blob.size(),
                                           compressed)) {
            throw std::runtime_error("trace store misses " + kernel.name);
          }
          ++c.trace_hits;
          decoded = cpu::decompress(compressed);
        } else {
          {
            Tracer::Scope s(tr, "workloads.synth");
            decoded = kernel.generate_decoded(job.opts);
          }
          c.synth_ops += decoded.size();
          Tracer::Scope s(tr, "workloads.compress");
          const cpu::CompressedTrace compressed = cpu::compress(decoded);
          if (compressed.size() != decoded.size()) {
            throw std::runtime_error("compress lost ops of " + kernel.name);
          }
        }
        it = cache.emplace(tkey, std::move(decoded)).first;
      }
      const std::string org = org_key(job.config);
      sim::RunStats stats;
      {
        Tracer::Scope s(tr, "replay." + org);
        cpu::System system(job.config, cpu::System::kPrevalidated);
        stats = system.run(it->second);
      }
      ++c.replays;
      c.org_ops[org] += it->second.size();
      c.org_stats[org].add(stats);
      Tracer::Scope s(tr, warm ? "result_store.append" : "trace.harness");
      std::uint8_t payload[sim::kRunStatsBytes];
      sim::encode_run_stats(stats, payload);
      results.append(m.digest, payload);
      if (warm) ++c.appends;
    }

    exec::TelemetrySnapshot d;
    {
      Tracer::Scope s(tr, "experiments.assembly");
      const exec::TelemetrySnapshot before =
          exec::Telemetry::instance().snapshot();
      figs[f->name] = f->fn({});
      d = exec::Telemetry::instance().snapshot() - before;
    }
    Tracer::Scope s(tr, "check");
    if (d.memo_misses != 0 || d.simulations != 0 || d.traces_generated != 0) {
      checks.failures.push_back(std::string(f->name) +
                                ": figure grid differs from the benchmark's (" +
                                std::to_string(d.memo_misses) +
                                " points not replayed by the traced run)");
    }
    check_figure(ref, f->name, figs[f->name], checks);
  }
  exec::set_result_store(nullptr);
  exec::set_trace_store(nullptr);
}

/// Traced set-up of a warm workload: every trace synthesized, compressed and
/// appended to the trace store, and the set-up figures' points replayed and
/// appended to the result store.
void traced_setup(Tracer& tr, const WorkloadSpec& w, const std::string& dir) {
  const std::vector<workloads::Kernel>& kernels = workloads::polybench_suite();
  exec::TraceStore tstore(trace_store_path(dir), cpu::kTraceFormatVersion);
  exec::ResultStore rstore(result_store_path(dir), sim::kRunStatsBytes);
  std::vector<const FigureSpec*> figs;
  for (const std::string& f : w.figures) figs.push_back(&figure(f));
  std::map<std::uint64_t, cpu::DecodedTrace> traces;
  for (const FigureSpec* f : figs) {
    for (const SuiteJob& j : f->grid()) {
      for (const workloads::Kernel& k : kernels) {
        const std::uint64_t key = trace_key(k, j);
        if (traces.count(key) != 0) continue;
        cpu::DecodedTrace decoded;
        {
          Tracer::Scope s(tr, "workloads.synth");
          decoded = k.generate_decoded(j.opts);
        }
        cpu::CompressedTrace compressed;
        {
          Tracer::Scope s(tr, "workloads.compress");
          compressed = cpu::compress(decoded);
        }
        {
          Tracer::Scope s(tr, "trace_store.append");
          const std::vector<std::uint8_t> blob =
              cpu::serialize_compressed(compressed);
          tstore.append(key, blob.data(), blob.size());
        }
        traces.emplace(key, std::move(decoded));
      }
    }
  }
  for (const std::string& name : w.setup_figures) {
    for (const SuiteJob& j : figure(name).grid()) {
      j.config.validate();
      for (const workloads::Kernel& k : kernels) {
        const std::uint64_t d = point_digest(k, j);
        if (rstore.contains(d)) continue;
        sim::RunStats stats;
        {
          Tracer::Scope s(tr, "replay." + org_key(j.config));
          cpu::System system(j.config, cpu::System::kPrevalidated);
          stats = system.run(traces.at(trace_key(k, j)));
        }
        Tracer::Scope s(tr, "result_store.append");
        std::uint8_t payload[sim::kRunStatsBytes];
        sim::encode_run_stats(stats, payload);
        rstore.append(d, payload);
      }
    }
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int cmd_trace(const Args& a) {
  const WorkloadSpec& w = workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const std::string ref = a.get("ref");
  exec::set_default_jobs(1);
  const std::vector<const FigureSpec*> order =
      in_seed_order(w, std::stoull(a.get("seed")));

  Tracer tr;
  std::uint64_t trace_store_bytes = 0;
  if (w.warm()) {
    {
      Tracer::Scope s(tr, "setup");
      traced_setup(tr, w, dir);
    }
    trace_store_bytes = std::filesystem::file_size(trace_store_path(dir));
  }
  CheckTally checks;
  LayerCounts c;
  std::map<std::string, report::FigureData> figs;
  std::size_t run_root = 0;
  {
    run_root = tr.spans().size();
    Tracer::Scope root(tr, "run");
    std::unique_ptr<exec::TraceStore> tstore;
    std::unique_ptr<exec::ResultStore> results;
    if (w.warm()) {
      {
        Tracer::Scope s(tr, "trace_store.open");
        tstore = std::make_unique<exec::TraceStore>(trace_store_path(dir),
                                                    cpu::kTraceFormatVersion);
      }
      Tracer::Scope s(tr, "result_store.open");
      results = std::make_unique<exec::ResultStore>(result_store_path(dir),
                                                    sim::kRunStatsBytes);
    } else {
      results = std::make_unique<exec::ResultStore>(dir + "/staging.store",
                                                    sim::kRunStatsBytes);
    }
    traced_campaign(tr, order, *results, tstore.get(), ref, checks, c, figs);
  }
  tr.write_chrome_trace(a.get("trace-out"));

  // Self time per span name, over the run root (or the set-up root).
  const std::vector<double> self = tr.self_times();
  std::map<std::string, double> run_self, setup_self;
  std::map<std::string, std::uint64_t> run_calls;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const std::string& name = tr.spans()[i].name;
    if (tr.root_of(i) == run_root) {
      run_self[name] += self[i];
      ++run_calls[name];
    } else {
      setup_self[name] += self[i];
    }
  }
  const Tracer::Span& root = tr.spans()[run_root];
  const double wall = root.end - root.start;
  double layers = 0;
  double replay_s = 0;
  for (const auto& [name, s] : run_self) {
    if (name == "run" || name.rfind("figure:", 0) == 0) continue;
    layers += s;
    if (name.rfind("replay.", 0) == 0) replay_s += s;
  }

  Json m;
  m.num("workloads.synth_s", run_self["workloads.synth"])
      .num("workloads.synth_ns_per_op",
           ratio(run_self["workloads.synth"] * 1e9,
                 static_cast<double>(c.synth_ops)))
      .count("workloads.traces", run_calls["workloads.synth"])
      .num("workloads.compress_s", run_self["workloads.compress"])
      .num("trace_store.open_s", run_self["trace_store.open"])
      .num("trace_store.load_s", run_self["trace_store.load"])
      .num("trace_store.hit_frac", ratio(static_cast<double>(c.trace_hits),
                                         static_cast<double>(c.trace_lookups)))
      .num("trace_store.append_s", setup_self["trace_store.append"])
      .num("trace_store.mb", static_cast<double>(trace_store_bytes) / 1e6)
      .num("replay.s", replay_s);
  for (const std::string& org : org_keys()) {
    m.num("replay." + org + ".ns_per_op",
          ratio(run_self["replay." + org] * 1e9,
                static_cast<double>(c.org_ops[org])));
  }
  m.num("result_store.open_s", run_self["result_store.open"])
      .num("result_store.probe_us_per_point",
           ratio(run_self["result_store.probe"] * 1e6,
                 static_cast<double>(c.probes)))
      .num("result_store.append_us_per_point",
           ratio(run_self["result_store.append"] * 1e6,
                 static_cast<double>(c.appends)))
      .num("result_store.hit_frac", ratio(static_cast<double>(c.probe_hits),
                                          static_cast<double>(c.probes)))
      .num("experiments.assembly_s", run_self["experiments.assembly"])
      .num("check.s", run_self["check"])
      .num("check.failed_frac", ratio(static_cast<double>(checks.failed_cells),
                                      static_cast<double>(checks.cells)))
      .num("trace.harness_s", run_self["trace.harness"])
      .num("trace.wall_s", wall)
      .num("trace.layer_sum_frac", ratio(layers, wall));
  for (const std::string& org : org_keys()) {
    const sim::RunStats s = c.org_stats[org].total();
    const double cycles = static_cast<double>(s.core.total_cycles);
    const std::string p = "sim." + org + ".";
    m.count(p + "ops", c.org_ops[org])
        .num(p + "core.ipc",
             ratio(static_cast<double>(s.core.instructions), cycles))
        .num(p + "core.read_stall_frac",
             ratio(static_cast<double>(s.core.read_stall_cycles), cycles))
        .num(p + "core.write_stall_frac",
             ratio(static_cast<double>(s.core.write_stall_cycles), cycles))
        .num(p + "mem.front_hit_rate", s.mem.front_hit_rate())
        .num(p + "mem.l1_miss_rate", s.mem.l1_miss_rate())
        .count(p + "mem.l2_misses", s.mem.l2_misses)
        .count(p + "mem.bank_conflict_cycles", s.mem.bank_conflict_cycles)
        .count(p + "mem.ecc_corrections", s.mem.ecc_corrections);
  }

  Json j;
  j.raw("metrics", m.text())
      .count("traces_synthesized", run_calls["workloads.synth"])
      .count("trace_loads", c.trace_lookups)
      .count("replays", c.replays)
      .count("probe_hits", c.probe_hits)
      .num("paper_gap_pp", paper_gap(figs, ref).gap_pp());
  add_checks(j, checks);
  const bool ok = checks.failures.empty();
  std::printf("%s\n", j.boolean("ok", ok).text().c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: campaign_runner COMMAND --key=value...");
    const std::string cmd = argv[1];
    Args a;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        throw std::runtime_error("bad argument " + arg);
      }
      a.kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
    if (cmd == "fingerprint") return cmd_fingerprint();
    if (cmd == "pin") return cmd_pin(a);
    if (cmd == "setup") return cmd_setup(a);
    if (cmd == "run") return cmd_run(a);
    if (cmd == "golden") return cmd_golden(a);
    if (cmd == "trace") return cmd_trace(a);
    throw std::runtime_error("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_runner: %s\n", e.what());
    return 2;
  }
}

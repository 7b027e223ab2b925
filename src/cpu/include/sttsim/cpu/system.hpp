// Whole-platform assembly: picks a DL1 organization, derives its cycle
// timing from the technology models, and wires it to the shared L2/memory.
//
// This is the library's main entry point: construct a System from a
// SystemConfig, then call run() on a workload trace.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <variant>

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/core/vwb.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/mem/l2_system.hpp"
#include "sttsim/reliability/fault.hpp"
#include "sttsim/tech/technology.hpp"

namespace sttsim::core {
class PlainDl1System;
class VwbDl1System;
}  // namespace sttsim::core
namespace sttsim::alt {
class NarrowFrontDl1System;
}  // namespace sttsim::alt

namespace sttsim::cpu {

/// The five DL1 organizations the paper evaluates.
enum class Dl1Organization {
  kSramBaseline,  ///< Table I SRAM column — the reference system
  kNvmDropIn,     ///< Fig. 1: STT-MRAM array, no further changes
  kNvmVwb,        ///< Section IV: STT-MRAM + Very Wide Buffer (the proposal)
  kNvmL0,         ///< Fig. 8: STT-MRAM + 2 KBit fully-associative L0 cache
  kNvmEmshr,      ///< Fig. 8: STT-MRAM + 2 KBit enhanced MSHR
  kNvmWriteBuf,   ///< write-mitigation hybrid (Sun et al. [2] style):
                  ///< 2 KBit SRAM write-absorbing buffer in front of the
                  ///< NVM array — Section II's "write latency oriented
                  ///< techniques" foil
};

const char* to_string(Dl1Organization org);

struct SystemConfig {
  Dl1Organization organization = Dl1Organization::kSramBaseline;
  double clock_ghz = 1.0;  ///< paper Section VI

  /// VWB geometry (used by kNvmVwb): total capacity in KBit and line count.
  /// The paper's default is 2 KBit in 2 lines of 1 KBit; Fig. 7 sweeps
  /// 1/2/4 KBit. `vwb_lines == 0` scales the number of 1 KBit register-file
  /// lines with capacity (max(2, kbit)), matching "2 lines of 1 KBit".
  unsigned vwb_total_kbit = 2;
  unsigned vwb_lines = 0;

  /// DL1 data-array banking. Applied to every organization (the SRAM
  /// baseline too) so that the technology latency — not the port count — is
  /// the experimental variable, as in the paper's gem5 setup.
  unsigned nvm_banks = 4;

  unsigned store_buffer_depth = 4;
  unsigned writeback_buffer_depth = 4;
  unsigned mshr_entries = 8;

  /// Technology descriptions; defaults are the Table I macros.
  tech::TechnologyParams sram = tech::sram_l1d_64kb();
  tech::TechnologyParams stt = tech::stt_mram_l1d_64kb();
  mem::L2Config l2;

  /// Retention-fault injection + ECC read path (src/reliability). Applies
  /// to the NVM organizations only: the SRAM baseline has no retention
  /// faults, so `faults.enabled` is ignored there (see faults_active()).
  reliability::FaultConfig faults;
  reliability::EccConfig ecc;

  /// Whether this configuration actually injects faults: enabled AND an
  /// STT-MRAM data array. Every layer keys off this — build() wraps the
  /// DL1, the oracle wraps its reference, and simulation_digest folds the
  /// fault/ECC parameters.
  bool faults_active() const {
    return faults.enabled && organization != Dl1Organization::kSramBaseline;
  }

  /// The DL1 technology this organization uses.
  const tech::TechnologyParams& dl1_tech() const;
  /// Derived cycle-level DL1 configuration for this organization.
  core::Dl1Config dl1_config() const;
  /// Derived VWB geometry (valid for kNvmVwb).
  core::VwbGeometry vwb_geometry() const;

  void validate() const;
};

/// One retired trace op, as seen by a replay observer: its position in the
/// trace, the cycle it issued at and the cycle the core could proceed past
/// it.
struct OpEvent {
  std::size_t index = 0;
  sim::Cycle issue = 0;     ///< core time when the op issued
  sim::Cycle complete = 0;  ///< core time after the op retired
};

/// Replay hook, called after every retired op. The differential oracle
/// (src/check) uses it to follow a run in lockstep.
using OpObserver = std::function<void(const OpEvent&)>;

/// A fully-wired single-core platform.
class System {
 public:
  /// Tag for the pre-validated constructor: the parallel experiment engine
  /// validates each grid configuration once and then builds many Systems
  /// from it, skipping the redundant per-job validation.
  struct Prevalidated {};
  static constexpr Prevalidated kPrevalidated{};

  explicit System(const SystemConfig& config);
  System(const SystemConfig& config, Prevalidated);

  /// Runs a trace on a *fresh* system state (cold caches) and returns stats.
  sim::RunStats run(const DecodedTrace& trace);

  /// Same replay loop, calling `observer` after every op. The differential
  /// oracle drives production through this overload.
  sim::RunStats run(const DecodedTrace& trace, const OpObserver& observer);

  /// Runs without resetting (for warm-up composition in tests).
  sim::RunStats run_warm(const DecodedTrace& trace);

  const SystemConfig& config() const { return cfg_; }
  core::Dl1System& dl1() { return *dl1_; }
  mem::L2System& l2() { return *l2_; }

  /// Resets all simulated state (caches, buffers, stats).
  void reset();

 private:
  /// dl1_ under its concrete `final` class, recorded once by build(): run()
  /// visits it to call the replay loop (cpu/replay.hpp) instantiated for
  /// exactly that class, so no per-op call is virtual at the top level.
  using ConcreteDl1 =
      std::variant<core::PlainDl1System*, core::VwbDl1System*,
                   alt::NarrowFrontDl1System*, reliability::FaultyDl1System*>;

  void build();

  template <class Observe>
  sim::RunStats replay_with(const DecodedTrace& trace, Observe observe);

  SystemConfig cfg_;
  std::unique_ptr<mem::L2System> l2_;
  std::unique_ptr<core::Dl1System> dl1_;
  ConcreteDl1 concrete_;
};

}  // namespace sttsim::cpu

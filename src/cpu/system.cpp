#include "sttsim/cpu/system.hpp"

#include <algorithm>

#include "sttsim/alt/narrow_front_dl1.hpp"
#include "sttsim/core/plain_dl1.hpp"
#include "sttsim/core/vwb_dl1.hpp"
#include "sttsim/cpu/replay.hpp"

namespace sttsim::cpu {

const char* to_string(Dl1Organization org) {
  switch (org) {
    case Dl1Organization::kSramBaseline:
      return "sram-baseline";
    case Dl1Organization::kNvmDropIn:
      return "nvm-drop-in";
    case Dl1Organization::kNvmVwb:
      return "nvm-vwb";
    case Dl1Organization::kNvmL0:
      return "nvm-l0";
    case Dl1Organization::kNvmEmshr:
      return "nvm-emshr";
    case Dl1Organization::kNvmWriteBuf:
      return "nvm-writebuf";
  }
  return "?";
}

const tech::TechnologyParams& SystemConfig::dl1_tech() const {
  return organization == Dl1Organization::kSramBaseline ? sram : stt;
}

core::Dl1Config SystemConfig::dl1_config() const {
  const tech::TechnologyParams& t = dl1_tech();
  const tech::CycleTiming timing = tech::quantize(t, clock_ghz);
  core::Dl1Config c;
  c.geometry.capacity_bytes = t.capacity_bytes;
  c.geometry.associativity = t.associativity;
  c.geometry.line_bytes = t.line_bytes();
  c.timing.tag_cycles = 1;  // SRAM tags in every organization
  c.timing.read_cycles = timing.read_cycles;
  c.timing.write_cycles = timing.write_cycles;
  // Every organization gets the same banking so the technology latency is
  // the only variable (Section IV simulates a banked NVM array).
  c.timing.banks = nvm_banks;
  c.store_buffer_depth = store_buffer_depth;
  c.writeback_buffer_depth = writeback_buffer_depth;
  return c;
}

core::VwbGeometry SystemConfig::vwb_geometry() const {
  core::VwbGeometry g;
  // Auto mode replicates the paper's building block: 1 KBit register-file
  // lines, at least two of them ("two lines ... in conjunction").
  const unsigned lines =
      vwb_lines != 0 ? vwb_lines : std::max(2u, vwb_total_kbit);
  g.num_lines = lines;
  const std::uint64_t total_bytes =
      static_cast<std::uint64_t>(vwb_total_kbit) * 1024 / 8;
  if (total_bytes % lines != 0) {
    throw ConfigError("VWB capacity must divide evenly into lines");
  }
  g.line_bytes = total_bytes / lines;
  g.sector_bytes = stt.line_bytes();
  // A VWB line narrower than one DL1 line degenerates to sector == line
  // (1 KBit VWB in 2 lines: two single-sector lines).
  if (g.line_bytes < g.sector_bytes) g.sector_bytes = g.line_bytes;
  return g;
}

void SystemConfig::validate() const {
  if (clock_ghz <= 0) throw ConfigError("clock must be positive");
  sram.validate();
  stt.validate();
  l2.validate();
  if (faults.enabled) {
    faults.validate();
    ecc.validate();
  }
  dl1_config().validate();
  if (organization == Dl1Organization::kNvmVwb) {
    core::VwbDl1Config v;
    v.dl1 = dl1_config();
    v.vwb = vwb_geometry();
    v.mshr_entries = mshr_entries;
    // Degenerate geometries (sector < DL1 line) are caught here.
    if (v.vwb.sector_bytes == v.dl1.geometry.line_bytes) {
      v.validate();
    }
  }
}

System::System(const SystemConfig& config) : cfg_(config) {
  cfg_.validate();
  build();
}

System::System(const SystemConfig& config, Prevalidated) : cfg_(config) {
  build();
}

void System::build() {
  l2_ = std::make_unique<mem::L2System>(cfg_.l2);
  const core::Dl1Config dl1 = cfg_.dl1_config();
  // The one place the concrete class is chosen: dl1_ owns it, concrete_
  // remembers its type for run().
  const auto install = [this]<class Concrete, class Config>(
                           const Config& config) {
    auto d = std::make_unique<Concrete>(to_string(cfg_.organization), config,
                                        l2_.get());
    concrete_ = d.get();
    dl1_ = std::move(d);
  };
  switch (cfg_.organization) {
    case Dl1Organization::kSramBaseline:
    case Dl1Organization::kNvmDropIn:
      install.operator()<core::PlainDl1System>(dl1);
      break;
    case Dl1Organization::kNvmVwb: {
      core::VwbDl1Config v;
      v.dl1 = dl1;
      v.vwb = cfg_.vwb_geometry();
      v.mshr_entries = cfg_.mshr_entries;
      if (v.vwb.sector_bytes != v.dl1.geometry.line_bytes) {
        // Narrow VWB lines (sub-line sectors) are served by the generalized
        // narrow-front organization with on-access allocation.
        alt::NarrowFrontConfig n;
        n.dl1 = dl1;
        n.front_entries = v.vwb.num_lines;
        n.entry_bytes = v.vwb.line_bytes;
        n.policy = alt::FrontAllocPolicy::kOnLoadMiss;
        n.mshr_entries = cfg_.mshr_entries;
        install.operator()<alt::NarrowFrontDl1System>(n);
      } else {
        install.operator()<core::VwbDl1System>(v);
      }
      break;
    }
    case Dl1Organization::kNvmL0:
      install.operator()<alt::NarrowFrontDl1System>(alt::make_l0_config(dl1));
      break;
    case Dl1Organization::kNvmEmshr:
      install.operator()<alt::NarrowFrontDl1System>(
          alt::make_emshr_config(dl1));
      break;
    case Dl1Organization::kNvmWriteBuf:
      install.operator()<alt::NarrowFrontDl1System>(
          alt::make_write_buffer_config(dl1));
      break;
  }
  if (cfg_.faults_active()) {
    // Decorate the organization with the ECC read path. The decorator is
    // itself `final`, so its replay is specialized too; only its calls into
    // the wrapped organization are virtual.
    auto faulty = std::make_unique<reliability::FaultyDl1System>(
        std::move(dl1_), cfg_.faults, cfg_.ecc, dl1.geometry.line_bytes);
    concrete_ = faulty.get();
    dl1_ = std::move(faulty);
  }
}

template <class Observe>
sim::RunStats System::replay_with(const DecodedTrace& trace,
                                  Observe observe) {
  return std::visit(
      [&](auto* concrete) { return replay(trace, *concrete, observe); },
      concrete_);
}

sim::RunStats System::run(const DecodedTrace& trace) {
  reset();
  return run_warm(trace);
}

sim::RunStats System::run(const DecodedTrace& trace,
                          const OpObserver& observer) {
  reset();
  return replay_with(trace, [&observer](std::size_t index, sim::Cycle issue,
                                        sim::Cycle complete) {
    observer(OpEvent{index, issue, complete});
  });
}

sim::RunStats System::run_warm(const DecodedTrace& trace) {
  return replay_with(trace, NoObserve{});
}

void System::reset() {
  l2_->reset();
  dl1_->reset();
}

}  // namespace sttsim::cpu

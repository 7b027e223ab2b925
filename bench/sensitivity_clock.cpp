// Exploration artifact; see src/experiments/figures.hpp.
#include "bench_common.hpp"
#include "sttsim/experiments/figures.hpp"

int main(int argc, char** argv) {
  return sttsim::benchcli::guarded_main(
      argc, argv, [](const sttsim::benchcli::Options& opts) {
        return sttsim::benchcli::print_figure(
            sttsim::experiments::sensitivity_clock(opts.kernels), opts);
      });
}

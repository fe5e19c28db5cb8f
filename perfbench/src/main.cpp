// perfbench: the repository benchmark driver.
//
//   perfbench --workload <swarm_1e5|scenario_sweep|tracker_ecosystem>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints human-readable lines, then one JSON result line: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer
// metrics (and the tracing overhead on the lines before it).
// perfbench/run.py builds this program and is the entry point.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <swarm_1e5|scenario_sweep|tracker_ecosystem>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (flag == "--trace-out") {
        opts.trace_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    usage(std::string("bad argument: ") + e.what());
  }
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Run run(opts);
  run.note("perfbench " + opts.workload + " seed " + std::to_string(opts.seed) + " seconds " +
           std::to_string(opts.seconds) + (opts.trace ? " (traced)" : ""));
  try {
    if (opts.workload == "swarm_1e5") {
      perfbench::run_swarm_1e5(run);
    } else if (opts.workload == "scenario_sweep") {
      perfbench::run_scenario_sweep(run);
    } else if (opts.workload == "tracker_ecosystem") {
      perfbench::run_tracker_ecosystem(run);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    run.check(false, std::string("workload aborted: ") + e.what());
  }
  return run.finish();
}

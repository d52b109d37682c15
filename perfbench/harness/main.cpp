// perfbench_harness — runs the library in-process for the benchmark.
//
//   perfbench_harness <subcommand> --key=value ...
//
// Subcommands: mcq, decode, cpt (workload children supervised by run.py),
// serve-oracle (checks recorded HTTP responses against the oracle), probes
// (per-layer micro-measurements for traced runs) and describe (the make-up
// of a seed's inputs, for the README). Each prints
// `TAG {json}` lines on stdout; see run.py for the protocol.

#include <cstdio>
#include <exception>
#include <string>

#include "util/cli.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

using namespace astromlab;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness mcq|decode|cpt|serve-oracle|probes|describe ...\n");
    return 64;
  }
  const std::string command = argv[1];
  const util::ArgParser args(argc - 1, argv + 1);
  log::set_level(log::parse_level(args.get_string("log", "warn")));
  try {
    if (command == "mcq") return perfbench::run_mcq(args);
    if (command == "decode") return perfbench::run_decode(args);
    if (command == "cpt") return perfbench::run_cpt(args);
    if (command == "serve-oracle") return perfbench::run_serve_oracle(args);
    if (command == "probes") return perfbench::run_probes(args);
    if (command == "describe") return perfbench::run_describe(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", command.c_str());
  return 64;
}

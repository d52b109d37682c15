#pragma once
// Shared plumbing of the benchmark harness: the line protocol the Python
// supervisor reads, seed derivation, state files and small statistics.
//
// Every workload child prints `TAG {json}` lines on stdout (flushed at
// once, so a crash loses nothing already printed) and keeps whatever it
// needs to resume after a crash under its state directory.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "json/json.hpp"
#include "util/cli.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace json = astromlab::json;

/// Seconds since the Unix epoch; the supervisor passes deadlines in the
/// same clock so they survive a child restart.
double wall_now();

/// Prints one protocol line and flushes stdout.
void emit(const char* tag, const json::Value& payload);

/// Derives an independent 64-bit seed for one input stream of a workload.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Appends one line to a file and flushes it before returning.
void append_line(const fs::path& path, const std::string& line);

/// Every line of a text file (empty when it does not exist).
std::vector<std::string> read_lines(const fs::path& path);

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> values, double q);

/// Work threads the benchmark drives the program with: nproc.
std::size_t worker_threads();

/// Common arguments of every workload child.
struct ChildArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< length of the measured window
  double deadline = 0.0;      ///< wall_now() at which measuring stops
  fs::path state;             ///< per-run state directory
  bool trace = false;         ///< record a util::trace session
  bool setup_only = false;    ///< exit right after READY (set-up sampling)
  double lead_in = 0.0;       ///< traced runs: untraced seconds first
};
ChildArgs parse_child_args(const astromlab::util::ArgParser& args);

/// Fixes the end of the measured window: `seconds` after the first
/// incarnation became ready, persisted so restarted children keep it.
void establish_deadline(ChildArgs& args);

/// Starts a trace session written to `trace_<tag>_<pid>.json` under the
/// state directory. Workloads trace one pass or round per session, so a
/// crash loses only the session it interrupts.
void start_trace(const ChildArgs& args, const std::string& tag);

/// Stops the session, writing the trace document.
void stop_trace();

/// Prints `MEASURED {"hwm_mb": ...}`: the process's peak resident memory
/// when its measured phase ends, before the oracle checks allocate theirs.
void emit_measured(json::Value payload = json::Value::object());

/// Counter values and histogram snapshots of util::metrics as JSON.
json::Value metrics_snapshot();

json::Value to_json(const std::vector<int>& values);
std::vector<int> ints_from_json(const json::Value& value);

}  // namespace perfbench

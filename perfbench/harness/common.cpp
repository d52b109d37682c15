#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void emit(const char* tag, const json::Value& payload) {
  const std::string line = std::string(tag) + " " + payload.dump() + "\n";
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fflush(stdout);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams of one seed never
  // share a generator state.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void append_line(const fs::path& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) throw std::runtime_error("cannot append to " + path.string());
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fflush(f);
  ::fsync(fileno(f));
  std::fclose(f);
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()) - 1e-9);
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

std::size_t worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ChildArgs parse_child_args(const astromlab::util::ArgParser& args) {
  ChildArgs out;
  out.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  out.seconds = args.get_double("seconds", 10.0);
  out.state = args.get_string("state", "");
  out.trace = args.get_int("trace", 0) != 0;
  out.setup_only = args.get_int("setup-only", 0) != 0;
  out.lead_in = args.get_double("lead-in", 0.0);
  if (out.state.empty()) throw std::invalid_argument("--state is required");
  fs::create_directories(out.state);
  return out;
}

void establish_deadline(ChildArgs& args) {
  const fs::path path = args.state / "deadline";
  const std::vector<std::string> lines = read_lines(path);
  if (!lines.empty()) {
    args.deadline = std::stod(lines.front());
    return;
  }
  args.deadline = wall_now() + args.seconds;
  char text[64];
  std::snprintf(text, sizeof text, "%.6f", args.deadline);
  append_line(path, text);
}

void start_trace(const ChildArgs& args, const std::string& tag) {
  const fs::path path =
      args.state / ("trace_" + tag + "_" + std::to_string(::getpid()) + ".json");
  astromlab::util::trace::start(path);
}

void stop_trace() { astromlab::util::trace::stop(); }

void emit_measured(json::Value payload) {
  double hwm_kb = 0.0;
  for (const std::string& line : read_lines("/proc/self/status")) {
    if (line.rfind("VmHWM:", 0) == 0) hwm_kb = std::stod(line.substr(6));
  }
  payload.set("hwm_mb", hwm_kb / 1024.0);
  emit("MEASURED", payload);
}

json::Value metrics_snapshot() {
  namespace metrics = astromlab::util::metrics;
  json::Value counters = json::Value::object();
  for (const auto& [name, value] : metrics::registry().counters()) {
    counters.set(name, static_cast<double>(value));
  }
  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : metrics::registry().gauges()) {
    gauges.set(name, static_cast<double>(value));
  }
  json::Value histograms = json::Value::object();
  for (const auto& [name, snap] : metrics::registry().histograms()) {
    json::Value h = json::Value::object();
    h.set("count", static_cast<double>(snap.count));
    h.set("sum", snap.sum);
    h.set("p50", snap.p50);
    h.set("p95", snap.p95);
    h.set("p99", snap.p99);
    histograms.set(name, std::move(h));
  }
  json::Value out = json::Value::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

json::Value to_json(const std::vector<int>& values) {
  json::Value out = json::Value::array();
  for (int v : values) out.push_back(v);
  return out;
}

std::vector<int> ints_from_json(const json::Value& value) {
  std::vector<int> out;
  for (const json::Value& item : value.items()) out.push_back(static_cast<int>(item.as_number()));
  return out;
}

}  // namespace perfbench

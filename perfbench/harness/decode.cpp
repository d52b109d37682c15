// decode_bound: short unshared prompts and long greedy continuations, nproc
// sequences at a time through nn::DecodeEngine, on a model whose bf16
// weights are well past the last-level cache — the bandwidth-bound regime of
// a 70B deployment. Sequence i decodes prompt i mod kDecodePool of a small
// seeded pool, so each prompt is decoded many times in different batch
// compositions; every decoded sequence is compared with the serial
// GptInference greedy stream of its prompt, computed once per prompt.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "decode_model.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

#include "nn/checkpoint.hpp"
#include "nn/decode_engine.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace util = astromlab::util;
namespace tensor = astromlab::tensor;

nn::GptConfig decode_config() {
  nn::GptConfig config;
  config.vocab_size = 2048;
  config.ctx_len = 128;
  config.d_model = 1024;
  config.n_heads = 16;
  config.n_layers = 16;
  config.d_ff = 4096;
  return config;
}

nn::GptModel decode_model(const fs::path& cache) {
  if (!cache.empty() && fs::exists(cache)) {
    nn::GptModel model = nn::load_checkpoint(cache);
    model.quantize_weights(tensor::WeightDtype::kBf16);
    return model;
  }
  nn::GptModel model(decode_config());
  util::Rng rng(kDecodeWeightSeed);
  model.init_weights(rng);
  model.quantize_weights(tensor::WeightDtype::kBf16);
  if (!cache.empty()) {
    // The masters are bf16-rounded now, so the bf16 checkpoint is exact.
    fs::create_directories(cache.parent_path());
    nn::save_checkpoint(model, cache, nn::CheckpointPrecision::kBf16);
  }
  return model;
}

std::vector<std::vector<nn::Token>> decode_prompts(std::uint64_t seed, std::size_t vocab) {
  util::Rng rng(mix_seed(seed, 12));
  std::vector<std::vector<nn::Token>> pool(kDecodePool);
  for (auto& prompt : pool) {
    prompt.resize(kDecodePromptMin + rng.next_u64() % (kDecodePromptMax - kDecodePromptMin + 1));
    for (auto& t : prompt) t = static_cast<nn::Token>(rng.next_u64() % vocab);
  }
  return pool;
}

std::vector<nn::Token> serial_greedy(const nn::GptModel& model,
                                     const std::vector<nn::Token>& prompt, std::size_t length) {
  nn::GptInference inference(model);
  const std::vector<float>* logits = &inference.prompt(prompt);
  std::vector<nn::Token> out;
  for (std::size_t i = 0; i < length; ++i) {
    const auto next = static_cast<nn::Token>(
        std::max_element(logits->begin(), logits->end()) - logits->begin());
    out.push_back(next);
    if (i + 1 < length) logits = &inference.step(next);
  }
  return out;
}

namespace {

/// Engine steps, mean batch occupancy and the counters the per-layer
/// metrics divide by completed sequences.
json::Value engine_snapshot() {
  auto& registry = util::metrics::registry();
  const auto occupancy = registry.histogram("decode.batch_occupancy").snapshot();
  json::Value out = json::Value::object();
  out.set("steps", static_cast<double>(registry.counter("decode.steps").value()));
  out.set("occupancy_mean",
          occupancy.count ? occupancy.sum / static_cast<double>(occupancy.count) : 0.0);
  for (const char* name :
       {"gemm.calls", "gemm.gemv_calls", "gemm.multi_gemv_calls", "pool.tasks_submitted"}) {
    out.set(name, static_cast<double>(registry.counter(name).value()));
  }
  out.set("memory.peak_bytes", static_cast<double>(registry.gauge("memory.peak_bytes").value()));
  return out;
}

struct Sequence {
  std::size_t id = 0;
  std::vector<int> tokens;
};

std::vector<Sequence> load_sequences(const fs::path& path) {
  std::vector<Sequence> out;
  for (const std::string& line : read_lines(path)) {
    const json::Value v = json::parse(line);
    out.push_back({static_cast<std::size_t>(v.get_number("id", 0)),
                   ints_from_json(*v.find("tokens"))});
  }
  return out;
}

}  // namespace

int run_decode(const util::ArgParser& args) {
  ChildArgs child = parse_child_args(args);
  util::Stopwatch watch;
  const nn::GptModel model = decode_model(args.get_string("model-cache", ""));
  {
    json::Value ready = json::Value::object();
    ready.set("model_init_s", watch.seconds());
    ready.set("params", static_cast<double>(model.param_count()));
    emit("READY", ready);
  }
  if (child.setup_only) return 0;
  establish_deadline(child);
  const std::vector<std::vector<nn::Token>> pool =
      decode_prompts(child.seed, model.config().vocab_size);

  // Sequence ids continue across restarts: every started id is logged
  // before it is submitted, so a crash cannot reuse one.
  const fs::path started_path = child.state / "started.log";
  const fs::path done_path = child.state / "sequences.jsonl";
  std::size_t next_id = 0;
  for (const std::string& line : read_lines(started_path)) {
    next_id = std::max<std::size_t>(next_id, std::stoull(line) + 1);
  }

  if (wall_now() < child.deadline) {
    const std::size_t slots = worker_threads();
    nn::DecodeEngine engine(model, slots);
    std::atomic<std::size_t> ids{next_id};
    std::mutex file_mutex;
    const double trace_at = child.deadline - child.seconds + child.lead_in;
    std::atomic<bool> tracing{false};
    std::vector<std::thread> submitters;
    for (std::size_t w = 0; w < slots; ++w) {
      submitters.emplace_back([&] {
        while (wall_now() < child.deadline) {
          if (child.trace && !tracing.load() && wall_now() >= trace_at) {
            const std::lock_guard<std::mutex> lock(file_mutex);
            if (!tracing.load()) start_trace(child, "decode");
            tracing = true;
          }
          const std::size_t id = ids.fetch_add(1);
          {
            const std::lock_guard<std::mutex> lock(file_mutex);
            append_line(started_path, std::to_string(id));
          }
          const std::vector<nn::Token>& prompt = pool[id % pool.size()];
          std::vector<int> tokens;
          std::vector<double> stamps;
          const auto submitted = std::chrono::steady_clock::now();
          const double submitted_wall = wall_now();
          nn::DecodeEngine::Request request;
          request.prompt = prompt;
          request.on_logits = [&](const std::vector<float>& logits, std::size_t) -> nn::Token {
            stamps.push_back(
                std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          submitted)
                    .count());
            const auto next = static_cast<nn::Token>(
                std::max_element(logits.begin(), logits.end()) - logits.begin());
            tokens.push_back(next);
            return tokens.size() >= kDecodeLength ? nn::DecodeEngine::kStopDecoding : next;
          };
          {
            const util::trace::Span span("bench.engine_run", "bench");
            engine.run(std::move(request));
          }
          json::Value gaps = json::Value::array();
          for (std::size_t i = 1; i < stamps.size(); ++i) gaps.push_back(stamps[i] - stamps[i - 1]);
          json::Value record = json::Value::object();
          record.set("id", static_cast<double>(id));
          record.set("tokens", to_json(tokens));
          json::Value line = json::Value::object();
          line.set("id", static_cast<double>(id));
          line.set("t", wall_now());
          line.set("n", static_cast<double>(tokens.size()));
          line.set("t0", submitted_wall);
          line.set("admit_ms", stamps.empty() ? 0.0 : stamps.front());
          line.set("gaps_ms", std::move(gaps));
          line.set("traced", util::trace::enabled());
          // This child's engine counters so far, so the per-layer figures
          // survive a crash before the measured phase ends.
          line.set("engine", engine_snapshot());
          const std::lock_guard<std::mutex> lock(file_mutex);
          append_line(done_path, record.dump());
          emit("SEQ", line);
        }
      });
    }
    for (auto& t : submitters) t.join();
    emit_measured();
    if (util::trace::enabled()) stop_trace();
  }

  // ---- verification -----------------------------------------------------
  util::Stopwatch verify_watch;
  const std::vector<Sequence> sequences = load_sequences(done_path);
  std::vector<std::string> problems;
  // Serial reference streams are persisted as they are computed, so a
  // restart during verification resumes instead of starting over.
  std::vector<std::vector<int>> expected(pool.size());
  std::size_t compared = 0;
  for (const Sequence& seq : sequences) {
    const std::size_t p = seq.id % pool.size();
    if (expected[p].empty()) {
      const fs::path path = child.state / ("expected_" + std::to_string(p) + ".json");
      const std::vector<std::string> saved = read_lines(path);
      if (!saved.empty()) {
        expected[p] = ints_from_json(json::parse(saved.front()));
      } else {
        const std::vector<nn::Token> stream = serial_greedy(model, pool[p], kDecodeLength);
        expected[p].assign(stream.begin(), stream.end());
        append_line(path, to_json(expected[p]).dump());
      }
      json::Value beat = json::Value::object();
      beat.set("prompt", static_cast<double>(p));
      emit("VERIFY_PROGRESS", beat);
    }
    if (seq.tokens != expected[p]) {
      problems.push_back("sequence " + std::to_string(seq.id) +
                         " differs from the serial GptInference greedy stream");
    }
    ++compared;
  }
  std::size_t ties = 0, oracle_checked = 0;
  if (!sequences.empty()) {
    util::Rng pick(mix_seed(child.seed, 13));
    const Sequence& seq = sequences[pick.next_u64() % sequences.size()];
    Oracle oracle(model);
    const std::vector<nn::Token> generated(seq.tokens.begin(), seq.tokens.end());
    const StreamCheck check =
        oracle.check_stream(pool[seq.id % pool.size()], generated);
    if (!check.ok()) {
      problems.push_back("sequence " + std::to_string(seq.id) + ": " +
                         std::to_string(check.mismatches) + " tokens are not the oracle argmax");
    }
    ties = check.ties;
    oracle_checked = check.checked;
  }
  json::Value verify = json::Value::object();
  verify.set("ok", problems.empty() && !sequences.empty());
  verify.set("sequences", static_cast<double>(compared));
  verify.set("oracle_tokens", static_cast<double>(oracle_checked));
  verify.set("ties", static_cast<double>(ties));
  verify.set("seconds", verify_watch.seconds());
  json::Value list = json::Value::array();
  for (const auto& p : problems) list.push_back(p);
  verify.set("problems", std::move(list));
  emit("VERIFY", verify);
  return 0;
}

}  // namespace perfbench

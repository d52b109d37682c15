// probes: per-layer micro-measurements for traced runs. Each probe times the
// benchmark's own calls into one layer's public functions on a workload's
// shapes and prints `PROBE {"name", "value", "unit"}`; every figure is the
// median of several repetitions.

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "decode_model.hpp"
#include "workloads.hpp"

#include "core/model_zoo.hpp"
#include "eval/answer_extract.hpp"
#include "eval/full_instruct.hpp"
#include "eval/journal.hpp"
#include "eval/prompts.hpp"
#include "nn/adamw.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace core = astromlab::core;
namespace eval = astromlab::eval;
namespace tensor = astromlab::tensor;
namespace util = astromlab::util;

namespace {

constexpr int kReps = 5;

void probe(const char* name, double value, const char* unit) {
  json::Value out = json::Value::object();
  out.set("name", name);
  out.set("value", value);
  out.set("unit", unit);
  emit("PROBE", out);
}

template <typename Fn>
double median_seconds(Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < kReps; ++r) {
    util::Stopwatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  return percentile(times, 0.5);
}

std::vector<float> random_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> out(n);
  for (auto& x : out) x = static_cast<float>(rng.next_gaussian()) * 0.02f;
  return out;
}

/// multi_gemv over a stack of weight matrices larger than the last-level
/// cache, with the decode model's fc shape and batch of nproc inputs:
/// computed bytes (weights + inputs + outputs) over the timed call.
void probe_multi_gemv(util::Rng& rng) {
  const nn::GptConfig config = decode_config();
  const std::size_t n = config.d_ff, k = config.d_model, count = worker_threads();
  const std::size_t layers = 24;  // 24 x 16.8 MB of fp32 rows: past the LLC
  std::vector<std::vector<float>> weights;
  for (std::size_t l = 0; l < layers; ++l) weights.push_back(random_floats(n * k, rng));
  std::vector<std::vector<float>> x(count, random_floats(k, rng)), y(count,
                                                                     std::vector<float>(n));
  std::vector<const float*> xs;
  std::vector<float*> ys;
  for (std::size_t i = 0; i < count; ++i) {
    xs.push_back(x[i].data());
    ys.push_back(y[i].data());
  }
  const double seconds = median_seconds([&] {
    for (const auto& w : weights) {
      tensor::multi_gemv(n, k, 1.0f, xs.data(), count, w.data(), k, ys.data());
    }
  });
  const double bytes = static_cast<double>(layers) *
                       static_cast<double>(n * k + count * (n + k)) * sizeof(float);
  probe("tensor.multi_gemv_gbps", bytes / seconds / 1e9, "GB/s");
}

/// sgemm on cpt_train's forward and backward shapes (micro-batch x
/// sequence positions through the S70 linears).
void probe_sgemm(util::Rng& rng) {
  const nn::GptConfig arch = core::scale_spec(core::Scale::kS70, core::WorldConfig{}).arch;
  const nn::TrainConfig train = cpt_train_config(core::WorldConfig{});
  const std::size_t bt = train.micro_batch * train.seq_len;
  struct Shape { bool ta, tb; std::size_t m, n, k; };
  std::vector<Shape> shapes;
  for (std::size_t out : {3 * arch.d_model, arch.d_model, arch.d_ff, arch.vocab_size}) {
    shapes.push_back({false, true, bt, out, arch.d_model});        // forward
    shapes.push_back({false, false, bt, arch.d_model, out});       // d input
    shapes.push_back({true, false, out, arch.d_model, bt});        // d weight
  }
  std::vector<std::vector<float>> a, b, c;
  double flops = 0;
  for (const Shape& s : shapes) {
    a.push_back(random_floats(s.m * s.k, rng));
    b.push_back(random_floats(s.k * s.n, rng));
    c.push_back(std::vector<float>(s.m * s.n));
    flops += 2.0 * static_cast<double>(s.m * s.n * s.k);
  }
  const double seconds = median_seconds([&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Shape& s = shapes[i];
      tensor::sgemm(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a[i].data(), s.ta ? s.m : s.k,
                    b[i].data(), s.tb ? s.k : s.n, 0.0f, c[i].data(), s.n);
    }
  });
  probe("tensor.sgemm_gflops", flops / seconds / 1e9, "GFLOP/s");
}

/// Tokenizer, prefill and decode on the mcq_eval world and model.
void probe_inference(std::uint64_t seed, const fs::path& state) {
  const core::World world = core::build_world(mcq_world_config(seed));
  const nn::GptModel model = mcq_model(world, seed);
  const auto fewshot = eval::pick_fewshot_examples(world.mcqs.practice);
  std::vector<std::string> prompts;
  for (const auto& item : world.mcqs.benchmark) {
    prompts.push_back(eval::build_token_prompt(item, fewshot));
  }
  std::vector<std::vector<nn::Token>> encoded(prompts.size());
  const double encode_s = median_seconds([&] {
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      const auto ids = world.tok.encode(prompts[i]);
      encoded[i].assign(ids.begin(), ids.end());
    }
  });
  probe("tokenizer.encode_us_per_prompt", encode_s * 1e6 / static_cast<double>(prompts.size()),
        "us");

  nn::GptInference inference(model);
  const std::vector<nn::Token>& prompt = encoded.front();
  const double prefill_s = median_seconds([&] {
    inference.reset();
    inference.prompt(prompt);
  });
  probe("nn.prefill_us_per_token", prefill_s * 1e6 / static_cast<double>(prompt.size()), "us");

  const std::size_t steps = 96;
  const double decode_s = median_seconds([&] {
    inference.reset();
    const std::vector<float>* logits = &inference.prompt(encoded.front().data(), 8, nullptr);
    for (std::size_t i = 0; i < steps; ++i) {
      const auto next = static_cast<nn::Token>(
          std::max_element(logits->begin(), logits->end()) - logits->begin());
      logits = &inference.step(next);
    }
  });
  probe("nn.decode_us_per_token", decode_s * 1e6 / static_cast<double>(steps), "us");

  // Answer extraction and journal appends on full-instruct outputs.
  std::vector<std::string> outputs;
  std::vector<eval::QuestionResult> results;
  for (std::size_t q = 0; q < 3; ++q) {
    const auto outcome = eval::full_instruct_one(model, world.tok, world.mcqs.benchmark[q], {});
    outputs.push_back(outcome.raw_output);
    results.push_back(outcome.result);
  }
  const std::size_t extract_reps = 200;
  const double extract_s = median_seconds([&] {
    for (std::size_t r = 0; r < extract_reps; ++r) {
      for (std::size_t q = 0; q < outputs.size(); ++q) {
        eval::extract_answer(outputs[q], world.mcqs.benchmark[q].options);
      }
    }
  });
  probe("eval.answer_extract_us",
        extract_s * 1e6 / static_cast<double>(extract_reps * outputs.size()), "us");
  const fs::path journal_path = state / "probe_journal.jsonl";
  const std::size_t records = 40;
  std::size_t next = 0;
  const double journal_s = median_seconds([&] {
    eval::EvalJournal journal(journal_path);
    for (std::size_t r = 0; r < records; ++r, ++next) journal.record(next, results[r % 3]);
  });
  fs::remove(journal_path);
  probe("eval.journal_record_us", journal_s * 1e6 / static_cast<double>(records), "us");
}

/// Forward, backward and AdamW of the S70 model on cpt_train's batch.
void probe_training(util::Rng& rng) {
  nn::GptConfig arch = core::scale_spec(core::Scale::kS70, core::WorldConfig{}).arch;
  nn::GptModel model(arch);
  model.init_weights(rng);
  const nn::TrainConfig train = cpt_train_config(core::WorldConfig{});
  const std::size_t batch = train.micro_batch, seq = train.seq_len;
  std::vector<nn::Token> tokens(batch * seq), targets(batch * seq);
  for (auto& t : tokens) t = static_cast<nn::Token>(rng.next_u64() % arch.vocab_size);
  for (auto& t : targets) t = static_cast<nn::Token>(rng.next_u64() % arch.vocab_size);
  nn::GptActivations acts;
  nn::AdamW optimizer(model.params(), nn::AdamWConfig{});
  const double forward_s = median_seconds(
      [&] { model.forward(acts, tokens.data(), targets.data(), batch, seq); });
  const double backward_s = median_seconds([&] {
    model.params().zero_grads();
    model.backward(acts, tokens.data(), targets.data(), batch, seq);
  });
  const double adamw_s = median_seconds([&] { optimizer.step(1e-3f); });
  probe("nn.forward_ms", forward_s * 1e3, "ms");
  probe("nn.backward_ms", backward_s * 1e3, "ms");
  probe("nn.adamw_ms", adamw_s * 1e3, "ms");
}

}  // namespace

int run_describe(const util::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const core::World world = core::build_world(mcq_world_config(seed));
  const auto fewshot = eval::pick_fewshot_examples(world.mcqs.practice);
  std::vector<double> token_len, instruct_len;
  std::vector<std::vector<astromlab::tokenizer::TokenId>> prompts;
  for (const auto& item : world.mcqs.benchmark) {
    prompts.push_back(world.tok.encode(eval::build_token_prompt(item, fewshot)));
    token_len.push_back(static_cast<double>(prompts.back().size()));
    instruct_len.push_back(
        static_cast<double>(world.tok.encode(eval::build_instruct_prompt(item)).size()));
  }
  // Shared prefix: the longest common prefix of the first two prompts, as
  // the prefix cache computes it.
  std::size_t shared = 0;
  while (shared < prompts[0].size() && shared < prompts[1].size() &&
         prompts[0][shared] == prompts[1][shared]) {
    ++shared;
  }
  const auto summary = [](std::vector<double> v) {
    json::Value out = json::Value::object();
    out.set("min", percentile(v, 0.0));
    out.set("p50", percentile(v, 0.5));
    out.set("max", percentile(v, 1.0));
    double sum = 0;
    for (double x : v) sum += x;
    out.set("sum", sum);
    return out;
  };
  json::Value out = json::Value::object();
  out.set("questions", static_cast<double>(world.mcqs.benchmark.size()));
  out.set("vocab", static_cast<double>(world.tok.vocab_size()));
  out.set("token_prompt_tokens", summary(token_len));
  out.set("instruct_prompt_tokens", summary(instruct_len));
  out.set("shared_prefix_tokens", static_cast<double>(shared));
  const auto pool = decode_prompts(seed, decode_config().vocab_size);
  json::Value decode = json::Value::array();
  for (const auto& p : pool) decode.push_back(static_cast<double>(p.size()));
  out.set("decode_prompt_tokens", std::move(decode));
  emit("DESCRIBE", out);
  return 0;
}

int run_probes(const util::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  util::Rng rng(mix_seed(seed, 31));
  const fs::path state = args.get_string("state", ".");
  probe_inference(seed, state);
  probe_training(rng);
  probe_sgemm(rng);
  probe_multi_gemv(rng);
  emit("VERIFY", json::Value::object());
  return 0;
}

}  // namespace perfbench

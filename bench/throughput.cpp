// Experiment E8 — engineering throughput of the substrate kernels:
// GEMM, transformer forward/backward, KV-cache decode, and the tokenizer.
// These are google-benchmark microbenchmarks (the training/evaluation
// wall-times of the study itself are reported by the experiment benches).
//
// Invoked with `--smoke [--out-dir DIR]` the binary instead runs the
// deterministic perf-regression harness: a kernel-level GEMM gate comparing
// the runtime-dispatched `tensor::sgemm` against the scalar reference on the
// bench model's linear-layer shapes (`BENCH_gemm.json`), plus the
// shared-prefix KV cache checks — cold vs warm prefill at the micro level
// and cache-off vs cache-on eval at the runner level (`BENCH_prefill.json`
// / `BENCH_eval.json`) — and the tracing-overhead gate (`BENCH_trace.json`):
// disabled `util::trace` spans must cost < 2% of per-question latency, and
// scores must stay bit-identical with tracing enabled. Every report carries
// p50/p95/p99 latency percentiles (per question, or per GEMM iteration).
// It exits non-zero if any JSON fails to re-parse, a speedup gate drops
// below 1.0, the dispatched kernel diverges from the scalar reference, the
// cached path stops being bit-identical, or the trace gate fails. The
// workload is fully seeded; only the wall-clock numbers vary run to run.
//
// `--chaos-soak [--chaos-seed N --chaos-rate P --out-dir DIR]` instead
// runs the full three-method eval pipeline (journals, parallel workers,
// prefix cache) under the seeded chaos schedule — injected write faults,
// torn appends and allocation pressure at the question boundary — and
// gates on the run *finishing* with every question accounted for
// (answered + degraded + shed = total) and a CRC-clean journal
// (`BENCH_chaos.json`). `--memory-budget-mb` additionally enforces a hard
// tracked-byte ceiling during any mode.
//
// `--trace-json <path>` additionally records the harness's own spans and
// writes the Chrome trace_event document (plus metrics snapshot) on exit.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpora.hpp"
#include "eval/full_instruct.hpp"
#include "eval/journal.hpp"
#include "eval/prefix_cache.hpp"
#include "eval/token_method.hpp"
#include "json/json.hpp"
#include "nn/decode_engine.hpp"
#include "nn/gpt.hpp"
#include "nn/trainer.hpp"
#include "tensor/bf16.hpp"
#include "tensor/ops.hpp"
#include "tokenizer/bpe.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/resource_budget.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/shutdown.hpp"
#include "util/trace.hpp"

using namespace astromlab;

namespace {

void BM_Sgemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = rng.next_float();
  for (float& v : b) v = rng.next_float();
  for (auto _ : state) {
    tensor::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(n) * n * n * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(128)->Arg(256);

void BM_SgemmTransposed(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = rng.next_float();
  for (float& v : b) v = rng.next_float();
  for (auto _ : state) {
    // The y = x * W^T layout used by every linear layer.
    tensor::sgemm(false, true, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(n) * n * n * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmTransposed)->Arg(64)->Arg(128);

nn::GptModel bench_model() {
  nn::GptConfig config;
  config.vocab_size = 768;
  config.ctx_len = 416;
  config.d_model = 80;
  config.n_heads = 8;
  config.n_layers = 4;
  config.d_ff = 320;
  nn::GptModel model(config);
  util::Rng rng(3);
  model.init_weights(rng);
  return model;
}

void BM_TransformerForward(benchmark::State& state) {
  nn::GptModel model = bench_model();
  const std::size_t batch = 4, seq = 256;
  util::Rng rng(4);
  std::vector<nn::Token> tokens(batch * seq), targets(batch * seq);
  for (auto& t : tokens) t = static_cast<nn::Token>(rng.next_below(768));
  for (auto& t : targets) t = static_cast<nn::Token>(rng.next_below(768));
  nn::GptActivations acts;
  for (auto _ : state) {
    const float loss = model.forward(acts, tokens.data(), targets.data(), batch, seq);
    benchmark::DoNotOptimize(loss);
  }
  state.counters["tok/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(batch * seq),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TransformerForward);

void BM_TransformerTrainStep(benchmark::State& state) {
  nn::GptModel model = bench_model();
  const std::size_t batch = 4, seq = 256;
  util::Rng rng(5);
  std::vector<nn::Token> tokens(batch * seq), targets(batch * seq);
  for (auto& t : tokens) t = static_cast<nn::Token>(rng.next_below(768));
  for (auto& t : targets) t = static_cast<nn::Token>(rng.next_below(768));
  nn::GptActivations acts;
  for (auto _ : state) {
    model.params().zero_grads();
    model.forward(acts, tokens.data(), targets.data(), batch, seq);
    model.backward(acts, tokens.data(), targets.data(), batch, seq);
    benchmark::DoNotOptimize(model.params().grads());
  }
  state.counters["tok/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(batch * seq),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TransformerTrainStep);

void BM_KvCacheDecode(benchmark::State& state) {
  nn::GptModel model = bench_model();
  nn::GptInference inference(model);
  for (auto _ : state) {
    if (inference.position() + 1 >= model.config().ctx_len) inference.reset();
    benchmark::DoNotOptimize(inference.step(42));
  }
  state.counters["tok/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KvCacheDecode);

struct TokenizerFixture {
  corpus::KnowledgeBase kb;
  tokenizer::BpeTokenizer tok;
  std::string sample;
  TokenizerFixture() {
    corpus::KbConfig config;
    config.n_topics = 8;
    config.entities_per_topic = 4;
    config.facts_per_entity = 2;
    kb = corpus::KnowledgeBase::generate(config);
    const auto mcqs = corpus::generate_mcqs(kb, {});
    tokenizer::BpeTrainConfig tc;
    tc.vocab_size = 768;
    const std::string text = corpus::build_tokenizer_training_text(kb, mcqs.practice, 6);
    tok = tokenizer::BpeTokenizer::train(text, tc);
    sample = text.substr(0, 16384);
  }
};

void BM_TokenizerEncode(benchmark::State& state) {
  static TokenizerFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.tok.encode(fixture.sample));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.sample.size()));
}
BENCHMARK(BM_TokenizerEncode);

void BM_TokenizerTrain(benchmark::State& state) {
  static TokenizerFixture fixture;
  tokenizer::BpeTrainConfig config;
  config.vocab_size = 512;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer::BpeTokenizer::train(fixture.sample, config));
  }
}
BENCHMARK(BM_TokenizerTrain);

// ---------------------------------------------------------------------------
// --smoke: deterministic perf-regression harness for the prefix KV cache.

json::Value model_json(const nn::GptConfig& config) {
  json::Value m = json::Value::object();
  m.set("vocab_size", static_cast<std::int64_t>(config.vocab_size));
  m.set("ctx_len", static_cast<std::int64_t>(config.ctx_len));
  m.set("d_model", static_cast<std::int64_t>(config.d_model));
  m.set("n_heads", static_cast<std::int64_t>(config.n_heads));
  m.set("n_layers", static_cast<std::int64_t>(config.n_layers));
  m.set("d_ff", static_cast<std::int64_t>(config.d_ff));
  return m;
}

json::Value phase_json(double seconds, std::size_t questions, std::size_t tokens) {
  json::Value p = json::Value::object();
  p.set("seconds", seconds);
  p.set("seconds_per_question", seconds / static_cast<double>(questions));
  p.set("tokens_per_s", static_cast<double>(tokens) / seconds);
  return p;
}

/// Nearest-rank latency percentiles (ms) over raw per-unit samples.
json::Value latency_json(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  json::Value l = json::Value::object();
  l.set("count", static_cast<std::int64_t>(seconds.size()));
  l.set("p50_ms", util::metrics::percentile_sorted(seconds, 0.50) * 1e3);
  l.set("p95_ms", util::metrics::percentile_sorted(seconds, 0.95) * 1e3);
  l.set("p99_ms", util::metrics::percentile_sorted(seconds, 0.99) * 1e3);
  l.set("max_ms", seconds.empty() ? 0.0 : seconds.back() * 1e3);
  return l;
}

/// Same shape, fed from the supervisor's already-computed percentiles.
json::Value latency_json(const eval::SupervisorStats& stats) {
  json::Value l = json::Value::object();
  l.set("count", static_cast<std::int64_t>(stats.completed_questions));
  l.set("p50_ms", stats.latency_p50_s * 1e3);
  l.set("p95_ms", stats.latency_p95_s * 1e3);
  l.set("p99_ms", stats.latency_p99_s * 1e3);
  return l;
}

/// Micro-level prefill: N questions sharing a long token prefix, cold path
/// re-encoding everything vs warm path forking the snapshot. Wall time is
/// the best of `kReps` passes over all questions, so a single scheduler
/// hiccup cannot fail the regression gate.
json::Value smoke_prefill() {
  nn::GptConfig config;
  config.vocab_size = 256;
  config.ctx_len = 224;
  config.d_model = 32;
  config.n_heads = 4;
  config.n_layers = 2;
  config.d_ff = 64;
  nn::GptModel model(config);
  util::Rng rng(101);
  model.init_weights(rng);

  constexpr std::size_t kPrefix = 192, kTail = 16, kQuestions = 12, kReps = 3;
  const std::vector<nn::Token> prefix = [&] {
    std::vector<nn::Token> t(kPrefix);
    for (auto& v : t) v = static_cast<nn::Token>(rng.next_below(config.vocab_size));
    return t;
  }();
  std::vector<std::vector<nn::Token>> prompts(kQuestions, prefix);
  for (auto& prompt : prompts) {
    for (std::size_t i = 0; i < kTail; ++i) {
      prompt.push_back(static_cast<nn::Token>(rng.next_below(config.vocab_size)));
    }
  }

  nn::GptInference inference(model);
  std::vector<std::vector<float>> cold_logits;
  std::vector<double> cold_latency;  // per-question samples across all reps
  double cold_seconds = 1e30;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    cold_logits.clear();
    util::Stopwatch watch;
    for (const auto& prompt : prompts) {
      util::Stopwatch question_watch;
      inference.reset();
      cold_logits.push_back(inference.prompt(prompt));
      cold_latency.push_back(question_watch.seconds());
    }
    cold_seconds = std::min(cold_seconds, watch.seconds());
  }

  nn::GptInference encoder(model);
  encoder.prompt(prefix);
  const nn::KvSnapshot snap = encoder.snapshot();
  bool bit_identical = true;
  std::vector<double> warm_latency;
  double warm_seconds = 1e30;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    util::Stopwatch watch;
    for (std::size_t q = 0; q < kQuestions; ++q) {
      util::Stopwatch question_watch;
      inference.fork_from(snap);
      const std::vector<float>& logits =
          inference.prompt(prompts[q].data() + kPrefix, kTail, nullptr);
      if (std::memcmp(logits.data(), cold_logits[q].data(),
                      logits.size() * sizeof(float)) != 0) {
        bit_identical = false;
      }
      warm_latency.push_back(question_watch.seconds());
    }
    warm_seconds = std::min(warm_seconds, watch.seconds());
  }

  const std::size_t tokens_per_question = kPrefix + kTail;
  json::Value report = json::Value::object();
  report.set("benchmark", "prefill");
  report.set("kernel", tensor::kernel_name());
  report.set("model", model_json(config));
  report.set("questions", static_cast<std::int64_t>(kQuestions));
  report.set("prefix_tokens", static_cast<std::int64_t>(kPrefix));
  report.set("tail_tokens", static_cast<std::int64_t>(kTail));
  // tokens_per_s counts *effective* prompt tokens (prefix + tail) for both
  // phases, so the warm figure shows the throughput the reuse buys.
  report.set("cold", phase_json(cold_seconds, kQuestions, kQuestions * tokens_per_question));
  report.set("warm", phase_json(warm_seconds, kQuestions, kQuestions * tokens_per_question));
  report.set("cold_question_latency", latency_json(cold_latency));
  report.set("warm_question_latency", latency_json(warm_latency));
  report.set("warm_cold_speedup", cold_seconds / warm_seconds);
  report.set("prefill_reuse_ratio",
             static_cast<double>(kPrefix) / static_cast<double>(tokens_per_question));
  report.set("bit_identical", bit_identical);
  return report;
}

/// Tiny synthetic eval world shared by the runner-level eval gate and the
/// tracing-overhead gate (world construction — BPE training included — is
/// the slow part, so build it once).
struct EvalWorld {
  corpus::McqSplit mcqs;
  tokenizer::BpeTokenizer tok;
  nn::GptModel model;
};

EvalWorld make_eval_world(std::size_t questions_per_topic = 2) {
  corpus::KbConfig kb_config;
  kb_config.n_topics = 4;
  kb_config.entities_per_topic = 3;
  kb_config.facts_per_entity = 2;
  kb_config.seed = 61;
  const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(kb_config);
  corpus::McqGenConfig mcq_config;
  mcq_config.questions_per_topic = questions_per_topic;
  mcq_config.seed = 62;
  corpus::McqSplit mcqs = corpus::generate_mcqs(kb, mcq_config);
  tokenizer::BpeTrainConfig tok_config;
  tok_config.vocab_size = 420;
  tokenizer::BpeTokenizer tok = tokenizer::BpeTokenizer::train(
      corpus::build_tokenizer_training_text(kb, mcqs.practice, 63), tok_config);

  nn::GptConfig config;
  config.vocab_size = tok.vocab_size();
  // Roomy context: every benchmark prompt (~380 tokens) must fit, so all
  // questions exercise the cache and the one-time prefix encode amortises.
  config.ctx_len = 512;
  config.d_model = 24;
  config.n_heads = 2;
  config.n_layers = 1;
  config.d_ff = 48;
  nn::GptModel model(config);
  util::Rng rng(64);
  model.init_weights(rng);
  return EvalWorld{std::move(mcqs), std::move(tok), std::move(model)};
}

/// Runner-level eval: the token-method benchmark on a tiny synthetic world,
/// cache off vs cache on (both serial, so the delta isolates the cache).
/// The cold-phase per-question cost and results feed the trace gate.
json::Value smoke_eval(const EvalWorld& world, double* cold_seconds_per_question,
                       std::vector<eval::QuestionResult>* cold_results_out) {
  const corpus::McqSplit& mcqs = world.mcqs;
  constexpr std::size_t kReps = 3;
  std::vector<eval::QuestionResult> cold_results, warm_results;
  double cold_seconds = 1e30, warm_seconds = 1e30;
  eval::PrefixCacheStats stats;
  eval::SupervisorStats cold_stats, warm_stats, rep_stats;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    util::Stopwatch watch;
    cold_results = eval::run_token_benchmark(world.model, world.tok, mcqs.benchmark,
                                             mcqs.practice, nullptr, {}, {}, nullptr,
                                             &rep_stats);
    if (watch.seconds() < cold_seconds) {
      cold_seconds = watch.seconds();
      cold_stats = rep_stats;
    }
  }
  eval::EvalRunOptions warm_opts;
  warm_opts.prefix_cache = true;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    util::Stopwatch watch;
    warm_results = eval::run_token_benchmark(world.model, world.tok, mcqs.benchmark,
                                             mcqs.practice, nullptr, {}, warm_opts, &stats,
                                             &rep_stats);
    if (watch.seconds() < warm_seconds) {
      warm_seconds = watch.seconds();
      warm_stats = rep_stats;
    }
  }

  bool scores_identical = cold_results.size() == warm_results.size();
  for (std::size_t q = 0; scores_identical && q < cold_results.size(); ++q) {
    scores_identical = cold_results[q].predicted == warm_results[q].predicted &&
                       cold_results[q].correct == warm_results[q].correct;
  }
  if (cold_seconds_per_question != nullptr) {
    *cold_seconds_per_question = cold_seconds / static_cast<double>(mcqs.benchmark.size());
  }
  if (cold_results_out != nullptr) *cold_results_out = cold_results;

  json::Value report = json::Value::object();
  report.set("benchmark", "eval_token_method");
  report.set("kernel", tensor::kernel_name());
  report.set("model", model_json(world.model.config()));
  report.set("questions", static_cast<std::int64_t>(mcqs.benchmark.size()));
  report.set("cold", phase_json(cold_seconds, mcqs.benchmark.size(),
                                static_cast<std::size_t>(stats.prompt_tokens)));
  report.set("warm", phase_json(warm_seconds, mcqs.benchmark.size(),
                                static_cast<std::size_t>(stats.prompt_tokens)));
  report.set("cold_question_latency", latency_json(cold_stats));
  report.set("warm_question_latency", latency_json(warm_stats));
  report.set("warm_cold_speedup", cold_seconds / warm_seconds);
  report.set("prefill_reuse_ratio", stats.reuse_ratio());
  report.set("reused_tokens", static_cast<std::int64_t>(stats.reused_tokens));
  report.set("prompt_tokens", static_cast<std::int64_t>(stats.prompt_tokens));
  report.set("scores_identical", scores_identical);
  return report;
}

/// Tracing-overhead gate. Two measurements:
///  1. the cost of a *disabled* span (the only thing instrumented hot paths
///     pay when --trace-json is off), timed over millions of constructions;
///  2. the spans-per-question of a fully traced eval run, counted with an
///     in-memory session (reusing a live --trace-json session if present).
/// The gate estimates disabled-tracing overhead as
///   spans_per_question * ns_per_span / cold_seconds_per_question
/// and fails above 2%. It also re-runs the eval with tracing enabled and
/// checks scores stay identical to the untraced reference.
json::Value smoke_trace(const EvalWorld& world, double cold_seconds_per_question,
                        const std::vector<eval::QuestionResult>& reference) {
  const bool own_session = !util::trace::enabled();
  constexpr std::size_t kProbeIters = 2'000'000, kProbeReps = 3;
  double probe_seconds = 1e30;
  // The probe must exercise the DISABLED path even when main armed a
  // --trace-json session: pause() disarms without dropping its events, so
  // 6M probe spans neither flood the trace nor get mis-timed as enabled.
  util::trace::pause();
  for (std::size_t rep = 0; rep < kProbeReps; ++rep) {
    util::Stopwatch watch;
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      const util::trace::Span span("bench.overhead_probe", "bench");
      benchmark::DoNotOptimize(&span);
    }
    probe_seconds = std::min(probe_seconds, watch.seconds());
  }
  util::trace::resume();
  const double ns_per_span = probe_seconds / static_cast<double>(kProbeIters) * 1e9;

  if (own_session) util::trace::start({});  // in-memory: no file
  const std::size_t events_before = util::trace::event_count();
  eval::SupervisorStats traced_stats;
  const std::vector<eval::QuestionResult> traced =
      eval::run_token_benchmark(world.model, world.tok, world.mcqs.benchmark,
                                world.mcqs.practice, nullptr, {}, {}, nullptr,
                                &traced_stats);
  const std::size_t events = util::trace::event_count() - events_before;
  bool trace_doc_parses = true;
  if (own_session) {
    try {
      json::parse(util::trace::stop());
    } catch (const std::exception&) {
      trace_doc_parses = false;
    }
  }

  bool scores_identical = traced.size() == reference.size();
  for (std::size_t q = 0; scores_identical && q < traced.size(); ++q) {
    scores_identical = traced[q].predicted == reference[q].predicted &&
                       traced[q].correct == reference[q].correct;
  }

  const double spans_per_question =
      static_cast<double>(events) / static_cast<double>(world.mcqs.benchmark.size());
  const double overhead =
      spans_per_question * ns_per_span * 1e-9 / cold_seconds_per_question;

  json::Value report = json::Value::object();
  report.set("benchmark", "trace_overhead");
  report.set("kernel", tensor::kernel_name());
  report.set("questions", static_cast<std::int64_t>(world.mcqs.benchmark.size()));
  report.set("ns_per_disabled_span", ns_per_span);
  report.set("trace_events", static_cast<std::int64_t>(events));
  report.set("spans_per_question", spans_per_question);
  report.set("cold_seconds_per_question", cold_seconds_per_question);
  report.set("estimated_overhead_fraction", overhead);
  report.set("overhead_budget", 0.02);
  report.set("question_latency", latency_json(traced_stats));
  report.set("trace_doc_parses", trace_doc_parses);
  report.set("scores_identical_with_tracing", scores_identical);
  return report;
}

/// Decode-bound model for the batched-throughput gate. Batching pays off in
/// the regime production decode actually lives in: the weights do not fit
/// in per-core cache, so a serial decode step is bound by streaming the
/// whole weight set (here ~218 MB) through the memory hierarchy for every
/// single token. A batched step streams the weights once for B tokens. The
/// E8 smoke model (~1.5 MB) is L2-resident and compute-bound — there is no
/// weight traffic to amortise, so it cannot measure what continuous
/// batching buys. This model is deliberately sized past L2 to reproduce
/// the bandwidth-bound regime of a 70B-class deployment at smoke scale.
nn::GptModel batch_bench_model() {
  nn::GptConfig config;
  config.vocab_size = 4096;
  config.ctx_len = 96;
  config.d_model = 1024;
  config.n_heads = 16;
  config.n_layers = 4;
  config.d_ff = 4096;
  nn::GptModel model(config);
  util::Rng rng(7);
  model.init_weights(rng);
  return model;
}

/// Median of raw samples (seconds).
double median_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return util::metrics::percentile_sorted(samples, 0.50);
}

/// Median of the per-pair ratios `baseline[i] / candidate[i]` (seconds of
/// interleaved repeats). Each ratio compares two timings taken back to
/// back, so a shift in host memory bandwidth between repeats moves both
/// sides of a pair instead of flipping a gate's verdict.
double median_pair_ratio(const std::vector<double>& baseline,
                         const std::vector<double>& candidate) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < baseline.size() && i < candidate.size(); ++i) {
    if (candidate[i] > 0.0) ratios.push_back(baseline[i] / candidate[i]);
  }
  return median_of(std::move(ratios));
}

/// Batched-decode gate: greedy decode throughput of `nn::BatchedInference`
/// at B = 1/2/4 concurrent sequences on the decode-bound batch model (see
/// `batch_bench_model()`), with ragged prompt lengths so slots genuinely
/// sit at different positions. Every slot's final logits are compared
/// bitwise against a serial `nn::GptInference` oracle fed the identical
/// token sequence — the batched path must never trade correctness for
/// throughput. A second scenario drives the continuous-batching
/// `nn::DecodeEngine` (on the small E8 model, where wall-clock is cheap)
/// with more requests than slots, reporting the batch-occupancy
/// distribution the admission loop achieved. Gate: the median over
/// interleaved B=1/B=4 repeat pairs of their tokens/s ratio must be
/// >= 1.5x.
json::Value smoke_batch() {
  nn::GptModel model = batch_bench_model();
  const std::size_t vocab = model.config().vocab_size;
  constexpr std::size_t kPrompt = 8, kDecodeSteps = 16, kPairs = 5;
  constexpr std::size_t kMaxBatch = 4;
  const std::size_t kBatches[] = {1, 2, 4};

  // Ragged prompts: slot s gets kPrompt + 4*s tokens.
  util::Rng rng(505);
  std::vector<std::vector<nn::Token>> prompts(kMaxBatch);
  for (std::size_t s = 0; s < kMaxBatch; ++s) {
    prompts[s].resize(kPrompt + 4 * s);
    for (auto& t : prompts[s]) t = static_cast<nn::Token>(rng.next_below(vocab));
  }
  const auto argmax_token = [](const std::vector<float>& logits) {
    return static_cast<nn::Token>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  };

  // Serial oracle: per slot, feed the prompt then greedy-decode the same
  // number of steps; the batched path must reproduce these bits exactly.
  std::vector<std::vector<float>> oracle_logits(kMaxBatch);
  std::vector<std::vector<nn::Token>> oracle_tokens(kMaxBatch);
  for (std::size_t s = 0; s < kMaxBatch; ++s) {
    nn::GptInference inference(model);
    const std::vector<float>* logits = &inference.prompt(prompts[s]);
    for (std::size_t step = 0; step < kDecodeSteps; ++step) {
      const nn::Token next = argmax_token(*logits);
      oracle_tokens[s].push_back(next);
      logits = &inference.step(next);
    }
    oracle_logits[s] = *logits;
  }

  // One timing: a fresh batch of `b` slots, an untimed ragged prefill,
  // then a timed greedy decode whose final logits are checked bitwise
  // against the serial oracle.
  std::vector<bool> identical(kMaxBatch + 1, true);
  const auto timed_decode = [&](std::size_t b) {
    nn::BatchedInference bi(model, b);
    // Ragged batched prefill: feed slot s while its prompt still has
    // tokens at position t.
    std::vector<std::size_t> slots;
    std::vector<nn::Token> feed;
    std::size_t longest = 0;
    for (std::size_t s = 0; s < b; ++s) longest = std::max(longest, prompts[s].size());
    for (std::size_t t = 0; t < longest; ++t) {
      slots.clear();
      feed.clear();
      for (std::size_t s = 0; s < b; ++s) {
        if (t < prompts[s].size()) {
          slots.push_back(s);
          feed.push_back(prompts[s][t]);
        }
      }
      bi.step(slots.data(), feed.data(), slots.size());
    }
    // Timed greedy decode: one shared step advances every slot.
    slots.resize(b);
    feed.resize(b);
    for (std::size_t s = 0; s < b; ++s) slots[s] = s;
    util::Stopwatch watch;
    for (std::size_t step = 0; step < kDecodeSteps; ++step) {
      for (std::size_t s = 0; s < b; ++s) feed[s] = argmax_token(bi.logits(s));
      bi.step(slots.data(), feed.data(), b);
    }
    const double seconds = watch.seconds();
    for (std::size_t s = 0; s < b; ++s) {
      const std::vector<float>& logits = bi.logits(s);
      if (logits.size() != oracle_logits[s].size() ||
          std::memcmp(logits.data(), oracle_logits[s].data(),
                      logits.size() * sizeof(float)) != 0 ||
          !std::equal(oracle_tokens[s].begin(), oracle_tokens[s].end(),
                      bi.history(s).end() - static_cast<std::ptrdiff_t>(kDecodeSteps))) {
        identical[b] = false;
      }
    }
    return seconds;
  };

  // Interleaved repeats, the batch sizes' order reversed every other pair;
  // the gate reads the median of the per-pair B=4/B=1 ratios.
  std::vector<std::vector<double>> seconds(kMaxBatch + 1);
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    for (std::size_t i = 0; i < std::size(kBatches); ++i) {
      const std::size_t b = kBatches[pair % 2 == 0 ? i : std::size(kBatches) - 1 - i];
      seconds[b].push_back(timed_decode(b));
    }
  }
  // tokens/s ratio of B=4 to B=1 = 4 * t(B=1) / t(B=4) per pair.
  std::vector<double> b1_scaled;
  for (const double t : seconds[1]) b1_scaled.push_back(4.0 * t);
  const double speedup_b4 = median_pair_ratio(b1_scaled, seconds[4]);

  json::Value batch_reports = json::Value::array();
  bool bit_identical = true;
  double tps_b1 = 0.0, tps_b4 = 0.0;
  for (const std::size_t b : kBatches) {
    bit_identical = bit_identical && identical[b];
    const double median_seconds = median_of(seconds[b]);
    const double tps = static_cast<double>(b * kDecodeSteps) / median_seconds;
    if (b == 1) tps_b1 = tps;
    if (b == 4) tps_b4 = tps;
    json::Value r = json::Value::object();
    r.set("batch", static_cast<std::int64_t>(b));
    r.set("decode_steps", static_cast<std::int64_t>(kDecodeSteps));
    r.set("seconds", median_seconds);
    r.set("tokens_per_s", tps);
    r.set("bit_identical", static_cast<bool>(identical[b]));
    batch_reports.push_back(std::move(r));
  }

  // Continuous-batching engine scenario: 2x more requests than slots, all
  // submitted concurrently, so admissions happen mid-flight of other
  // sequences and the occupancy histogram shows how full the steps ran.
  auto& reg = util::metrics::registry();
  (void)reg.histogram("decode.batch_occupancy").snapshot_and_reset();
  const std::uint64_t steps_before = reg.counter("decode.steps").value();
  const std::uint64_t tokens_before = reg.counter("decode.tokens").value();
  constexpr std::size_t kEngineSlots = 4, kEngineRequests = 8, kEngineDecode = 8;
  nn::GptModel engine_model = bench_model();
  std::vector<std::vector<nn::Token>> engine_prompts(kEngineRequests);
  for (std::size_t r = 0; r < kEngineRequests; ++r) {
    engine_prompts[r].resize(12 + 4 * r);
    for (auto& t : engine_prompts[r]) {
      t = static_cast<nn::Token>(rng.next_below(engine_model.config().vocab_size));
    }
  }
  {
    nn::DecodeEngine engine(engine_model, kEngineSlots);
    std::vector<std::thread> submitters;
    submitters.reserve(kEngineRequests);
    for (std::size_t r = 0; r < kEngineRequests; ++r) {
      submitters.emplace_back([&engine, &engine_prompts, &argmax_token, r] {
        nn::DecodeEngine::Request req;
        req.prompt = engine_prompts[r % engine_prompts.size()];
        std::size_t produced = 0;
        req.on_logits = [&produced, &argmax_token](const std::vector<float>& logits,
                                                   std::size_t) -> nn::Token {
          if (++produced > kEngineDecode) return nn::DecodeEngine::kStopDecoding;
          return argmax_token(logits);
        };
        engine.run(std::move(req));
      });
    }
    for (auto& thread : submitters) thread.join();
  }
  const auto occupancy = reg.histogram("decode.batch_occupancy").snapshot_and_reset();
  const std::uint64_t engine_steps = reg.counter("decode.steps").value() - steps_before;
  const std::uint64_t engine_tokens = reg.counter("decode.tokens").value() - tokens_before;
  json::Value engine_report = json::Value::object();
  engine_report.set("slots", static_cast<std::int64_t>(kEngineSlots));
  engine_report.set("requests", static_cast<std::int64_t>(kEngineRequests));
  engine_report.set("steps", static_cast<std::int64_t>(engine_steps));
  engine_report.set("tokens", static_cast<std::int64_t>(engine_tokens));
  engine_report.set("occupancy_mean",
                    engine_steps > 0 ? static_cast<double>(engine_tokens) /
                                           static_cast<double>(engine_steps)
                                     : 0.0);
  engine_report.set("occupancy_p50", occupancy.p50);
  engine_report.set("occupancy_p95", occupancy.p95);

  json::Value report = json::Value::object();
  report.set("benchmark", "batch_decode");
  report.set("kernel", tensor::kernel_name());
  report.set("model", model_json(model.config()));
  report.set("prompt_tokens", static_cast<std::int64_t>(kPrompt));
  report.set("decode_steps", static_cast<std::int64_t>(kDecodeSteps));
  report.set("batches", std::move(batch_reports));
  report.set("tokens_per_s_b1", tps_b1);
  report.set("tokens_per_s_b4", tps_b4);
  report.set("speedup_b4", speedup_b4);
  report.set("timing_pairs", static_cast<std::int64_t>(kPairs));
  report.set("speedup_gate", 1.5);
  report.set("bit_identical", bit_identical);
  report.set("engine", std::move(engine_report));
  return report;
}

/// Quantised-weight gate. Three measurements on two models:
///  1. decode throughput of the decode-bound batch model (see
///     `batch_bench_model()`: ~218 MB of fp32 weights, far past L2) at
///     fp32 vs bf16 vs int8 storage. Decode is bound by streaming the
///     weight set once per token, so halving the bytes must buy real
///     speed: the median over interleaved fp32/bf16 repeat pairs of their
///     tokens/s ratio must be >= 1.3x — unless dispatch landed on the
///     scalar table, whose fused kernels dequantise through a scratch
///     buffer for bit-identity and are not expected to win.
///  2. MCQ identity: the bf16-quantised eval model must answer every
///     benchmark question exactly like fp32 inference over the same
///     weights rounded through bf16 — quantisation is a storage decision,
///     not a scoring one.
///  3. int8 bounded-delta report: int8 is lossy, so answers may flip; the
///     report records how many did and the accuracy delta vs fp32.
json::Value smoke_quant(const EvalWorld& world) {
  constexpr std::size_t kDecodeSteps = 32, kReps = 3, kPairs = 5;
  const auto argmax_token = [](const std::vector<float>& logits) {
    return static_cast<nn::Token>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  };
  // Seconds for one greedy decode of kDecodeSteps after an untimed warm-up.
  const auto decode_seconds = [&](nn::GptInference& inference) {
    inference.reset();
    const std::vector<float>* logits = &inference.step(42);  // untimed warm-up
    util::Stopwatch watch;
    for (std::size_t step = 0; step < kDecodeSteps; ++step) {
      logits = &inference.step(argmax_token(*logits));
    }
    return watch.seconds();
  };

  // One model per dtype: quantize_weights(kBf16) rounds the fp32 masters in
  // place (embedding lookups must see the same values the fused gemv
  // dequantises), so the fp32 baseline needs its own pristine instance.
  // fp32 and bf16 are timed in interleaved pairs, order reversed every
  // other pair; the gate reads the median of the per-pair ratios.
  double tps_fp32 = 0.0, tps_bf16 = 0.0, tps_int8 = 0.0, bf16_speedup = 0.0;
  json::Value payload = json::Value::object();
  nn::GptConfig decode_config;
  {
    const nn::GptModel fp32_model = batch_bench_model();
    nn::GptModel bf16_model = batch_bench_model();
    bf16_model.quantize_weights(tensor::WeightDtype::kBf16);
    decode_config = fp32_model.config();
    payload.set("bf16_bytes",
                static_cast<std::int64_t>(bf16_model.quant(bf16_model.layout().wte)->bytes()));
    nn::GptInference fp32(fp32_model);
    nn::GptInference bf16(bf16_model);
    std::vector<double> fp32_seconds, bf16_seconds;
    for (std::size_t pair = 0; pair < kPairs; ++pair) {
      if (pair % 2 == 0) {
        fp32_seconds.push_back(decode_seconds(fp32));
        bf16_seconds.push_back(decode_seconds(bf16));
      } else {
        bf16_seconds.push_back(decode_seconds(bf16));
        fp32_seconds.push_back(decode_seconds(fp32));
      }
    }
    bf16_speedup = median_pair_ratio(fp32_seconds, bf16_seconds);
    tps_fp32 = static_cast<double>(kDecodeSteps) / median_of(fp32_seconds);
    tps_bf16 = static_cast<double>(kDecodeSteps) / median_of(bf16_seconds);
  }
  {
    // int8 is reported, not gated: best of kReps.
    nn::GptModel model = batch_bench_model();
    model.quantize_weights(tensor::WeightDtype::kInt8);
    nn::GptInference inference(model);
    double best = 1e30;
    for (std::size_t rep = 0; rep < kReps; ++rep) best = std::min(best, decode_seconds(inference));
    tps_int8 = static_cast<double>(kDecodeSteps) / best;
    payload.set("int8_bytes",
                static_cast<std::int64_t>(model.quant(model.layout().wte)->bytes()));
    payload.set("fp32_bytes",
                static_cast<std::int64_t>(model.quant(model.layout().wte)->rows *
                                          model.quant(model.layout().wte)->cols *
                                          sizeof(float)));
  }

  // MCQ identity on the eval world: rebuild the world's model from its
  // deterministic seed twice — one copy bf16-quantised, one bf16-rounded
  // in fp32 — and the benchmark answers must agree question by question.
  const auto rebuild_model = [&] {
    nn::GptModel model(world.model.config());
    util::Rng rng(64);  // make_eval_world's weight seed
    model.init_weights(rng);
    return model;
  };
  const std::vector<eval::QuestionResult> fp32_results =
      eval::run_token_benchmark(world.model, world.tok, world.mcqs.benchmark,
                                world.mcqs.practice, nullptr, {}, {}, nullptr, nullptr);
  nn::GptModel quantised = rebuild_model();
  quantised.quantize_weights(tensor::WeightDtype::kBf16);
  const std::vector<eval::QuestionResult> bf16_results =
      eval::run_token_benchmark(quantised, world.tok, world.mcqs.benchmark,
                                world.mcqs.practice, nullptr, {}, {}, nullptr, nullptr);
  nn::GptModel rounded = rebuild_model();
  {
    float* p = rounded.params().params();
    const std::size_t n = rounded.params().total_size();
    for (std::size_t i = 0; i < n; ++i) p[i] = tensor::bf16_round(p[i]);
  }
  const std::vector<eval::QuestionResult> rounded_results =
      eval::run_token_benchmark(rounded, world.tok, world.mcqs.benchmark,
                                world.mcqs.practice, nullptr, {}, {}, nullptr, nullptr);
  bool mcq_identical = bf16_results.size() == rounded_results.size();
  for (std::size_t q = 0; mcq_identical && q < bf16_results.size(); ++q) {
    mcq_identical = bf16_results[q].predicted == rounded_results[q].predicted &&
                    bf16_results[q].correct == rounded_results[q].correct;
  }

  nn::GptModel int8_model = rebuild_model();
  int8_model.quantize_weights(tensor::WeightDtype::kInt8);
  const std::vector<eval::QuestionResult> int8_results =
      eval::run_token_benchmark(int8_model, world.tok, world.mcqs.benchmark,
                                world.mcqs.practice, nullptr, {}, {}, nullptr, nullptr);
  std::size_t int8_flips = 0;
  for (std::size_t q = 0; q < int8_results.size() && q < fp32_results.size(); ++q) {
    int8_flips += int8_results[q].predicted != fp32_results[q].predicted ? 1 : 0;
  }
  const double int8_accuracy = eval::summarize(int8_results).accuracy;
  const double fp32_accuracy = eval::summarize(fp32_results).accuracy;

  json::Value report = json::Value::object();
  report.set("benchmark", "quant_weights");
  report.set("kernel", tensor::kernel_name());
  report.set("model", model_json(world.model.config()));
  report.set("decode_model", model_json(decode_config));
  report.set("decode_steps", static_cast<std::int64_t>(kDecodeSteps));
  report.set("tokens_per_s_fp32", tps_fp32);
  report.set("tokens_per_s_bf16", tps_bf16);
  report.set("tokens_per_s_int8", tps_int8);
  report.set("bf16_speedup", bf16_speedup);
  report.set("timing_pairs", static_cast<std::int64_t>(kPairs));
  report.set("int8_speedup", tps_fp32 > 0.0 ? tps_int8 / tps_fp32 : 0.0);
  report.set("bf16_speedup_gate", 1.3);
  report.set("wte_payload", std::move(payload));
  report.set("mcq_questions", static_cast<std::int64_t>(world.mcqs.benchmark.size()));
  report.set("mcq_identical_bf16", mcq_identical);
  report.set("int8_answer_flips", static_cast<std::int64_t>(int8_flips));
  report.set("int8_accuracy", int8_accuracy);
  report.set("fp32_accuracy", fp32_accuracy);
  report.set("int8_accuracy_delta", int8_accuracy - fp32_accuracy);
  return report;
}

/// Paged-KV gate: 64 sessions forked from one ~200-token shared prefix,
/// each decoding 8 greedy tokens, contiguous (memcpy fork, full-context
/// buffers) vs paged (copy-on-write block arena). Two contracts:
///  * every paged session's greedy token stream and final logits are
///    bitwise identical to its contiguous twin — paging is invisible at
///    the bit level;
///  * tracked KV bytes per live session are >= 4x lower paged than
///    contiguous, because the prefix blocks are refcounted once and each
///    session privately owns only the boundary block its decode dirtied.
json::Value smoke_kv() {
  nn::GptModel model = bench_model();
  const nn::GptConfig& config = model.config();
  constexpr std::size_t kPrefix = 200, kSessions = 64, kDecode = 8;
  constexpr std::size_t kBlockTokens = 16;
  util::Rng rng(909);
  std::vector<nn::Token> prefix(kPrefix);
  for (auto& t : prefix) t = static_cast<nn::Token>(rng.next_below(config.vocab_size));
  const auto argmax_token = [](const std::vector<float>& logits) {
    return static_cast<nn::Token>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  };
  auto& budget = util::ResourceBudget::instance();

  // Contiguous baseline: memcpy forks, all sessions live at once so the
  // per-session figure reflects genuine concurrent residency.
  std::vector<std::vector<nn::Token>> oracle_tokens(kSessions);
  std::vector<std::vector<float>> oracle_logits(kSessions);
  std::size_t contiguous_bytes = 0;
  double contiguous_seconds = 0.0;
  {
    nn::GptInference encoder(model);
    encoder.prompt(prefix);
    const nn::KvSnapshot snap = encoder.snapshot();
    const std::size_t kv_base = budget.domain_bytes(util::MemoryDomain::kKvCache);
    std::vector<nn::GptInference> sessions;
    sessions.reserve(kSessions);
    util::Stopwatch watch;
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.emplace_back(model);
      sessions.back().fork_from(snap);
      // Distinct first token per session, then greedy: 64 diverging
      // conversations over one shared prefix.
      nn::Token token = static_cast<nn::Token>(1 + s);
      const std::vector<float>* logits = nullptr;
      for (std::size_t step = 0; step < kDecode; ++step) {
        oracle_tokens[s].push_back(token);
        logits = &sessions.back().step(token);
        token = argmax_token(*logits);
      }
      oracle_logits[s] = *logits;
    }
    contiguous_seconds = watch.seconds();
    contiguous_bytes = budget.domain_bytes(util::MemoryDomain::kKvCache) - kv_base;
  }

  // Paged run: same prefix encoded once into a shared arena, 64 forks that
  // adopt the prefix blocks by refcount and copy-on-write only what their
  // decode touches.
  bool bit_identical = true;
  std::size_t paged_bytes = 0, arena_bytes = 0, live_blocks = 0;
  double paged_seconds = 0.0;
  bool arena_drained = false;
  {
    auto arena = std::make_shared<nn::KvArena>(kBlockTokens, config.d_model);
    const std::size_t kv_base = budget.domain_bytes(util::MemoryDomain::kKvCache);
    {
      nn::GptInference encoder(model, arena);
      encoder.prompt(prefix);
      const nn::KvSnapshot snap = encoder.snapshot();
      std::vector<nn::GptInference> sessions;
      sessions.reserve(kSessions);
      util::Stopwatch watch;
      for (std::size_t s = 0; s < kSessions; ++s) {
        sessions.emplace_back(model, arena);
        sessions.back().fork_from(snap);
        nn::Token token = static_cast<nn::Token>(1 + s);
        const std::vector<float>* logits = nullptr;
        for (std::size_t step = 0; step < kDecode; ++step) {
          if (token != oracle_tokens[s][step]) bit_identical = false;
          logits = &sessions.back().step(token);
          token = argmax_token(*logits);
        }
        if (logits->size() != oracle_logits[s].size() ||
            std::memcmp(logits->data(), oracle_logits[s].data(),
                        logits->size() * sizeof(float)) != 0) {
          bit_identical = false;
        }
      }
      paged_seconds = watch.seconds();
      paged_bytes = budget.domain_bytes(util::MemoryDomain::kKvCache) - kv_base;
      arena_bytes = arena->total_bytes();
      live_blocks = arena->live_blocks();
    }
    // Everything released: the arena must drain to zero, or forks leak
    // refcounts that keep retired prefixes resident forever.
    arena_drained = arena->live_blocks() == 0 && arena->total_bytes() == 0;
  }

  const double contiguous_per_session =
      static_cast<double>(contiguous_bytes) / static_cast<double>(kSessions);
  const double paged_per_session =
      static_cast<double>(paged_bytes) / static_cast<double>(kSessions);
  json::Value report = json::Value::object();
  report.set("benchmark", "paged_kv");
  report.set("kernel", tensor::kernel_name());
  report.set("model", model_json(config));
  report.set("prefix_tokens", static_cast<std::int64_t>(kPrefix));
  report.set("sessions", static_cast<std::int64_t>(kSessions));
  report.set("decode_steps", static_cast<std::int64_t>(kDecode));
  report.set("block_tokens", static_cast<std::int64_t>(kBlockTokens));
  report.set("contiguous_bytes", static_cast<std::int64_t>(contiguous_bytes));
  report.set("contiguous_bytes_per_session", contiguous_per_session);
  report.set("contiguous_seconds", contiguous_seconds);
  report.set("paged_bytes", static_cast<std::int64_t>(paged_bytes));
  report.set("paged_bytes_per_session", paged_per_session);
  report.set("paged_seconds", paged_seconds);
  report.set("arena_bytes", static_cast<std::int64_t>(arena_bytes));
  report.set("arena_live_blocks", static_cast<std::int64_t>(live_blocks));
  report.set("memory_ratio",
             paged_per_session > 0.0 ? contiguous_per_session / paged_per_session : 0.0);
  report.set("memory_gate", 4.0);
  report.set("fork_bit_identical", bit_identical);
  report.set("arena_drained", arena_drained);
  return report;
}

/// Kernel-level GEMM gate: times the dispatched `tensor::sgemm` against the
/// scalar reference loops (`tensor::sgemm_reference`) on the linear-layer
/// shapes of the E8 bench model — qkv projection, MLP fc, lm-head prefill,
/// and the m=1 lm-head decode step — and checks both that the outputs agree
/// within tolerance and that the dispatched path is not slower. All four are
/// the `y = x * W^T` layout (trans_b) every linear layer uses.
json::Value smoke_gemm() {
  struct Shape {
    const char* name;
    std::size_t m, n, k;
  };
  // d_model=80, qkv=3*80, d_ff=320, vocab=768, bt=4*256 (from bench_model()).
  const Shape shapes[] = {
      {"qkv_proj", 1024, 240, 80},
      {"mlp_fc", 1024, 320, 80},
      {"lm_head", 1024, 768, 80},
      {"lm_head_decode", 1, 768, 80},
  };
  constexpr std::size_t kReps = 3;
  constexpr double kTargetFlopsPerRep = 6e7;  // ~10ms/rep on the scalar path

  util::Rng rng(77);
  json::Value shape_reports = json::Value::array();
  double min_speedup = 1e30;
  bool all_match = true;
  for (const Shape& s : shapes) {
    std::vector<float> a(s.m * s.k), b(s.n * s.k);
    std::vector<float> c_disp(s.m * s.n, 0.0f), c_ref(s.m * s.n, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.next_gaussian());
    for (float& v : b) v = static_cast<float>(rng.next_gaussian());
    const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;
    const std::size_t iters =
        std::max<std::size_t>(1, static_cast<std::size_t>(kTargetFlopsPerRep / flops));

    double disp_seconds = 1e30, ref_seconds = 1e30;
    std::vector<double> iter_seconds;  // dispatched per-iteration samples, all reps
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      util::Stopwatch watch;
      for (std::size_t it = 0; it < iters; ++it) {
        util::Stopwatch iter_watch;
        tensor::sgemm(false, true, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.k,
                      0.0f, c_disp.data(), s.n);
        iter_seconds.push_back(iter_watch.seconds());
      }
      disp_seconds = std::min(disp_seconds, watch.seconds());
    }
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      util::Stopwatch watch;
      for (std::size_t it = 0; it < iters; ++it) {
        tensor::sgemm_reference(false, true, s.m, s.n, s.k, 1.0f, a.data(), s.k,
                                b.data(), s.k, 0.0f, c_ref.data(), s.n);
      }
      ref_seconds = std::min(ref_seconds, watch.seconds());
    }

    double max_rel_err = 0.0;
    for (std::size_t i = 0; i < c_disp.size(); ++i) {
      const double err = std::abs(static_cast<double>(c_disp[i]) - c_ref[i]) /
                         (1.0 + std::abs(static_cast<double>(c_ref[i])));
      max_rel_err = std::max(max_rel_err, err);
    }
    const bool matches = max_rel_err < 2e-3;
    all_match = all_match && matches;

    const double per_iter = static_cast<double>(iters);
    const double disp_gflops = flops * per_iter / disp_seconds * 1e-9;
    const double ref_gflops = flops * per_iter / ref_seconds * 1e-9;
    const double speedup = disp_gflops / ref_gflops;
    min_speedup = std::min(min_speedup, speedup);

    json::Value r = json::Value::object();
    r.set("name", s.name);
    r.set("m", static_cast<std::int64_t>(s.m));
    r.set("n", static_cast<std::int64_t>(s.n));
    r.set("k", static_cast<std::int64_t>(s.k));
    r.set("trans_b", true);
    r.set("iterations", static_cast<std::int64_t>(iters));
    r.set("reference_gflops", ref_gflops);
    r.set("dispatched_gflops", disp_gflops);
    r.set("speedup", speedup);
    r.set("max_rel_err", max_rel_err);
    r.set("matches_reference", matches);
    r.set("latency", latency_json(iter_seconds));
    shape_reports.push_back(std::move(r));
  }

  json::Value report = json::Value::object();
  report.set("benchmark", "gemm_kernels");
  report.set("kernel", tensor::kernel_name());
  report.set("shapes", std::move(shape_reports));
  report.set("min_speedup", min_speedup);
  report.set("all_match_reference", all_match);
  return report;
}

/// Writes a report file, failing loudly instead of aborting the process:
/// a BENCH artifact that silently vanished (or a propagating IoError that
/// killed the bench mid-suite) would read as "gate never ran" in CI.
bool write_report(const std::filesystem::path& path, const std::string& text) {
  try {
    util::write_text_file(path, text);
    return true;
  } catch (const util::IoError& e) {
    std::cerr << "FAIL " << path.string() << ": report not written: " << e.what() << '\n';
    return false;
  }
}

/// Gate for BENCH_gemm.json: must re-parse, every shape must match the
/// scalar reference, and — unless runtime dispatch landed on the scalar
/// kernel itself — the dispatched path must not be slower than it.
bool emit_and_check_gemm(const json::Value& report, const std::filesystem::path& path) {
  if (!write_report(path, report.dump(2) + "\n")) return false;
  json::Value parsed;
  try {
    parsed = json::parse(util::read_text_file(path));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << path.string() << ": emitted JSON does not re-parse: " << e.what()
              << '\n';
    return false;
  }
  const std::string kernel = parsed.get_string("kernel", "");
  const double min_speedup = parsed.get_number("min_speedup", 0.0);
  std::cout << path.filename().string() << ": kernel=" << kernel << ", min speedup "
            << min_speedup << "x vs scalar reference, all_match_reference="
            << (parsed.get_bool("all_match_reference", false) ? "true" : "false") << '\n';
  if (!parsed.get_bool("all_match_reference", false)) {
    std::cerr << "FAIL " << path.string()
              << ": dispatched kernel diverged from scalar reference\n";
    return false;
  }
  if (kernel != "scalar" && min_speedup < 1.0) {
    std::cerr << "FAIL " << path.string() << ": dispatched kernel slower than scalar "
              << "reference (min speedup " << min_speedup << " < 1.0)\n";
    return false;
  }
  return true;
}

/// Writes one report, re-parses it from disk, and applies the regression
/// gates. Returns false (after printing why) on any violation.
bool emit_and_check(const json::Value& report, const std::filesystem::path& path,
                    const char* identity_key) {
  if (!write_report(path, report.dump(2) + "\n")) return false;
  json::Value parsed;
  try {
    parsed = json::parse(util::read_text_file(path));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << path.string() << ": emitted JSON does not re-parse: " << e.what()
              << '\n';
    return false;
  }
  const double speedup = parsed.get_number("warm_cold_speedup", 0.0);
  const bool identical = parsed.get_bool(identity_key, false);
  std::cout << path.filename().string() << ": warm/cold speedup " << speedup
            << "x, reuse ratio " << parsed.get_number("prefill_reuse_ratio", 0.0) << ", "
            << identity_key << "=" << (identical ? "true" : "false") << '\n';
  if (speedup < 1.0) {
    std::cerr << "FAIL " << path.string() << ": warm path slower than cold (speedup "
              << speedup << " < 1.0)\n";
    return false;
  }
  if (!identical) {
    std::cerr << "FAIL " << path.string() << ": cached path no longer bit-identical\n";
    return false;
  }
  return true;
}

/// Gate for BENCH_trace.json: must re-parse, the trace document must be
/// valid JSON, scores must be identical with tracing on, and the estimated
/// disabled-tracing overhead must stay under the 2% budget.
bool emit_and_check_trace(const json::Value& report, const std::filesystem::path& path) {
  if (!write_report(path, report.dump(2) + "\n")) return false;
  json::Value parsed;
  try {
    parsed = json::parse(util::read_text_file(path));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << path.string() << ": emitted JSON does not re-parse: " << e.what()
              << '\n';
    return false;
  }
  const double overhead = parsed.get_number("estimated_overhead_fraction", 1.0);
  const double budget = parsed.get_number("overhead_budget", 0.02);
  std::cout << path.filename().string() << ": " << parsed.get_number("ns_per_disabled_span", 0.0)
            << " ns/disabled span, " << parsed.get_number("spans_per_question", 0.0)
            << " spans/question, estimated overhead " << overhead * 100.0 << "% (budget "
            << budget * 100.0 << "%)\n";
  if (!parsed.get_bool("trace_doc_parses", false)) {
    std::cerr << "FAIL " << path.string() << ": trace document is not valid JSON\n";
    return false;
  }
  if (!parsed.get_bool("scores_identical_with_tracing", false)) {
    std::cerr << "FAIL " << path.string() << ": scores changed with tracing enabled\n";
    return false;
  }
  if (overhead >= budget) {
    std::cerr << "FAIL " << path.string() << ": disabled-tracing overhead " << overhead
              << " exceeds budget " << budget << '\n';
    return false;
  }
  return true;
}

/// Gate for BENCH_batch.json: must re-parse, the batched logits must be
/// bitwise identical to the serial oracle at every batch size, and batched
/// decode must actually pay off — tokens/s at B=4 >= 1.5x B=1.
bool emit_and_check_batch(const json::Value& report, const std::filesystem::path& path) {
  if (!write_report(path, report.dump(2) + "\n")) return false;
  json::Value parsed;
  try {
    parsed = json::parse(util::read_text_file(path));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << path.string() << ": emitted JSON does not re-parse: " << e.what()
              << '\n';
    return false;
  }
  const double speedup = parsed.get_number("speedup_b4", 0.0);
  const double gate = parsed.get_number("speedup_gate", 1.5);
  std::cout << path.filename().string() << ": B=1 " << parsed.get_number("tokens_per_s_b1", 0.0)
            << " tok/s, B=4 " << parsed.get_number("tokens_per_s_b4", 0.0) << " tok/s ("
            << speedup << "x, gate " << gate << "x), bit_identical="
            << (parsed.get_bool("bit_identical", false) ? "true" : "false") << '\n';
  if (!parsed.get_bool("bit_identical", false)) {
    std::cerr << "FAIL " << path.string()
              << ": batched decode diverged bitwise from the serial oracle\n";
    return false;
  }
  if (speedup < gate) {
    std::cerr << "FAIL " << path.string() << ": batched decode speedup " << speedup
              << "x at B=4 below the " << gate << "x gate\n";
    return false;
  }
  return true;
}

/// Gate for BENCH_quant.json: must re-parse, bf16 answers must match the
/// bf16-rounded fp32 reference exactly, and — unless dispatch landed on
/// the scalar table, whose fused kernels trade speed for oracle
/// bit-identity — bf16 decode must beat fp32 by the gate factor. int8 is
/// lossy by design: its answer flips and accuracy delta are reported, not
/// gated.
bool emit_and_check_quant(const json::Value& report, const std::filesystem::path& path) {
  if (!write_report(path, report.dump(2) + "\n")) return false;
  json::Value parsed;
  try {
    parsed = json::parse(util::read_text_file(path));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << path.string() << ": emitted JSON does not re-parse: " << e.what()
              << '\n';
    return false;
  }
  const std::string kernel = parsed.get_string("kernel", "");
  const double speedup = parsed.get_number("bf16_speedup", 0.0);
  const double gate = parsed.get_number("bf16_speedup_gate", 1.3);
  std::cout << path.filename().string() << ": fp32 "
            << parsed.get_number("tokens_per_s_fp32", 0.0) << " tok/s, bf16 "
            << parsed.get_number("tokens_per_s_bf16", 0.0) << " tok/s (" << speedup
            << "x, gate " << gate << "x), int8 "
            << parsed.get_number("tokens_per_s_int8", 0.0) << " tok/s, mcq_identical_bf16="
            << (parsed.get_bool("mcq_identical_bf16", false) ? "true" : "false")
            << ", int8 flips " << parsed.get_number("int8_answer_flips", -1.0)
            << " (accuracy delta " << parsed.get_number("int8_accuracy_delta", 0.0) << ")\n";
  if (!parsed.get_bool("mcq_identical_bf16", false)) {
    std::cerr << "FAIL " << path.string()
              << ": bf16-quantised answers diverged from the bf16-rounded fp32 reference\n";
    return false;
  }
  if (parsed.get_number("int8_answer_flips", -1.0) < 0.0) {
    std::cerr << "FAIL " << path.string() << ": int8 bounded-delta report missing\n";
    return false;
  }
  if (kernel != "scalar" && speedup < gate) {
    std::cerr << "FAIL " << path.string() << ": bf16 decode speedup " << speedup
              << "x below the " << gate << "x gate\n";
    return false;
  }
  return true;
}

/// Gate for BENCH_kv.json: must re-parse, paged forks must be bitwise
/// identical to the contiguous memcpy oracle, per-session KV bytes must be
/// >= 4x lower paged than contiguous at 64 live sessions, and the arena
/// must drain to zero blocks when the sessions go away.
bool emit_and_check_kv(const json::Value& report, const std::filesystem::path& path) {
  if (!write_report(path, report.dump(2) + "\n")) return false;
  json::Value parsed;
  try {
    parsed = json::parse(util::read_text_file(path));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << path.string() << ": emitted JSON does not re-parse: " << e.what()
              << '\n';
    return false;
  }
  const double ratio = parsed.get_number("memory_ratio", 0.0);
  const double gate = parsed.get_number("memory_gate", 4.0);
  std::cout << path.filename().string() << ": "
            << parsed.get_number("sessions", 0.0) << " sessions, contiguous "
            << parsed.get_number("contiguous_bytes_per_session", 0.0)
            << " B/session vs paged " << parsed.get_number("paged_bytes_per_session", 0.0)
            << " B/session (" << ratio << "x, gate " << gate << "x), fork_bit_identical="
            << (parsed.get_bool("fork_bit_identical", false) ? "true" : "false")
            << ", arena_drained="
            << (parsed.get_bool("arena_drained", false) ? "true" : "false") << '\n';
  if (!parsed.get_bool("fork_bit_identical", false)) {
    std::cerr << "FAIL " << path.string()
              << ": paged forks diverged bitwise from the contiguous oracle\n";
    return false;
  }
  if (!parsed.get_bool("arena_drained", false)) {
    std::cerr << "FAIL " << path.string() << ": arena kept live blocks after teardown\n";
    return false;
  }
  if (ratio < gate) {
    std::cerr << "FAIL " << path.string() << ": paged KV memory ratio " << ratio
              << "x below the " << gate << "x gate\n";
    return false;
  }
  return true;
}

int run_smoke(const std::filesystem::path& out_dir) {
  std::filesystem::create_directories(out_dir);
  bool ok = emit_and_check_gemm(smoke_gemm(), out_dir / "BENCH_gemm.json");
  ok = emit_and_check(smoke_prefill(), out_dir / "BENCH_prefill.json", "bit_identical") && ok;
  ok = emit_and_check_batch(smoke_batch(), out_dir / "BENCH_batch.json") && ok;
  ok = emit_and_check_kv(smoke_kv(), out_dir / "BENCH_kv.json") && ok;
  const EvalWorld world = make_eval_world();
  ok = emit_and_check_quant(smoke_quant(world), out_dir / "BENCH_quant.json") && ok;
  double cold_seconds_per_question = 0.0;
  std::vector<eval::QuestionResult> cold_results;
  ok = emit_and_check(smoke_eval(world, &cold_seconds_per_question, &cold_results),
                      out_dir / "BENCH_eval.json", "scores_identical") &&
       ok;
  ok = emit_and_check_trace(smoke_trace(world, cold_seconds_per_question, cold_results),
                            out_dir / "BENCH_trace.json") &&
       ok;
  std::cout << (ok ? "smoke bench OK" : "smoke bench FAILED") << '\n';
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --chaos-soak: the full three-method pipeline under a seeded fault schedule.
//
// Runs token-base, token-instruct and full-instruct on the synthetic eval
// world with journals, parallel workers and the prefix cache, while the
// chaos scheduler injects write faults / torn appends, read faults and
// allocation pressure at the question boundary. The run must finish (never
// abort), every question must be accounted for
// (answered + degraded-only + shed + parse-unanswered == total), and the
// journal left behind must reload CRC-clean with every surviving line
// bit-identical to the in-memory result. Violations exit nonzero.

/// Verifies one method's results + journal after the fault schedule is
/// disarmed, appending its report object to `methods`.
bool check_soak_method(const char* name, const std::vector<eval::QuestionResult>& results,
                       const eval::SupervisorStats& stats,
                       const std::filesystem::path& journal_path, std::size_t total,
                       json::Value& methods) {
  const eval::ScoreSummary summary = eval::summarize(results);
  const std::size_t answered = summary.total - summary.unanswered;
  // Full accounting: every question is exactly one of answered, degraded
  // (shed split out), or unanswered-by-extraction; nothing vanished.
  const bool accounted = summary.total == total && summary.shed <= summary.degraded &&
                         summary.degraded <= summary.unanswered &&
                         answered + (summary.degraded - summary.shed) + summary.shed +
                                 (summary.unanswered - summary.degraded) ==
                             total;

  // Reload the journal (injector disarmed by the caller): corrupted lines
  // — torn appends, merges — are dropped by the CRC check; every survivor
  // must match the in-memory result exactly.
  eval::EvalJournal reloaded(journal_path);
  std::size_t recovered = 0;
  bool consistent = true;
  for (std::size_t q = 0; q < total; ++q) {
    const auto entry = reloaded.lookup(q);
    if (!entry) continue;
    ++recovered;
    const eval::QuestionResult& r = results[q];
    consistent = consistent && entry->predicted == r.predicted &&
                 entry->correct == r.correct && entry->tier == r.tier &&
                 entry->method == r.method && entry->retries == r.retries &&
                 entry->degraded == r.degraded && entry->shed == r.shed;
  }
  consistent = consistent && reloaded.size() == recovered;  // no stray entries

  json::Value m = json::Value::object();
  m.set("method", name);
  m.set("total", static_cast<std::int64_t>(summary.total));
  m.set("answered", static_cast<std::int64_t>(answered));
  m.set("unanswered", static_cast<std::int64_t>(summary.unanswered));
  m.set("degraded", static_cast<std::int64_t>(summary.degraded));
  m.set("shed", static_cast<std::int64_t>(summary.shed));
  m.set("retried", static_cast<std::int64_t>(summary.retried));
  m.set("accuracy", summary.accuracy);
  m.set("cache_evictions", static_cast<std::int64_t>(stats.cache_evictions));
  m.set("parallelism_reductions", static_cast<std::int64_t>(stats.parallelism_reductions));
  m.set("journal_recovered", static_cast<std::int64_t>(recovered));
  m.set("journal_consistent", consistent);
  m.set("accounted", accounted);
  methods.push_back(std::move(m));

  std::cout << "chaos soak " << name << ": " << answered << " answered, "
            << summary.degraded << " degraded (" << summary.shed << " shed), "
            << summary.retried << " retried, " << stats.cache_evictions << " evictions, "
            << recovered << "/" << total << " journal lines recovered\n";
  if (!accounted) {
    std::cerr << "FAIL chaos soak " << name << ": question accounting violated (total="
              << summary.total << " expected=" << total << ")\n";
  }
  if (!consistent) {
    std::cerr << "FAIL chaos soak " << name
              << ": reloaded journal disagrees with in-memory results\n";
  }
  return accounted && consistent;
}

int run_chaos_soak(const std::filesystem::path& out_dir, std::uint64_t seed, double rate) {
  std::filesystem::create_directories(out_dir);
  // A larger question set than the smoke world: the soak's value is fault
  // coverage, and at ~1 attempt per question the schedule needs enough
  // draws for both fault flavours to actually land. 5 of each topic's 6
  // facts go to the benchmark, leaving a practice pool for the few-shot
  // block.
  const EvalWorld world = make_eval_world(/*questions_per_topic=*/5);
  const std::size_t total = world.mcqs.benchmark.size();
  std::cout << "chaos soak: seed=" << seed << " rate=" << rate << " questions=" << total
            << " workers=3 prefix_cache=on\n";

  // Raw-acquisition faults stay off (setup allocations have no fault
  // domain); the eval seam still injects allocation pressure, which is
  // what drives the degradation ladder.
  util::ChaosConfig chaos;
  chaos.seed = seed;
  chaos.rate = rate;
  chaos.allocs = false;

  eval::EvalRunOptions opts;
  opts.workers = 3;
  opts.prefix_cache = true;
  opts.retry.max_retries = 3;
  opts.retry.backoff_initial_ms = 0.5;  // keep the soak fast under ctest
  opts.retry.backoff_max_ms = 2.0;

  bool ok = true;
  json::Value methods = json::Value::array();
  const struct {
    const char* name;
    bool full_instruct;
  } kMethods[] = {{"token_base", false}, {"token_instruct", false}, {"full_instruct", true}};
  for (const auto& method : kMethods) {
    const std::filesystem::path journal_path =
        out_dir / (std::string("chaos_") + method.name + ".jsonl");
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);  // fresh run, not a replay
    eval::EvalJournal journal(journal_path);
    eval::SupervisorStats stats;
    std::vector<eval::QuestionResult> results;
    // Each method re-arms the schedule, so its fault sequence depends only
    // on (seed, rate), not on what ran before it.
    util::FaultInjector::instance().arm_chaos(chaos);
    try {
      if (method.full_instruct) {
        results = eval::run_full_instruct_benchmark(world.model, world.tok,
                                                    world.mcqs.benchmark, {}, &journal,
                                                    opts, nullptr, &stats);
      } else {
        results = eval::run_token_benchmark(world.model, world.tok, world.mcqs.benchmark,
                                            world.mcqs.practice, &journal, {}, opts,
                                            nullptr, &stats);
      }
      util::FaultInjector::instance().disarm();
    } catch (const std::exception& e) {
      util::FaultInjector::instance().disarm();
      std::cerr << "FAIL chaos soak " << method.name
                << ": pipeline aborted instead of degrading: " << e.what() << '\n';
      ok = false;
      continue;
    }
    ok = check_soak_method(method.name, results, stats, journal_path, total, methods) && ok;
  }

  json::Value report = json::Value::object();
  report.set("benchmark", "chaos_soak");
  report.set("kernel", tensor::kernel_name());
  report.set("chaos_seed", static_cast<std::int64_t>(seed));
  report.set("chaos_rate", rate);
  report.set("questions", static_cast<std::int64_t>(total));
  report.set("workers", static_cast<std::int64_t>(opts.workers));
  report.set("methods", std::move(methods));
  auto& reg = util::metrics::registry();
  json::Value faults = json::Value::object();
  faults.set("write", static_cast<std::int64_t>(reg.counter("chaos.write_faults").value()));
  faults.set("read", static_cast<std::int64_t>(reg.counter("chaos.read_faults").value()));
  faults.set("alloc", static_cast<std::int64_t>(reg.counter("chaos.alloc_faults").value()));
  faults.set("eval", static_cast<std::int64_t>(reg.counter("chaos.eval_faults").value()));
  report.set("injected_faults", std::move(faults));
  json::Value memory = json::Value::object();
  memory.set("limit_bytes",
             static_cast<std::int64_t>(util::ResourceBudget::instance().limit_bytes()));
  memory.set("peak_tracked_bytes",
             static_cast<std::int64_t>(util::ResourceBudget::instance().peak_bytes()));
  memory.set("denials", static_cast<std::int64_t>(util::ResourceBudget::instance().denials()));
  report.set("memory", std::move(memory));

  const std::filesystem::path path = out_dir / "BENCH_chaos.json";
  ok = write_report(path, report.dump(2) + "\n") && ok;
  try {
    json::parse(util::read_text_file(path));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << path.string() << ": emitted JSON does not re-parse: " << e.what()
              << '\n';
    ok = false;
  }
  std::cout << (ok ? "chaos soak OK" : "chaos soak FAILED") << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool chaos_soak = false;
  std::filesystem::path out_dir = ".";
  std::filesystem::path trace_path;
  // Args handled here are filtered out of argv so google-benchmark does not
  // reject them as unrecognized. `consumes_value` mirrors the `--key value`
  // forms ArgParser accepts.
  const auto is_local = [](const std::string& arg, const char* name, bool* consumes_value) {
    const std::string flag = std::string("--") + name;
    if (arg == flag) {
      *consumes_value = true;
      return true;
    }
    *consumes_value = false;
    return arg.rfind(flag + "=", 0) == 0;
  };
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool consumes = false;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--chaos-soak") {
      chaos_soak = true;
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace-json="));
    } else if (is_local(arg, "chaos-seed", &consumes) ||
               is_local(arg, "chaos-rate", &consumes) ||
               is_local(arg, "memory-budget-mb", &consumes)) {
      // Parsed below through ArgParser; only filtered here.
      if (consumes && i + 1 < argc) ++i;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const util::ArgParser args(argc, argv);
  util::ResourceBudget::init_from_args(args);
  // Locally-handled flags and google-benchmark's --benchmark_* family are
  // consumed outside ArgParser; everything else must be a known key.
  args.fail_on_unconsumed({"smoke", "chaos-soak", "out-dir", "trace-json", "chaos-seed",
                           "chaos-rate", "benchmark_*"});
  // Ctrl-C mid-suite still flushes the armed trace session (journals are
  // per-record durable); the helper then exits 128+signo.
  util::shutdown::install([] { util::trace::finish(); });
  if (!trace_path.empty()) util::trace::start(trace_path);
  if (chaos_soak) {
    const int rc = run_chaos_soak(
        out_dir, static_cast<std::uint64_t>(args.get_int("chaos-seed", 20260809)),
        args.get_double("chaos-rate", 0.15));
    util::trace::finish();
    return rc;
  }
  util::FaultInjector::init_chaos_from_args(args);
  if (smoke) {
    const int rc = run_smoke(out_dir);
    util::trace::finish();
    return rc;
  }

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  util::trace::finish();
  return 0;
}

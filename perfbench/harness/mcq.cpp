// mcq_eval: the paper's own job. Scores the whole synthetic benchmark with
// the base next-token method and the full-instruct method, round after
// round, through eval::Supervisor with nproc workers and the prefix cache
// on. Every pass is journalled, so a child that dies mid-pass resumes the
// pass from its journal after the supervisor restarts it.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

#include "core/model_zoo.hpp"
#include "eval/full_instruct.hpp"
#include "eval/prefix_cache.hpp"
#include "eval/prompts.hpp"
#include "eval/token_method.hpp"
#include "nn/sampler.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace core = astromlab::core;
namespace corpus = astromlab::corpus;
namespace eval = astromlab::eval;
namespace util = astromlab::util;

namespace {

constexpr std::size_t kInstructSamples = 2;

const char* const kCounterNames[] = {
    "gemm.calls",          "gemm.gemv_calls",     "gemm.multi_gemv_calls",
    "pool.tasks_submitted", "nn.generated_tokens", "prefix_cache.hits",
    "prefix_cache.misses"};

std::vector<double> counter_values() {
  std::vector<double> out;
  for (const char* name : kCounterNames) {
    out.push_back(static_cast<double>(util::metrics::registry().counter(name).value()));
  }
  return out;
}

json::Value counter_deltas(const std::vector<double>& before) {
  const std::vector<double> after = counter_values();
  json::Value out = json::Value::object();
  for (std::size_t i = 0; i < before.size(); ++i) out.set(kCounterNames[i], after[i] - before[i]);
  return out;
}

/// The next-token prompt exactly as the token method feeds it.
std::vector<nn::Token> token_prompt(const core::World& world, const eval::LetterTokens& letters,
                                    const corpus::McqItem& item,
                                    const std::vector<corpus::McqItem>& fewshot) {
  const auto ids = world.tok.encode(eval::build_token_prompt(item, fewshot));
  std::vector<nn::Token> tokens(ids.begin(), ids.end());
  if (letters.feed_space_first) {
    if (const auto space = world.tok.token_to_id(" ")) tokens.push_back(*space);
  }
  return tokens;
}

struct Pass {
  int round = 0;
  std::string method;
  std::vector<int> answers;
};

std::vector<Pass> load_passes(const fs::path& progress) {
  std::vector<Pass> passes;
  for (const std::string& line : read_lines(progress)) {
    const json::Value v = json::parse(line);
    passes.push_back({static_cast<int>(v.get_number("round", 0)), v.get_string("method", ""),
                      ints_from_json(*v.find("answers"))});
  }
  return passes;
}

}  // namespace

core::WorldConfig mcq_world_config(std::uint64_t) {
  // The benchmark is fixed, as the paper's is: the default world (24 topics
  // x 5 questions, vocab 768, ctx 416). A seed picks the model's weights;
  // letting it pick the world too would change how many tokens a pass feeds
  // by up to a third from seed to seed.
  return core::WorldConfig{};
}

nn::GptModel mcq_model(const core::World& world, std::uint64_t seed) {
  nn::GptConfig arch = core::scale_spec(core::Scale::kS70, world.config).arch;
  arch.vocab_size = world.tok.vocab_size();
  nn::GptModel model(arch);
  util::Rng rng(mix_seed(seed, 4));
  model.init_weights(rng);
  return model;
}

int run_mcq(const util::ArgParser& args) {
  ChildArgs child = parse_child_args(args);
  util::Stopwatch watch;
  const core::World world = core::build_world(mcq_world_config(child.seed));
  const double build_world_s = watch.seconds();
  watch.reset();
  const nn::GptModel model = mcq_model(world, child.seed);
  const double model_init_s = watch.seconds();
  const auto& benchmark = world.mcqs.benchmark;
  {
    json::Value ready = json::Value::object();
    ready.set("build_world_s", build_world_s);
    ready.set("model_init_s", model_init_s);
    ready.set("questions", static_cast<double>(benchmark.size()));
    emit("READY", ready);
  }
  if (child.setup_only) return 0;
  establish_deadline(child);

  eval::EvalRunOptions opts;
  opts.workers = worker_threads();
  opts.prefix_cache = true;
  eval::FullInstructConfig instruct;  // greedy, 96 new tokens

  const fs::path progress = child.state / "progress.jsonl";
  std::vector<Pass> done = load_passes(progress);
  int round = done.empty() ? 0 : done.back().round + (done.back().method == "instruct" ? 1 : 0);
  std::string method = done.empty() || done.back().method == "instruct" ? "token" : "instruct";
  const double trace_start = child.deadline - child.seconds + child.lead_in;
  bool tracing = false;  // once on, every later pass of this run is traced

  while (wall_now() < child.deadline) {
    tracing = tracing || (child.trace && wall_now() >= trace_start && method == "token");
    if (tracing) start_trace(child, "mcq_r" + std::to_string(round) + "_" + method);
    const fs::path journal_path =
        child.state / ("journal_r" + std::to_string(round) + "_" + method + ".jsonl");
    eval::EvalJournal journal(journal_path);
    json::Value begin = json::Value::object();
    begin.set("round", round);
    begin.set("method", method);
    begin.set("resumed", static_cast<double>(journal.size()));
    begin.set("t", wall_now());
    emit("PASS_BEGIN", begin);

    util::metrics::registry().histogram("eval.question_seconds").snapshot_and_reset();
    const std::vector<double> before = counter_values();
    eval::PrefixCacheStats cache;
    eval::SupervisorStats stats;
    util::Stopwatch pass_watch;
    std::vector<eval::QuestionResult> results;
    if (method == "token") {
      const util::trace::Span span("bench.token_pass", "bench");
      results = eval::run_token_benchmark(model, world.tok, benchmark, world.mcqs.practice,
                                          &journal, {}, opts, &cache, &stats);
    } else {
      const util::trace::Span span("bench.instruct_pass", "bench");
      results = eval::run_full_instruct_benchmark(model, world.tok, benchmark, instruct,
                                                  &journal, opts, &cache, &stats);
    }
    const double seconds = pass_watch.seconds();
    const auto hist = util::metrics::registry().histogram("eval.question_seconds").snapshot();

    std::vector<int> answers;
    std::size_t retries = 0, degraded = 0;
    for (const auto& r : results) {
      answers.push_back(r.predicted);
      retries += static_cast<std::size_t>(r.retries);
      degraded += r.degraded ? 1 : 0;
    }
    json::Value end = json::Value::object();
    end.set("round", round);
    end.set("method", method);
    end.set("t", wall_now());
    end.set("seconds", seconds);
    end.set("traced", tracing);
    end.set("questions", static_cast<double>(results.size()));
    end.set("fresh", static_cast<double>(stats.completed_questions));
    end.set("p50_s", stats.latency_p50_s);
    end.set("p95_s", stats.latency_p95_s);
    end.set("p99_s", stats.latency_p99_s);
    end.set("busy_s", hist.sum);
    end.set("retries", static_cast<double>(retries));
    end.set("degraded", static_cast<double>(degraded));
    end.set("cache_prompts", static_cast<double>(cache.prompts));
    end.set("cache_prompt_tokens", static_cast<double>(cache.prompt_tokens));
    end.set("cache_reused_tokens", static_cast<double>(cache.reused_tokens));
    end.set("counters", counter_deltas(before));
    end.set("answers", to_json(answers));
    if (tracing) stop_trace();
    append_line(progress, end.dump());
    emit("PASS_END", end);
    journal.discard();

    if (method == "token") {
      method = "instruct";
    } else {
      method = "token";
      ++round;
    }
  }
  emit_measured();

  // ---- verification against the oracle --------------------------------
  util::Stopwatch verify_watch;
  const std::vector<Pass> passes = load_passes(progress);
  const std::vector<corpus::McqItem> fewshot = eval::pick_fewshot_examples(world.mcqs.practice);
  const eval::LetterTokens letters =
      eval::detect_letter_tokens(model, world.tok, world.mcqs.practice, fewshot);
  const std::vector<nn::Token> letter_ids(letters.ids.begin(), letters.ids.end());
  Oracle oracle(model);
  std::vector<std::string> problems;
  const Pass* first_token = nullptr;
  const Pass* first_instruct = nullptr;
  for (const Pass& p : passes) {
    const Pass*& first = p.method == "token" ? first_token : first_instruct;
    if (first == nullptr) {
      first = &p;
    } else if (p.answers != first->answers) {
      problems.push_back(p.method + " pass of round " + std::to_string(p.round) +
                         " differs from the first " + p.method + " pass");
    }
  }
  std::size_t token_checked = 0, ties = 0;
  if (first_token != nullptr) {
    for (std::size_t q = 0; q < benchmark.size(); ++q) {
      const int answer = first_token->answers[q];
      const std::vector<nn::Token> prompt = token_prompt(world, letters, benchmark[q], fewshot);
      if (prompt.size() >= model.config().ctx_len) {
        if (answer != -1) problems.push_back("q" + std::to_string(q) + " answered past ctx");
        continue;
      }
      const std::vector<float> row = oracle.last_logits(prompt);
      bool tie = false;
      if (answer < 0 || !Oracle::is_argmax(row.data(), letter_ids, letter_ids[answer], &tie)) {
        problems.push_back("token answer of q" + std::to_string(q) + " is not the oracle argmax");
      }
      ties += tie ? 1 : 0;
      if (++token_checked % 20 == 0) {
        json::Value beat = json::Value::object();
        beat.set("checked", static_cast<double>(token_checked));
        emit("VERIFY_PROGRESS", beat);
      }
    }
  }
  std::size_t instruct_checked = 0;
  if (first_instruct != nullptr) {
    // The sampled questions run the way the supervised pass runs them: a
    // fork of the same instruct-preamble cache, through one sampler that
    // persists across questions. Their text is checked against the oracle
    // and their letter against the pass's answer.
    const std::unique_ptr<eval::PrefixCache> cache = eval::PrefixCache::build(
        model, world.tok,
        {eval::build_instruct_prompt(benchmark[0]), eval::build_instruct_prompt(benchmark[1])});
    eval::FullInstructConfig per_question = instruct;
    per_question.prefix_cache = cache.get();
    nn::Sampler sampler(model);
    util::Rng pick(mix_seed(child.seed, 5));
    for (std::size_t s = 0; s < kInstructSamples; ++s) {
      const std::size_t q = static_cast<std::size_t>(pick.next_u64() % benchmark.size());
      const eval::FullInstructOutcome outcome =
          eval::full_instruct_one(model, world.tok, benchmark[q], per_question, &sampler);
      if (outcome.result.predicted != first_instruct->answers[q]) {
        problems.push_back("instruct q" + std::to_string(q) +
                           ": supervised answer differs from the prefix-forked run");
      }
      const auto ids = world.tok.encode(eval::build_instruct_prompt(benchmark[q]));
      const std::vector<nn::Token> prompt(ids.begin(), ids.end());
      const OracleDecode expect =
          oracle.greedy(prompt, instruct.max_new_tokens,
                        {world.tok.end_turn_id(), world.tok.eos_id()});
      const bool same = text_matches(expect, outcome.raw_output, [&](const auto& toks) {
        return world.tok.decode(std::vector<astromlab::tokenizer::TokenId>(toks.begin(),
                                                                           toks.end()));
      });
      if (!same) {
        problems.push_back("instruct q" + std::to_string(q) +
                           ": generation differs from the oracle greedy decode");
      }
      ties += expect.first_tie < expect.tokens.size() ? 1 : 0;
      ++instruct_checked;
      emit("VERIFY_PROGRESS", json::Value::object());
    }
    if (cache == nullptr || cache->stats().reused_tokens == 0) {
      problems.push_back("the instruct check reused no prefix-cache tokens");
    }
  }
  json::Value verify = json::Value::object();
  verify.set("ok", problems.empty());
  verify.set("token_checked", static_cast<double>(token_checked));
  verify.set("instruct_checked", static_cast<double>(instruct_checked));
  verify.set("ties", static_cast<double>(ties));
  verify.set("seconds", verify_watch.seconds());
  verify.set("peak_tracked_bytes",
             static_cast<double>(util::metrics::registry().gauge("memory.peak_bytes").value()));
  json::Value list = json::Value::array();
  for (const auto& p : problems) list.push_back(p);
  verify.set("problems", std::move(list));
  emit("VERIFY", verify);
  return 0;
}

}  // namespace perfbench

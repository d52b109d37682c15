#include "eval/token_method.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "eval/prompts.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace astromlab::eval {

namespace {

/// Indices of the `k` largest logits.
std::vector<std::size_t> top_k_indices(const std::vector<float>& logits, std::size_t k) {
  std::vector<std::size_t> order(logits.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
                    [&](std::size_t a, std::size_t b) { return logits[a] > logits[b]; });
  order.resize(k);
  return order;
}

std::optional<std::array<tokenizer::TokenId, 4>> letter_family(
    const tokenizer::BpeTokenizer& tok, bool leading_space) {
  std::array<tokenizer::TokenId, 4> ids{};
  for (int i = 0; i < 4; ++i) {
    std::string text;
    if (leading_space) text += ' ';
    text += static_cast<char>('A' + i);
    const auto id = tok.token_to_id(text);
    if (!id) return std::nullopt;
    ids[static_cast<std::size_t>(i)] = *id;
  }
  return ids;
}

std::vector<nn::Token> to_model_tokens(const std::vector<tokenizer::TokenId>& ids) {
  return {ids.begin(), ids.end()};
}

}  // namespace

LetterTokens detect_letter_tokens(const nn::GptModel& model,
                                  const tokenizer::BpeTokenizer& tok,
                                  const std::vector<corpus::McqItem>& calibration,
                                  const std::vector<corpus::McqItem>& fewshot,
                                  const PrefixCache* prefix_cache) {
  const auto spaced = letter_family(tok, /*leading_space=*/true);
  const auto plain = letter_family(tok, /*leading_space=*/false);
  if (!plain) {
    throw std::logic_error("tokenizer lacks bare letter byte tokens (corrupt vocab)");
  }
  if (!spaced) {
    // No single-token " A".." D": the model necessarily emits the space
    // separately, so probe bare letters after feeding the space.
    LetterTokens letters;
    letters.ids = *plain;
    letters.feed_space_first = true;
    return letters;
  }

  // Both families exist: examine the top-10 next tokens on calibration
  // prompts (paper §V-B) and count which family the model actually ranks.
  const util::trace::Span span("eval.detect_letter_tokens", "eval");
  const std::size_t n_calibration = std::min<std::size_t>(calibration.size(), 6);
  struct ProbeHits {
    bool usable = false;
    bool out_of_memory = false;
    std::size_t spaced = 0;
    std::size_t plain = 0;
  };
  std::vector<ProbeHits> probes(n_calibration);
  // One calibration prompt per task, each with its own probe: nested
  // kernels run inline, so every prompt keeps to one core. The hit counts
  // are sums, so the split never changes the decision.
  util::parallel_for_each(
      n_calibration,
      [&](std::size_t q) {
        ProbeHits& probe = probes[q];
        const std::string prompt = build_token_prompt(calibration[q], fewshot);
        const std::vector<nn::Token> tokens = to_model_tokens(tok.encode(prompt));
        if (tokens.size() >= model.config().ctx_len) return;
        probe.usable = true;
        try {
          nn::GptInference inference(model);
          // Calibration prompts share the benchmark's two-shot block: fork
          // it and feed only the tail (bit-identical to a cold prefill).
          const std::size_t fed_from =
              prefix_cache != nullptr ? prefix_cache->fork_unrecorded(inference, tokens) : 0;
          const std::vector<float>& logits =
              inference.prompt(tokens.data() + fed_from, tokens.size() - fed_from, nullptr);
          for (std::size_t idx : top_k_indices(logits, 10)) {
            const auto id = static_cast<tokenizer::TokenId>(idx);
            if (std::find(spaced->begin(), spaced->end(), id) != spaced->end()) ++probe.spaced;
            if (std::find(plain->begin(), plain->end(), id) != plain->end()) ++probe.plain;
          }
        } catch (const std::bad_alloc&) {
          // The probe's KV cache does not fit the memory budget. Detection
          // is calibration, not scoring, and it runs before the
          // supervisor's fault domains exist — so this prompt adds no
          // evidence instead of aborting the benchmark. The probe's
          // partial charge is released with `inference`.
          probe.out_of_memory = true;
        }
      },
      1);
  std::size_t spaced_hits = 0;
  std::size_t plain_hits = 0;
  std::size_t usable_prompts = 0;
  bool out_of_memory = false;
  for (const ProbeHits& probe : probes) {
    spaced_hits += probe.spaced;
    plain_hits += probe.plain;
    usable_prompts += probe.usable ? 1 : 0;
    out_of_memory = out_of_memory || probe.out_of_memory;
  }
  if (out_of_memory) {
    log::warn() << "letter-token detection: probe K/V does not fit the memory "
                   "budget; deciding on partial evidence";
  }
  util::metrics::registry()
      .counter("eval.letter_detection_evidence")
      .add(spaced_hits + plain_hits);
  if (spaced_hits + plain_hits == 0) {
    // Zero evidence — typically every calibration prompt overflowed the
    // context window (usable_prompts == 0), or the model never ranked a
    // letter token in its top 10. The spaced-family default below is then a
    // blind guess, not a detection; say so instead of silently proceeding.
    util::metrics::registry().counter("eval.letter_detection_zero_evidence").add();
    log::warn() << "letter-token detection: zero evidence ("
                << usable_prompts << "/" << n_calibration
                << " calibration prompts fit the context window); defaulting "
                   "to the leading-space family on no data";
  }

  LetterTokens letters;
  if (plain_hits > spaced_hits) {
    letters.ids = *plain;
    letters.feed_space_first = true;
  } else {
    letters.ids = *spaced;
    letters.leading_space = true;
  }
  log::debug() << "letter-token detection: spaced_hits=" << spaced_hits
               << " plain_hits=" << plain_hits << " -> "
               << (letters.leading_space ? "leading-space" : "bare");
  return letters;
}

namespace {

/// Strict-greater argmax over the four answer-letter logits (first wins on
/// ties) — the one scoring rule, shared by the serial and batched paths.
int argmax_letter(const std::vector<float>& logits, const LetterTokens& letters) {
  int best = 0;
  float best_logit = logits[static_cast<std::size_t>(letters.ids[0])];
  for (int i = 1; i < 4; ++i) {
    const float logit = logits[static_cast<std::size_t>(letters.ids[static_cast<std::size_t>(i)])];
    if (logit > best_logit) {
      best_logit = logit;
      best = i;
    }
  }
  return best;
}

}  // namespace

int token_predict(const nn::GptModel& model, const tokenizer::BpeTokenizer& tok,
                  const LetterTokens& letters, const corpus::McqItem& item,
                  const std::vector<corpus::McqItem>& fewshot,
                  const util::CancelToken* cancel, const PrefixCache* prefix_cache,
                  nn::GptInference* scratch, nn::DecodeEngine* engine) {
  const util::trace::Span span("eval.token_predict", "eval");
  const std::string prompt = build_token_prompt(item, fewshot);
  std::vector<nn::Token> tokens = to_model_tokens(tok.encode(prompt));
  if (letters.feed_space_first) {
    const auto space = tok.token_to_id(" ");
    if (space) {
      tokens.push_back(*space);
    } else {
      // Without a single " " token the separator cannot be fed, so the
      // model scores bare letters directly after "Answer:" — a subtly
      // different prompt than calibration saw. Degrade loudly: warn once
      // per process, count every occurrence.
      static std::once_flag warned;
      std::call_once(warned, [] {
        log::warn() << "token method: feed_space_first set but the tokenizer "
                       "has no single \" \" token; probing bare letters "
                       "without the separator (prompt differs from "
                       "calibration)";
      });
      util::metrics::registry().counter("eval.space_token_missing").add();
    }
  }
  if (tokens.empty() || tokens.size() >= model.config().ctx_len) {
    util::metrics::registry().counter("eval.prompt_overflow").add();
    return -1;  // prompt does not fit the context window
  }
  if (engine != nullptr) {
    // Batched path: the prompt feeds through a shared engine slot, one
    // token per engine step. The cancel token is polled before each feed
    // (the serial prompt-loop placement) and again before scoring, and
    // the argmax runs over logits that BatchedInference guarantees are
    // bitwise equal to the serial feed's — so the answer cannot depend on
    // what else happens to be decoding alongside.
    int answer = -1;
    nn::DecodeEngine::Request req;
    req.prompt = std::move(tokens);
    req.cancel = cancel;
    if (prefix_cache != nullptr) {
      req.prepare = [prefix_cache](nn::BatchedInference& bi, std::size_t slot,
                                   const std::vector<nn::Token>& prompt) {
        return prefix_cache->fork(bi, slot, prompt);
      };
    }
    req.on_logits = [&](const std::vector<float>& logits, std::size_t) -> nn::Token {
      if (cancel == nullptr || !cancel->cancelled()) answer = argmax_letter(logits, letters);
      return nn::DecodeEngine::kStopDecoding;
    };
    engine->run(std::move(req));
    return answer;  // stays -1 when cancel fired mid-feed or pre-scoring
  }
  std::optional<nn::GptInference> local;
  nn::GptInference& inference = scratch != nullptr ? *scratch : local.emplace(model);
  std::size_t fed_from = 0;
  if (prefix_cache != nullptr) {
    // Fork the shared two-shot block; feed only the question's own tail.
    // The question still feeds exactly its own token sequence overall, so
    // the logits are bit-identical to the uncached path.
    fed_from = prefix_cache->fork(inference, tokens);
  } else {
    inference.reset();
  }
  const std::vector<float>& logits =
      inference.prompt(tokens.data() + fed_from, tokens.size() - fed_from, cancel);
  if (cancel != nullptr && cancel->cancelled()) {
    return -1;  // fired mid-feed: logits are stale, degrade to unanswered
  }
  return argmax_letter(logits, letters);
}

std::vector<QuestionResult> run_token_benchmark(
    const nn::GptModel& model, const tokenizer::BpeTokenizer& tok,
    const std::vector<corpus::McqItem>& benchmark,
    const std::vector<corpus::McqItem>& practice_pool, EvalJournal* journal,
    const TokenMethodConfig& config, const EvalRunOptions& opts,
    PrefixCacheStats* cache_stats, SupervisorStats* run_stats) {
  const util::trace::Span bench_span("eval.token_benchmark", "eval");
  const std::vector<corpus::McqItem> fewshot = pick_fewshot_examples(practice_pool);

  // Shared-prefix KV snapshot: encode the two-shot block once, fork it per
  // question (and per calibration prompt of letter detection). Built from
  // the first two question prompts so the common token prefix is
  // discovered at the token level (robust to BPE merges across the
  // prefix/question boundary).
  std::unique_ptr<PrefixCache> cache;
  if (opts.prefix_cache && benchmark.size() >= 2) {
    cache = PrefixCache::build(
        model, tok,
        {build_token_prompt(benchmark[0], fewshot), build_token_prompt(benchmark[1], fewshot)});
  }
  const LetterTokens letters =
      detect_letter_tokens(model, tok, practice_pool, fewshot, cache.get());
  if (cache_stats != nullptr) *cache_stats = PrefixCacheStats{};

  std::vector<QuestionResult> results(benchmark.size());
  std::vector<std::size_t> pending;
  for (std::size_t q = 0; q < benchmark.size(); ++q) {
    const corpus::McqItem& item = benchmark[q];
    results[q].correct = static_cast<int>(item.correct);
    results[q].tier = item.tier;
    if (journal != nullptr) {
      const auto prior = journal->lookup(q);
      if (prior && prior->correct == static_cast<int>(item.correct) &&
          prior->tier == item.tier) {
        results[q] = *prior;
        continue;
      }
    }
    pending.push_back(q);
  }

  EvalRunOptions effective = opts;
  effective.question_deadline_seconds =
      merge_deadlines(opts.question_deadline_seconds, config.max_seconds_per_question);

  // Continuous-batching decode: one shared engine; every worker submits
  // its question into the engine's slot pool, so concurrent prompt feeds
  // coalesce into one batched step per token. Workers are raised to at
  // least the slot count so the batch can actually fill.
  std::unique_ptr<nn::DecodeEngine> engine;
  if (effective.decode_batch > 1) {
    effective.workers = std::max(effective.workers, effective.decode_batch);
    engine = std::make_unique<nn::DecodeEngine>(model, effective.decode_batch);
  }

  // One immutable snapshot shared read-only by every worker; one fork
  // buffer per worker slot so concurrent questions never share KV state.
  std::vector<std::unique_ptr<nn::GptInference>> scratch(effective.worker_slots());
  for (auto& slot : scratch) slot = std::make_unique<nn::GptInference>(model);

  // Degradation-ladder hooks: rung 1 drops the shared prefix snapshot
  // (forks fall back to full prefill — scores unchanged), rung 2 frees the
  // KV cache of each retired worker slot.
  effective.evict_cache = [&cache]() -> std::size_t {
    return cache != nullptr ? cache->evict() : 0;
  };
  effective.release_slot_memory = [&scratch, &engine](std::size_t slot) -> std::size_t {
    std::size_t freed = slot < scratch.size() && scratch[slot] != nullptr
                            ? scratch[slot]->release_kv()
                            : 0;
    // Slot-granular relief on the engine side: idle decode slots hand
    // their KV back to the budget; active ones keep decoding.
    if (engine != nullptr) freed += engine->release_idle_kv();
    return freed;
  };

  Supervisor supervisor(effective);
  supervisor.run(
      results, pending,
      [&](std::size_t q, std::size_t slot, const util::CancelToken& cancel) {
        QuestionResult result = results[q];  // ground truth pre-filled above
        result.predicted = token_predict(model, tok, letters, benchmark[q], fewshot, &cancel,
                                         cache.get(), scratch[slot].get(), engine.get());
        if (cancel.cancelled()) {
          result.method = ExtractionMethod::kFailed;
          result.predicted = -1;
          result.degraded = true;
        }
        return result;
      },
      journal);
  if (cache != nullptr && cache_stats != nullptr) *cache_stats = cache->stats();
  if (run_stats != nullptr) *run_stats = supervisor.stats();
  return results;
}

}  // namespace astromlab::eval

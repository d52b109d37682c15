#pragma once
// Next-token (logit) benchmarking method (paper §V-B / §V-C, Appendix C).
//
// The model is shown the two-shot exam prompt ending in "Answer:" and the
// answer is the letter whose token has the highest logit at the next
// position. Two real-tokenizer subtleties are handled exactly as the paper
// describes:
//
//  * Token representation variants. Depending on the learned BPE merges
//    the answer may surface as the single token " A" (leading space) or as
//    the bare byte token "A" (after the space is consumed separately). The
//    evaluator detects the representation the model actually uses by
//    scanning the top-ten tokens of its output distribution on calibration
//    prompts (§V-B).
//  * Deterministic inference. Temperature is fixed at 0 — logit argmax —
//    matching the paper's reproducibility setting.

#include <array>
#include <optional>
#include <vector>

#include "corpus/mcq.hpp"
#include "eval/journal.hpp"
#include "eval/prefix_cache.hpp"
#include "eval/scorer.hpp"
#include "eval/supervisor.hpp"
#include "nn/decode_engine.hpp"
#include "nn/gpt.hpp"
#include "tokenizer/bpe.hpp"
#include "util/cancel.hpp"

namespace astromlab::eval {

/// Resolved answer-letter token ids for one (model, tokenizer) pair.
struct LetterTokens {
  std::array<tokenizer::TokenId, 4> ids{};  ///< tokens for A..D
  bool leading_space = false;   ///< ids are " A".." D" single tokens
  bool feed_space_first = false;  ///< feed " " before probing bare letters
};

/// Detects which representation the model uses: builds a few calibration
/// prompts from `calibration` items, reads the model's top-10 next tokens
/// after "Answer:", and picks the letter-token family that appears there.
/// Falls back to bare letters (with an explicit space feed) when the
/// vocabulary has no single leading-space letter tokens. The calibration
/// prompts run as separate tasks on the global pool, one core each. With a
/// `prefix_cache` holding the two-shot block, each calibration prompt forks
/// it and feeds only its tail; the result is identical either way, and the
/// forks are not recorded in the cache's stats.
LetterTokens detect_letter_tokens(const nn::GptModel& model,
                                  const tokenizer::BpeTokenizer& tok,
                                  const std::vector<corpus::McqItem>& calibration,
                                  const std::vector<corpus::McqItem>& fewshot,
                                  const PrefixCache* prefix_cache = nullptr);

/// Per-question knobs for the token-method runners.
struct TokenMethodConfig {
  /// Wall-clock budget per question, enforced in-flight through the
  /// supervisor's CancelToken during the KV-cache prompt feed (the token
  /// method generates nothing, so the prompt feed is the whole cost).
  /// 0 disables the watchdog.
  double max_seconds_per_question = 0.0;
};

/// Evaluates one question: returns the argmax letter (0..3), or -1 when the
/// prompt does not fit the context window or `cancel` fired mid-feed.
/// With a `prefix_cache`, the shared two-shot block is forked from its KV
/// snapshot instead of re-encoded (bit-identical logits either way); with a
/// `scratch` inference, that buffer is reset and reused instead of
/// allocating fresh KV caches per question. With an `engine`, the prompt
/// feed runs through a shared continuous-batching `nn::DecodeEngine` slot
/// (`scratch` is then unused); the answer is bit-identical to the serial
/// path for every batch composition.
int token_predict(const nn::GptModel& model, const tokenizer::BpeTokenizer& tok,
                  const LetterTokens& letters, const corpus::McqItem& item,
                  const std::vector<corpus::McqItem>& fewshot,
                  const util::CancelToken* cancel = nullptr,
                  const PrefixCache* prefix_cache = nullptr,
                  nn::GptInference* scratch = nullptr,
                  nn::DecodeEngine* engine = nullptr);

/// Runs the token method over the whole benchmark under the fault-isolated
/// Supervisor. With an active `journal`, already-answered questions are
/// skipped (their journalled results reused) and fresh results are appended
/// durably, making a killed run resumable. `opts` controls parallelism,
/// deadlines, retries, straggler cancellation, and shared-prefix KV reuse
/// (`opts.prefix_cache`); defaults reproduce the serial reference behaviour
/// bit-for-bit. When `cache_stats` is non-null it receives the prefill
/// reuse accounting of the run (zeros when the cache was off or unusable).
/// When `run_stats` is non-null it receives the supervisor's telemetry —
/// retries, degradations, and per-question latency percentiles over the
/// freshly evaluated questions.
std::vector<QuestionResult> run_token_benchmark(
    const nn::GptModel& model, const tokenizer::BpeTokenizer& tok,
    const std::vector<corpus::McqItem>& benchmark,
    const std::vector<corpus::McqItem>& practice_pool, EvalJournal* journal = nullptr,
    const TokenMethodConfig& config = {}, const EvalRunOptions& opts = {},
    PrefixCacheStats* cache_stats = nullptr, SupervisorStats* run_stats = nullptr);

}  // namespace astromlab::eval

#pragma once
// The benchmark's correctness oracle, shared by all four workloads.
//
// It recomputes what the code under test produced along a path that shares
// none of the serving machinery: one full-sequence `GptModel::forward` over
// the whole token sequence (batched sgemm, causal attention over the full
// window), with no KV cache, no prefix cache, no decode engine and no
// sampler. Greedy choices are compared with a stated tie tolerance: the
// forward pass and the incremental paths sum in different orders, so two
// logits closer than the tolerance are treated as a tie and either pick is
// accepted.

#include <cstddef>
#include <string>
#include <vector>

#include "nn/gpt.hpp"

namespace perfbench {

namespace nn = astromlab::nn;

/// Two logits within kTieAbs + kTieRel * |top logit| of each other tie.
inline constexpr float kTieAbs = 1e-4f;
inline constexpr float kTieRel = 1e-4f;

float tie_tolerance(float top_logit);

/// Result of comparing a produced greedy stream with the oracle.
struct StreamCheck {
  std::size_t checked = 0;     ///< positions compared
  std::size_t mismatches = 0;  ///< produced token not an oracle argmax
  std::size_t ties = 0;        ///< produced token != strict argmax, within tolerance
  bool ok() const { return mismatches == 0; }
};

/// Oracle greedy continuation.
struct OracleDecode {
  std::vector<nn::Token> tokens;
  /// Index of the first step whose top two logits tie (tokens.size() when
  /// none did): past it a correct implementation may legitimately diverge.
  std::size_t first_tie = 0;
};

class Oracle {
 public:
  explicit Oracle(const nn::GptModel& model) : model_(model) {}

  /// Logits (tokens.size() x vocab, row-major) of one forward pass.
  const std::vector<float>& logits(const std::vector<nn::Token>& tokens);

  /// Logits row after the last token.
  std::vector<float> last_logits(const std::vector<nn::Token>& tokens);

  /// True when `chosen` (one of `candidates`) is the argmax of `row` over
  /// the candidates, up to the tie tolerance. `*tie` is set when it is not
  /// the strict argmax but within tolerance.
  static bool is_argmax(const float* row, const std::vector<nn::Token>& candidates,
                        nn::Token chosen, bool* tie = nullptr);

  /// Teacher-forced check of a greedy stream: every generated[i] must be
  /// the argmax of the oracle's logits after prompt + generated[0..i).
  StreamCheck check_stream(const std::vector<nn::Token>& prompt,
                           const std::vector<nn::Token>& generated);

  /// Greedy decode recomputed from scratch with one forward per token.
  /// Stops on a stop token (not emitted), at `max_new`, or when the fed
  /// context would exceed ctx_len — the same exits as `nn::Sampler`.
  OracleDecode greedy(const std::vector<nn::Token>& prompt, std::size_t max_new,
                      const std::vector<nn::Token>& stop_tokens);

  /// Mean next-token cross-entropy over `windows` (each ctx-sized or
  /// shorter, all the same length).
  float mean_loss(const std::vector<std::vector<nn::Token>>& windows);

 private:
  const nn::GptModel& model_;
  nn::GptActivations acts_;
};

/// True when `observed` equals the text of the oracle decode, or — when the
/// oracle hit a tie — starts with the text decoded before the tie.
template <typename DecodeFn>
bool text_matches(const OracleDecode& oracle, const std::string& observed,
                  const DecodeFn& decode) {
  if (oracle.first_tie >= oracle.tokens.size()) return decode(oracle.tokens) == observed;
  const std::vector<nn::Token> before(oracle.tokens.begin(),
                                      oracle.tokens.begin() +
                                          static_cast<std::ptrdiff_t>(oracle.first_tie));
  return observed.rfind(decode(before), 0) == 0;
}

}  // namespace perfbench

#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

float tie_tolerance(float top_logit) { return kTieAbs + kTieRel * std::fabs(top_logit); }

const std::vector<float>& Oracle::logits(const std::vector<nn::Token>& tokens) {
  if (tokens.empty() || tokens.size() > model_.config().ctx_len) {
    throw std::invalid_argument("oracle: sequence length out of range");
  }
  model_.forward(acts_, tokens.data(), nullptr, 1, tokens.size());
  return acts_.logits;
}

std::vector<float> Oracle::last_logits(const std::vector<nn::Token>& tokens) {
  const std::vector<float>& all = logits(tokens);
  const std::size_t v = model_.config().vocab_size;
  const auto begin = all.begin() + static_cast<std::ptrdiff_t>((tokens.size() - 1) * v);
  return {begin, begin + static_cast<std::ptrdiff_t>(v)};
}

bool Oracle::is_argmax(const float* row, const std::vector<nn::Token>& candidates,
                       nn::Token chosen, bool* tie) {
  float best = -INFINITY;
  nn::Token best_id = -1;
  for (nn::Token id : candidates) {
    if (row[id] > best) {
      best = row[id];
      best_id = id;
    }
  }
  if (tie != nullptr) *tie = false;
  if (chosen == best_id) return true;
  if (std::find(candidates.begin(), candidates.end(), chosen) == candidates.end()) return false;
  const bool within = best - row[chosen] <= tie_tolerance(best);
  if (tie != nullptr) *tie = within;
  return within;
}

namespace {

std::vector<nn::Token> all_ids(std::size_t vocab) {
  std::vector<nn::Token> ids(vocab);
  for (std::size_t i = 0; i < vocab; ++i) ids[i] = static_cast<nn::Token>(i);
  return ids;
}

}  // namespace

StreamCheck Oracle::check_stream(const std::vector<nn::Token>& prompt,
                                 const std::vector<nn::Token>& generated) {
  StreamCheck check;
  if (generated.empty()) return check;
  std::vector<nn::Token> seq = prompt;
  seq.insert(seq.end(), generated.begin(), generated.end() - 1);
  const std::vector<float>& all = logits(seq);
  const std::size_t v = model_.config().vocab_size;
  const std::vector<nn::Token> ids = all_ids(v);
  for (std::size_t i = 0; i < generated.size(); ++i) {
    const float* row = all.data() + (prompt.size() - 1 + i) * v;
    bool tie = false;
    ++check.checked;
    if (!is_argmax(row, ids, generated[i], &tie)) ++check.mismatches;
    if (tie) ++check.ties;
  }
  return check;
}

OracleDecode Oracle::greedy(const std::vector<nn::Token>& prompt, std::size_t max_new,
                            const std::vector<nn::Token>& stop_tokens) {
  OracleDecode out;
  const std::size_t v = model_.config().vocab_size;
  const std::size_t ctx = model_.config().ctx_len;
  std::vector<nn::Token> seq = prompt;
  out.first_tie = max_new + 1;
  for (std::size_t i = 0; i < max_new; ++i) {
    const std::vector<float>& all = logits(seq);
    const float* row = all.data() + (seq.size() - 1) * v;
    std::size_t best = 0;
    for (std::size_t t = 1; t < v; ++t) {
      if (row[t] > row[best]) best = t;
    }
    if (out.first_tie > max_new) {
      for (std::size_t t = 0; t < v; ++t) {
        if (t != best && row[best] - row[t] <= tie_tolerance(row[best])) {
          out.first_tie = i;
          break;
        }
      }
    }
    const auto next = static_cast<nn::Token>(best);
    if (std::find(stop_tokens.begin(), stop_tokens.end(), next) != stop_tokens.end()) break;
    out.tokens.push_back(next);
    if (seq.size() >= ctx) break;  // the sampler's context-limit exit
    seq.push_back(next);
  }
  out.first_tie = std::min(out.first_tie, out.tokens.size());
  return out;
}

float Oracle::mean_loss(const std::vector<std::vector<nn::Token>>& windows) {
  if (windows.empty() || windows.front().size() < 2) {
    throw std::invalid_argument("oracle: need windows of at least two tokens");
  }
  const std::size_t seq = windows.front().size() - 1;
  std::vector<nn::Token> inputs, targets;
  for (const auto& w : windows) {
    if (w.size() != seq + 1) throw std::invalid_argument("oracle: ragged loss windows");
    inputs.insert(inputs.end(), w.begin(), w.end() - 1);
    targets.insert(targets.end(), w.begin() + 1, w.end());
  }
  return model_.forward(acts_, inputs.data(), targets.data(), windows.size(), seq);
}

}  // namespace perfbench

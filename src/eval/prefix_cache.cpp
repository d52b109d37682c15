#include "eval/prefix_cache.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace astromlab::eval {
namespace {

struct CacheMetrics {
  util::metrics::Counter& built;
  util::metrics::Counter& prompts;
  util::metrics::Counter& hits;
  util::metrics::Counter& misses;
  util::metrics::Counter& reused_tokens;
  util::metrics::Counter& evictions;
  util::metrics::Gauge& resident_bytes;
};

CacheMetrics& cache_metrics() {
  auto& reg = util::metrics::registry();
  static CacheMetrics m{reg.counter("prefix_cache.built"),
                        reg.counter("prefix_cache.prompts"),
                        reg.counter("prefix_cache.hits"),
                        reg.counter("prefix_cache.misses"),
                        reg.counter("prefix_cache.reused_tokens"),
                        reg.counter("prefix_cache.evictions"),
                        reg.gauge("prefix_cache.resident_bytes")};
  return m;
}

}  // namespace

namespace {

std::vector<nn::Token> encode_prompt(const tokenizer::BpeTokenizer& tok,
                                     const std::string& prompt) {
  const std::vector<tokenizer::TokenId> ids = tok.encode(prompt);
  return {ids.begin(), ids.end()};
}

}  // namespace

std::unique_ptr<PrefixCache> PrefixCache::build(
    const nn::GptModel& model, const tokenizer::BpeTokenizer& tok,
    const std::vector<std::string>& sample_prompts, std::shared_ptr<nn::KvArena> arena) {
  if (sample_prompts.size() < 2) return nullptr;

  std::vector<nn::Token> common = encode_prompt(tok, sample_prompts.front());
  for (std::size_t i = 1; i < sample_prompts.size() && !common.empty(); ++i) {
    const std::vector<nn::Token> other = encode_prompt(tok, sample_prompts[i]);
    common.resize(nn::common_token_prefix(common, other));
  }
  // The prefix must leave room for at least the question itself.
  const std::size_t ctx = model.config().ctx_len;
  if (common.size() >= ctx) common.resize(ctx - 1);
  if (common.empty()) return nullptr;

  const util::trace::Span span("prefix_cache.encode", "cache", "tokens",
                               static_cast<std::uint64_t>(common.size()));
  std::unique_ptr<PrefixCache> cache(new PrefixCache(model, std::move(arena)));
  try {
    cache->encoder_.prompt(common);
  } catch (const std::bad_alloc&) {
    // The encoder's KV cache does not fit the memory budget (or the heap).
    // Building happens before the supervisor's per-question fault domains
    // exist, so degrade here: the cache is purely an optimisation and a
    // nullptr means every prompt runs a full prefill with identical scores.
    // The encoder's partial charge is released with `cache`.
    util::metrics::registry().counter("prefix_cache.build_denials").add();
    log::warn() << "prefix cache disabled: encoder K/V does not fit the memory "
                   "budget; prompts run uncached (scores unchanged)";
    return nullptr;
  }
  cache->snapshot_ = cache->encoder_.snapshot();
  cache_metrics().built.add();
  cache_metrics().resident_bytes.add(static_cast<std::int64_t>(cache->encoder_.kv_bytes()));
  log::debug() << "prefix cache: encoded shared prefix of " << common.size() << " tokens";
  return cache;
}

std::size_t PrefixCache::fork(nn::GptInference& inference,
                              const std::vector<nn::Token>& prompt_tokens) const {
  const std::size_t reused = fork_unrecorded(inference, prompt_tokens);
  note_prompt(prompt_tokens.size(), reused);
  return reused;
}

std::size_t PrefixCache::fork_unrecorded(nn::GptInference& inference,
                                         const std::vector<nn::Token>& prompt_tokens) const {
  const util::trace::Span span("prefix_cache.fork", "cache");
  std::shared_lock<std::shared_mutex> lock(evict_mutex_);
  inference.reset();
  if (evicted_) {
    // Ladder rung 1 fired: run the prompt uncached. Same logits, same
    // scores — only the prefill cost changes.
    return 0;
  }
  std::size_t common = nn::common_token_prefix(snapshot_.tokens(), prompt_tokens);
  if (!prompt_tokens.empty()) common = std::min(common, prompt_tokens.size() - 1);
  if (common > 0) inference.fork_from(snapshot_, common);
  return common;
}

std::size_t PrefixCache::fork(nn::BatchedInference& batch, std::size_t slot,
                              const std::vector<nn::Token>& prompt_tokens) const {
  const util::trace::Span span("prefix_cache.fork", "cache");
  std::shared_lock<std::shared_mutex> lock(evict_mutex_);
  if (evicted_) {
    batch.reset_slot(slot);
    note_prompt(prompt_tokens.size(), 0);
    return 0;
  }
  // Same reuse computation as the serial overload, so a question forked
  // into a batch slot feeds exactly the tokens it would have fed serially.
  std::size_t common = nn::common_token_prefix(snapshot_.tokens(), prompt_tokens);
  if (!prompt_tokens.empty()) common = std::min(common, prompt_tokens.size() - 1);
  batch.reset_slot(slot);
  if (common > 0) batch.fork_slot(slot, snapshot_, common);
  note_prompt(prompt_tokens.size(), common);
  return common;
}

std::size_t PrefixCache::evict() {
  std::unique_lock<std::shared_mutex> lock(evict_mutex_);
  if (evicted_) return 0;
  evicted_ = true;
  const std::size_t freed = encoder_.release_kv();  // also invalidates snapshot_
  evictions_.fetch_add(1, std::memory_order_relaxed);
  cache_metrics().evictions.add();
  cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(freed));
  log::warn() << "prefix cache evicted under memory pressure (" << freed
              << " bytes returned to budget); later prompts run uncached";
  return freed;
}

bool PrefixCache::evicted() const {
  std::shared_lock<std::shared_mutex> lock(evict_mutex_);
  return evicted_;
}

std::size_t PrefixCache::resident_bytes() const {
  std::shared_lock<std::shared_mutex> lock(evict_mutex_);
  return encoder_.kv_bytes();
}

void PrefixCache::note_prompt(std::size_t prompt_token_count,
                              std::size_t reused_token_count) const {
  prompts_.fetch_add(1, std::memory_order_relaxed);
  prompt_tokens_.fetch_add(prompt_token_count, std::memory_order_relaxed);
  reused_tokens_.fetch_add(reused_token_count, std::memory_order_relaxed);
  cache_metrics().prompts.add();
  (reused_token_count > 0 ? cache_metrics().hits : cache_metrics().misses).add();
  cache_metrics().reused_tokens.add(reused_token_count);
}

PrefixCacheStats PrefixCache::stats() const {
  PrefixCacheStats stats;
  stats.prompts = prompts_.load(std::memory_order_relaxed);
  stats.prompt_tokens = prompt_tokens_.load(std::memory_order_relaxed);
  stats.reused_tokens = reused_tokens_.load(std::memory_order_relaxed);
  stats.resident_bytes = resident_bytes();
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace astromlab::eval

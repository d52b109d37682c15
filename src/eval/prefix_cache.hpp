#pragma once
// Shared-prefix KV snapshot cache for the benchmark runners.
//
// All three benchmarking methods prepend the *same* block to every one of
// the benchmark's questions — the two-shot exemplar block for the
// next-token methods, the system/instruct preamble for full-instruct — so
// a naive run re-encodes thousands of identical prefix tokens per method.
// `PrefixCache` encodes that prefix once into a private `GptInference`,
// snapshots its per-layer K/V rows (`nn::KvSnapshot`: zero-copy,
// CRC-tagged), and lets every question fork from the snapshot instead.
//
// The shared prefix is discovered *at the token level*: the cache encodes
// the longest common token prefix of a handful of sample prompts, and each
// fork re-computes the common prefix of the snapshot against the actual
// question's tokens. BPE merges across the prefix/question boundary can
// only shorten the reuse, never corrupt it — the question always feeds
// exactly its own token sequence, so logits (and therefore scores and
// journal bytes) are bit-identical to a cache-off run.
//
// Thread-safety: the snapshot is immutable and shared read-only by all
// workers; each worker forks into its own `GptInference` buffers, and the
// reuse counters are atomics. Eviction (the memory degradation ladder's
// first rung) takes a writer lock against the readers' shared lock; the
// disarmed fast path is one uncontended shared_mutex acquisition.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "nn/gpt.hpp"
#include "tokenizer/bpe.hpp"

namespace astromlab::eval {

/// Aggregate prefill-reuse accounting for one benchmark run.
struct PrefixCacheStats {
  std::uint64_t prompts = 0;        ///< prompts routed through the cache
  std::uint64_t prompt_tokens = 0;  ///< total prompt tokens across them
  std::uint64_t reused_tokens = 0;  ///< tokens restored from the snapshot
  std::uint64_t resident_bytes = 0; ///< encoder K/V bytes held right now
  std::uint64_t evictions = 0;      ///< times the ladder evicted the cache

  /// Fraction of prompt tokens whose prefill was skipped (0 when unused).
  double reuse_ratio() const {
    return prompt_tokens == 0
               ? 0.0
               : static_cast<double>(reused_tokens) / static_cast<double>(prompt_tokens);
  }
};

class PrefixCache {
 public:
  /// Builds the cache by encoding the longest common token prefix of
  /// `sample_prompts` (at least two are needed to identify the shared
  /// block). Returns nullptr when no shareable prefix exists — callers
  /// simply run uncached. When `arena` is non-null the encoder stores its
  /// rows in the shared paged arena, so forks into other paged inferences
  /// on the same arena share the prefix blocks by refcount instead of
  /// copying rows.
  static std::unique_ptr<PrefixCache> build(const nn::GptModel& model,
                                            const tokenizer::BpeTokenizer& tok,
                                            const std::vector<std::string>& sample_prompts,
                                            std::shared_ptr<nn::KvArena> arena = nullptr);

  std::size_t prefix_length() const { return snapshot_.length(); }
  const nn::KvSnapshot& snapshot() const { return snapshot_; }

  /// Resets `inference` and forks it from the snapshot at the longest
  /// common prefix with `prompt_tokens` (capped at prompt length - 1, so
  /// the caller always feeds at least one token and reads fresh logits).
  /// Returns the number of positions reused; the caller feeds
  /// `prompt_tokens[returned:]`. Records the reuse in `stats()`. After
  /// evict() every fork is a plain reset + miss — scores are bit-identical
  /// either way, only prefill work changes.
  std::size_t fork(nn::GptInference& inference,
                   const std::vector<nn::Token>& prompt_tokens) const;

  /// The same fork, left out of `stats()` and the `prefix_cache.*`
  /// counters: for calibration prompts that are not benchmark questions
  /// (letter-token detection), so the reuse accounting stays per question.
  std::size_t fork_unrecorded(nn::GptInference& inference,
                              const std::vector<nn::Token>& prompt_tokens) const;

  /// Same contract, forking into one slot of a `BatchedInference` (the
  /// decode engine's admission path). Reuse accounting and the returned
  /// feed offset are identical to the serial overload.
  std::size_t fork(nn::BatchedInference& batch, std::size_t slot,
                   const std::vector<nn::Token>& prompt_tokens) const;

  /// Degradation-ladder rung 1: frees the encoder's K/V buffers, giving
  /// the bytes back to the memory budget. Subsequent forks run uncached
  /// (identical results, full prefill); outstanding `snapshot()` handles
  /// turn stale and fail typed rather than dangle. Idempotent; returns
  /// the bytes freed (0 when already evicted). Thread-safe against
  /// concurrent fork()s.
  std::size_t evict();
  bool evicted() const;

  /// Encoder K/V bytes currently resident (0 after eviction).
  std::size_t resident_bytes() const;

  /// Records one prompt's reuse accounting (thread-safe; used by callers
  /// that fork through `snapshot()` directly, e.g. the sampler path).
  void note_prompt(std::size_t prompt_token_count, std::size_t reused_token_count) const;

  PrefixCacheStats stats() const;

 private:
  PrefixCache(const nn::GptModel& model, std::shared_ptr<nn::KvArena> arena)
      : encoder_(model, std::move(arena)) {}

  nn::GptInference encoder_;  ///< kept alive: owns the snapshot's K/V rows
  nn::KvSnapshot snapshot_;
  /// Guards encoder_/snapshot_ lifetime against evict(): fork() holds it
  /// shared for the duration of the copy-on-fork, evict() exclusively.
  mutable std::shared_mutex evict_mutex_;
  bool evicted_ = false;  ///< guarded by evict_mutex_
  mutable std::atomic<std::uint64_t> prompts_{0};
  mutable std::atomic<std::uint64_t> prompt_tokens_{0};
  mutable std::atomic<std::uint64_t> reused_tokens_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace astromlab::eval

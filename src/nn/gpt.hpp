#pragma once
// Decoder-only transformer language model (GPT-2 family) with manual
// forward and backward passes.
//
// Architecture: token + learned positional embeddings, pre-LayerNorm blocks
// (LN → causal multi-head attention → residual, LN → GELU MLP → residual),
// final LayerNorm, LM head tied to the token embedding. Training uses full
// teacher-forced sequences; inference uses an incremental KV cache
// (`GptInference`). Targets equal to `kIgnoreTarget` are excluded from the
// loss — the SFT trainer uses this to train only on assistant spans.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/config.hpp"
#include "nn/kv_arena.hpp"
#include "nn/params.hpp"
#include "tensor/quant.hpp"
#include "util/cancel.hpp"
#include "util/resource_budget.hpp"
#include "util/rng.hpp"

namespace astromlab::nn {

using Token = std::int32_t;
inline constexpr Token kIgnoreTarget = -1;

/// KV cache storage: every buffer of cached K/V rows is charged to the
/// memory budget's KV domain through its allocator, so charge and
/// allocation are one atomic step — a throw anywhere leaves nothing
/// charged, and a release cannot be forgotten or doubled.
using KvVector =
    std::vector<float, util::TrackedAllocator<float, util::MemoryDomain::kKvCache>>;

/// Activation workspace for one (batch, seq_len) forward/backward pass.
/// Reused across steps; reallocated only when B or T grows.
struct GptActivations {
  std::size_t batch = 0;
  std::size_t seq = 0;
  // Forward buffers.
  std::vector<float> encoded;        // (B,T,C) embeddings
  std::vector<float> residual;       // (L+1,B,T,C) residual stream inputs
  std::vector<float> ln1, ln1_mean, ln1_rstd;
  std::vector<float> qkv;            // (L,B,T,3C)
  std::vector<float> att_probs;      // (L,B,NH,T,T)
  std::vector<float> atty;           // (L,B,T,C)
  std::vector<float> attproj;        // (L,B,T,C)
  std::vector<float> ln2, ln2_mean, ln2_rstd;
  std::vector<float> fch;            // (L,B,T,F) pre-GELU
  std::vector<float> fch_gelu;       // (L,B,T,F)
  std::vector<float> fcproj;         // (L,B,T,C)
  std::vector<float> lnf, lnf_mean, lnf_rstd;
  std::vector<float> logits;         // (B,T,V)
  std::vector<float> probs;          // (B,T,V)
  // Backward buffers.
  std::vector<float> d_residual;     // (B,T,C) running residual gradient
  std::vector<float> d_ln;           // (B,T,C)
  std::vector<float> d_qkv;          // (B,T,3C)
  std::vector<float> d_atty;         // (B,T,C)
  std::vector<float> d_att;          // (B,NH,T,T)
  std::vector<float> d_fch;          // (B,T,F)
  std::vector<float> d_fch_gelu;     // (B,T,F)
  std::vector<float> d_logits;       // (B,T,V)
};

class GptModel {
 public:
  explicit GptModel(GptConfig config);

  const GptConfig& config() const { return config_; }
  ParamTable& params() { return params_; }
  const ParamTable& params() const { return params_; }
  std::size_t param_count() const { return params_.total_size(); }

  /// GPT-2 initialisation: N(0, 0.02) weights, residual projections scaled
  /// by 1/sqrt(2L), zero biases, unit LayerNorm gains.
  void init_weights(util::Rng& rng);

  /// Forward pass over `tokens` (B*T ids, row-major) computing logits; if
  /// `targets` is non-null also computes mean cross-entropy over targets
  /// != kIgnoreTarget and returns it (otherwise returns 0).
  float forward(GptActivations& acts, const Token* tokens, const Token* targets,
                std::size_t batch, std::size_t seq) const;

  /// Backward pass; `forward` with targets must have been called on the
  /// same activations. Accumulates into the ParamTable gradient buffer.
  void backward(GptActivations& acts, const Token* tokens, const Token* targets,
                std::size_t batch, std::size_t seq);

  /// Mean cross-entropy of `tokens` → shifted next-token targets
  /// (convenience for perplexity evaluation; no gradients).
  float evaluate_loss(GptActivations& acts, const std::vector<Token>& tokens,
                      std::size_t batch, std::size_t seq) const;

  // Named segment indices (public for checkpointing and tests).
  struct Layout {
    std::size_t wte, wpe;
    struct Block {
      std::size_t ln1_g, ln1_b;
      std::size_t qkv_w, qkv_b;
      std::size_t attn_proj_w, attn_proj_b;
      std::size_t ln2_g, ln2_b;
      std::size_t fc_w, fc_b;
      std::size_t fc_proj_w, fc_proj_b;
    };
    std::vector<Block> blocks;
    std::size_t lnf_g, lnf_b;
  };
  const Layout& layout() const { return layout_; }

  /// Converts the model's inference weights to `dtype`.
  ///
  /// - kBf16: every parameter is rounded in place to the nearest bf16
  ///   (round-to-nearest-even), and the five large matrices of each
  ///   inference linear (qkv, attn_proj, fc, fc_proj per block, plus the
  ///   tied wte LM head) additionally get bf16 side storage consumed by the
  ///   dequant-fused kernels. Because bf16→fp32 widening is exact, the
  ///   fused path is bitwise identical to fp32 inference over the rounded
  ///   masters — quantising a checkpoint cannot change an MCQ answer
  ///   relative to a bf16-roundtripped fp32 model.
  /// - kInt8: the same five matrices are quantised per-row (absmax scale)
  ///   from the untouched fp32 masters; everything else (biases,
  ///   layernorms, wpe) stays fp32.
  /// - kF32: drops any quantised storage and restores plain fp32 compute.
  ///
  /// Training forward/backward always use the fp32 masters and are
  /// unaffected (beyond the in-place bf16 rounding for kBf16).
  void quantize_weights(tensor::WeightDtype dtype);

  tensor::WeightDtype weight_dtype() const { return weight_dtype_; }

  /// Quantised side storage for a parameter segment, or nullptr when the
  /// segment runs fp32 (always nullptr in fp32 mode).
  const tensor::QuantMatrix* quant(std::size_t segment) const {
    if (segment >= quant_.size() || quant_[segment].empty()) return nullptr;
    return &quant_[segment];
  }

 private:
  void ensure_activation_capacity(GptActivations& acts, std::size_t batch,
                                  std::size_t seq) const;

  GptConfig config_;
  ParamTable params_;
  Layout layout_;
  tensor::WeightDtype weight_dtype_ = tensor::WeightDtype::kF32;
  std::vector<tensor::QuantMatrix> quant_;  ///< indexed by segment id
};

/// Thrown when forking from a KV snapshot whose source inference has been
/// reset (or whose cached rows no longer hash to the CRC captured at
/// snapshot time): using it would silently read stale K/V rows, so the
/// fork fails loudly instead.
class StaleSnapshotError : public std::runtime_error {
 public:
  explicit StaleSnapshotError(const std::string& what) : std::runtime_error(what) {}
};

class GptInference;

/// Immutable handle to the prefix currently encoded in a `GptInference`
/// KV cache. The snapshot is zero-copy — it references the source's
/// buffers; the per-layer K/V rows are copied only when another inference
/// forks from it (copy-on-fork), so one snapshot can be shared read-only
/// by many workers. The handle carries the token sequence it encodes, a
/// CRC-32 over the referenced rows, and the source's reset generation;
/// `GptInference::fork_from` revalidates both and throws
/// `StaleSnapshotError` rather than reusing a stale prefix.
class KvSnapshot {
 public:
  KvSnapshot() = default;

  bool valid() const { return source_ != nullptr; }
  /// Number of cached positions (== tokens().size()).
  std::size_t length() const { return tokens_.size(); }
  /// The exact token sequence whose K/V rows the snapshot holds.
  const std::vector<Token>& tokens() const { return tokens_; }
  std::uint32_t crc() const { return crc_; }

 private:
  friend class GptInference;
  friend class BatchedInference;
  const GptInference* source_ = nullptr;
  std::uint64_t generation_ = 0;  ///< source reset-generation at snapshot time
  std::vector<Token> tokens_;
  std::uint32_t crc_ = 0;
};

/// Longest common prefix length of two token sequences.
std::size_t common_token_prefix(const std::vector<Token>& a, const std::vector<Token>& b);

/// Incremental single-sequence inference with a KV cache. Feed tokens one
/// at a time; logits for the latest position are available after each step.
class GptInference {
 public:
  /// Contiguous KV mode: per-layer (ctx, C) buffers, full-context charge.
  explicit GptInference(const GptModel& model);

  /// Paged KV mode: rows live in fixed-size blocks of `arena`, allocated
  /// lazily as positions are written and shared copy-on-write across forks
  /// from the same arena — forking a snapshot bumps refcounts on the
  /// prefix blocks instead of copying rows, so N sessions sharing a prefix
  /// charge the budget for it once. A null arena degrades to contiguous
  /// mode. The arena's d_model must equal the model's.
  GptInference(const GptModel& model, std::shared_ptr<KvArena> arena);

  /// Releases any held arena block references. Copying is disabled: a
  /// member-wise copy would duplicate block ids without bumping refcounts
  /// and double-release on destruction. Move transfers the references.
  ~GptInference();
  GptInference(GptInference&&) = default;
  GptInference(const GptInference&) = delete;
  GptInference& operator=(const GptInference&) = delete;
  GptInference& operator=(GptInference&&) = delete;

  /// Resets the cache to an empty sequence and invalidates every snapshot
  /// previously taken from this inference (forking one afterwards throws
  /// `StaleSnapshotError`).
  void reset();

  /// Appends one token and returns the logits over the vocabulary for the
  /// next position. `position()` tokens must be < ctx_len.
  const std::vector<float>& step(Token token);

  /// Feeds a whole prompt; returns logits after the final token. Only that
  /// one logit row is computed: the earlier positions write their K/V rows
  /// and skip the final layernorm and LM head. The returned logits and the
  /// cached K/V bytes are bitwise equal to stepping the tokens one by one.
  const std::vector<float>& prompt(const std::vector<Token>& tokens);

  /// Cancellable prompt feed: polls `cancel` between KV-cache steps and
  /// stops early once it fires, so a deadline or straggler cancellation
  /// takes effect mid-prompt instead of after the full forward pass.
  /// Callers must check `cancel->cancelled()` before using the returned
  /// logits — on early exit they are stale (or empty at position 0).
  const std::vector<float>& prompt(const std::vector<Token>& tokens,
                                   const util::CancelToken* cancel);

  /// Pointer form of the cancellable prompt feed (`count` may be 0, in
  /// which case the current logits are returned unchanged).
  const std::vector<float>& prompt(const Token* tokens, std::size_t count,
                                   const util::CancelToken* cancel);

  /// Snapshots the currently-encoded prefix (all `position()` rows of the
  /// per-layer K/V caches) as a zero-copy, CRC-tagged handle. The handle
  /// stays usable while this inference outlives it and is not reset;
  /// stepping the source *further* is fine (earlier rows are immutable).
  KvSnapshot snapshot() const;

  /// Replaces this cache's contents with the first `prefix_len` rows of
  /// `snap` (copy-on-fork) and sets `position()` to `prefix_len`, so
  /// subsequent `step`s continue bit-identically to having fed the
  /// snapshot's tokens from scratch. Throws `StaleSnapshotError` when the
  /// snapshot's source was reset or its rows fail CRC revalidation, and
  /// `std::invalid_argument` on model mismatch or excessive `prefix_len`.
  void fork_from(const KvSnapshot& snap, std::size_t prefix_len);

  /// Forks the snapshot's full length.
  void fork_from(const KvSnapshot& snap);

  /// Tokens fed since the last reset (or installed by the last fork).
  const std::vector<Token>& history() const { return history_; }

  /// Reset-generation counter (bumped by `reset()`; snapshot staleness).
  std::uint64_t generation() const { return generation_; }

  /// Test seam: overwrites one cached K value so the CRC-revalidation
  /// failure path can be exercised without guessing private layouts.
  void corrupt_kv_for_testing(std::size_t layer, std::size_t index, float value);

  /// Degradation-ladder seam: frees the per-layer K/V buffers (returning
  /// the bytes handed back to the memory budget) and invalidates every
  /// snapshot taken from this inference, exactly like reset(). The object
  /// stays usable — the next step/fork/prompt reallocates lazily — so
  /// outstanding `KvSnapshot` handles fail with `StaleSnapshotError`
  /// instead of dangling. Returns 0 when the caches are already released.
  std::size_t release_kv();

  /// Bytes currently held by this inference's K/V storage (0 after
  /// release). Contiguous mode: the full per-layer reservation. Paged
  /// mode: held blocks × block size — a block shared with other holders is
  /// counted by each holder, so the sum over sessions can exceed the
  /// arena's actual footprint (use `KvArena::total_bytes` for that).
  std::size_t kv_bytes() const;

  /// True when KV rows live in a shared paged arena.
  bool paged() const { return arena_ != nullptr; }

  std::size_t position() const { return position_; }
  const GptModel& model() const { return model_; }

 private:
  friend class BatchedInference;

  /// (Re)allocates the K/V buffers after construction or release_kv(),
  /// charging the memory budget. No-op when they are already resident.
  /// Strong guarantee: a throw mid-allocation (budget denial on a later
  /// layer) leaves the caches exactly as they were — nothing charged,
  /// nothing resident.
  void ensure_kv();

  bool kv_resident() const;

  /// Runs one token through every block: writes its K/V rows, advances
  /// `position()` and leaves the final residual in `x_`. No logits.
  void forward_token(Token token);

  /// Final layernorm + LM head over `x_` into `logits_`.
  const std::vector<float>& compute_logits();

  /// Read pointer to cached row `t` of layer `l` (valid only for written
  /// rows). Lock-free: paged mode reads the cached block pointer table.
  const float* k_row(std::size_t l, std::size_t t) const;
  const float* v_row(std::size_t l, std::size_t t) const;
  /// Write pointer for row `t` of layer `l`. Paged mode allocates the
  /// covering block on first touch and copies-on-write when it is shared.
  float* k_write_row(std::size_t l, std::size_t t);
  float* v_write_row(std::size_t l, std::size_t t);

  /// CRC-32 over the first `rows` cached rows: all K layers then all V
  /// layers, row-major — the same byte stream in both storage modes.
  std::uint32_t kv_crc(std::size_t rows) const;

  /// Paged fork fast path: drops held blocks, then shares the blocks
  /// covering `prefix_len` rows of `src` by refcount (same arena only).
  void adopt_blocks(const GptInference& src, std::size_t prefix_len);

  /// Releases every held arena block reference and clears the tables.
  void drop_held_blocks();

  const GptModel& model_;
  std::size_t position_ = 0;
  std::uint64_t generation_ = 0;  ///< incremented by reset()
  std::vector<Token> history_;    ///< tokens encoded into the cache
  // Contiguous mode: per layer cached keys/values, (ctx, C) each, charged
  // to the KV budget domain through the vector's allocator.
  std::vector<KvVector> k_cache_;
  std::vector<KvVector> v_cache_;
  // Paged mode: per layer, per block-index handles into arena_ plus the
  // cached data pointers the compute loops read without locking.
  std::shared_ptr<KvArena> arena_;
  std::vector<std::vector<KvArena::BlockId>> k_blocks_, v_blocks_;
  std::vector<std::vector<float*>> k_ptrs_, v_ptrs_;
  // Scratch.
  std::vector<float> x_, ln_, qkv_, atty_, proj_, fch_, scores_;
  std::vector<float> logits_;
};

/// Up to `max_slots` independent sequences sharing one forward pass per
/// decode step. Each slot is a full `GptInference` equivalent — its own
/// per-layer KV cache, position, history, and logits — but one `step()`
/// call advances many slots at once, turning the B per-layer gemvs of B
/// serial decodes into one `tensor::multi_gemv` per linear layer (the
/// weight matrix streams from cache once per step instead of once per
/// sequence).
///
/// Bit-identity contract: a slot's logits after any sequence of
/// feeds/forks are bitwise identical to a serial `GptInference` given the
/// same tokens, for every batch composition — `multi_gemv` reproduces the
/// serial m=1 gemv per output row exactly, and everything else
/// (layernorm, attention over the slot's own KV rows, bias/residual/GELU)
/// is computed per slot with the very same helpers `GptInference::step`
/// uses. Ragged batches are the normal case: slots advance independently,
/// each attending over its own `position(slot)` rows.
///
/// Not thread-safe: one thread drives all slots (the decode engine's
/// service thread). Slot KV caches are charged to the memory budget
/// lazily and individually, so one slot failing admission degrades that
/// slot only.
class BatchedInference {
 public:
  BatchedInference(const GptModel& model, std::size_t max_slots);

  std::size_t max_slots() const { return slots_.size(); }

  /// Feeds one token into each of `count` distinct slots and computes
  /// every fed slot's next-position logits in one shared pass. Validates
  /// all slots up front (token range, context space) and throws without
  /// mutating any slot on violation, mirroring `GptInference::step`.
  void step(const std::size_t* slots, const Token* tokens, std::size_t count);

  /// Logits for the slot's latest position (valid after a step that fed it).
  const std::vector<float>& logits(std::size_t slot) const;
  std::size_t position(std::size_t slot) const;
  const std::vector<Token>& history(std::size_t slot) const;

  /// Empties the slot (position 0, no history). KV stays resident.
  void reset_slot(std::size_t slot);

  /// Forks `snap`'s first `prefix_len` rows into the slot, exactly like
  /// `GptInference::fork_from` (same validation, same typed errors).
  void fork_slot(std::size_t slot, const KvSnapshot& snap, std::size_t prefix_len);

  /// Charges and allocates the slot's KV cache now (no-op when resident),
  /// so admission-time budget denials surface at a per-slot boundary
  /// instead of mid-step. Throws util::ResourceExhaustedError/bad_alloc.
  void ensure_slot_kv(std::size_t slot);

  /// Degradation hook: frees one slot's KV buffers back to the budget and
  /// empties the slot. Returns bytes freed (0 when already released).
  std::size_t release_slot_kv(std::size_t slot);

  /// Bytes currently held by the slot's KV cache.
  std::size_t slot_kv_bytes(std::size_t slot) const;

  /// Copies the slot's state (KV rows, position, history) into a serial
  /// inference on the same model, so `out.step()` continues bit-identically
  /// to having fed the slot's history into `out` from scratch. Invalidates
  /// snapshots previously taken from `out` (its rows are overwritten).
  void export_slot(std::size_t slot, GptInference& out) const;

  /// The inverse: copies a serial inference's state (KV rows, position,
  /// history) into the slot, so batched steps continue bit-identically to
  /// stepping `in` directly — how a serve session's conversation KV enters
  /// a batch. Charges the slot's KV lazily (may throw the budget's
  /// ResourceExhaustedError; the slot is left empty in that case).
  void import_slot(std::size_t slot, const GptInference& in);

  const GptModel& model() const { return model_; }

 private:
  struct Slot {
    std::size_t position = 0;
    std::vector<Token> history;
    // Per layer (ctx, C), charged to the KV budget domain through the
    // vector's allocator (empty when released).
    std::vector<KvVector> k_cache, v_cache;
    // Per-slot activation scratch, same shapes as GptInference's.
    std::vector<float> x, ln, qkv, atty, proj, fch, scores, logits;
  };

  const GptModel& model_;
  std::vector<Slot> slots_;
  // Pointer tables rebuilt per multi_gemv call (capacity max_slots).
  std::vector<const float*> xs_;
  std::vector<float*> ys_;
};

}  // namespace astromlab::nn

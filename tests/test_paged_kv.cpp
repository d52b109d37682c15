// Differential suite for the paged copy-on-write KV arena: a paged
// `nn::GptInference` must be bitwise indistinguishable from the contiguous
// memcpy-oracle across every lifecycle — plain decode, snapshot/fork (the
// COW block-adoption fast path vs the row-copy path), fork into a batch
// slot, evict + refault, and seeded random fork/extend/evict schedules.
// Arena refcounts and the KV budget domain are checked to return to
// baseline when sessions die, so block sharing can never leak or
// double-free budget bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "nn/gpt.hpp"
#include "nn/kv_arena.hpp"
#include "tensor/quant.hpp"
#include "util/metrics.hpp"
#include "util/resource_budget.hpp"
#include "util/rng.hpp"

namespace astromlab {
namespace {

nn::GptModel tiny_model() {
  nn::GptConfig config;
  config.vocab_size = 96;
  config.ctx_len = 96;
  config.d_model = 16;
  config.n_heads = 2;
  config.n_layers = 2;
  config.d_ff = 32;
  nn::GptModel model(config);
  util::Rng rng(91);
  model.init_weights(rng);
  return model;
}

std::vector<nn::Token> random_prompt(std::mt19937_64& rng, std::size_t len,
                                     std::size_t vocab) {
  std::uniform_int_distribution<nn::Token> pick(0, static_cast<nn::Token>(vocab - 1));
  std::vector<nn::Token> prompt(len);
  for (auto& t : prompt) t = pick(rng);
  return prompt;
}

nn::Token argmax_token(const std::vector<float>& logits) {
  return static_cast<nn::Token>(std::max_element(logits.begin(), logits.end()) -
                                logits.begin());
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::size_t kv_domain_bytes() {
  return util::ResourceBudget::instance().domain_bytes(util::MemoryDomain::kKvCache);
}

// Block size 5 deliberately does not divide ctx_len or typical prompt
// lengths, so boundary blocks are routinely shared mid-block on fork —
// the case COW must get right.
constexpr std::size_t kBlockTokens = 5;

TEST(PagedKv, StepLogitsMatchContiguousOracleBitwise) {
  const nn::GptModel model = tiny_model();
  auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
  nn::GptInference paged(model, arena);
  nn::GptInference oracle(model);
  std::mt19937_64 rng(7);
  const std::vector<nn::Token> prompt = random_prompt(rng, 41, model.config().vocab_size);
  for (const nn::Token t : prompt) {
    const std::vector<float>& got = paged.step(t);
    const std::vector<float>& want = oracle.step(t);
    ASSERT_TRUE(bitwise_equal(got, want));
  }
}

TEST(PagedKv, PromptMatchesStepByStepForEveryLayoutAndDtype) {
  // prompt() computes the logit row of its last token only. What it returns
  // and every K/V byte it writes must equal feeding the same tokens through
  // step() one at a time, which computes a row per token.
  util::metrics::Counter& logit_rows = util::metrics::registry().counter("nn.logit_rows");
  util::metrics::Counter& prefill = util::metrics::registry().counter("nn.prefill_tokens");
  for (const tensor::WeightDtype dtype :
       {tensor::WeightDtype::kF32, tensor::WeightDtype::kBf16, tensor::WeightDtype::kInt8}) {
    nn::GptModel model = tiny_model();
    model.quantize_weights(dtype);
    std::mt19937_64 rng(13);
    const std::vector<nn::Token> head = random_prompt(rng, 17, model.config().vocab_size);
    const std::vector<nn::Token> tail = random_prompt(rng, 9, model.config().vocab_size);

    nn::GptInference oracle(model);
    std::vector<float> head_logits, tail_logits;
    for (const nn::Token t : head) head_logits = oracle.step(t);
    const std::uint32_t head_crc = oracle.snapshot().crc();
    for (const nn::Token t : tail) tail_logits = oracle.step(t);
    const std::uint32_t tail_crc = oracle.snapshot().crc();
    const std::vector<float> next_logits = oracle.step(7);
    const std::uint32_t next_crc = oracle.snapshot().crc();

    for (const bool paged : {false, true}) {
      SCOPED_TRACE(std::string(tensor::weight_dtype_name(dtype)) +
                   (paged ? " paged" : " contiguous"));
      auto arena = paged ? std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model)
                         : nullptr;
      nn::GptInference fed(model, arena);
      const std::uint64_t rows_before = logit_rows.value();
      const std::uint64_t prefill_before = prefill.value();
      EXPECT_TRUE(bitwise_equal(fed.prompt(head), head_logits));
      EXPECT_EQ(fed.snapshot().crc(), head_crc);
      EXPECT_EQ(logit_rows.value() - rows_before, 1u);
      EXPECT_EQ(prefill.value() - prefill_before, head.size());
      // Extending a fed prompt, then stepping on, stays on the oracle.
      EXPECT_TRUE(bitwise_equal(fed.prompt(tail.data(), tail.size(), nullptr), tail_logits));
      EXPECT_EQ(fed.snapshot().crc(), tail_crc);
      EXPECT_TRUE(bitwise_equal(fed.step(7), next_logits));
      EXPECT_EQ(fed.snapshot().crc(), next_crc);
      EXPECT_EQ(logit_rows.value() - rows_before, 3u);
    }
  }
}

TEST(PagedKv, ForkSharesBlocksAndMatchesMemcpyOracleBitwise) {
  const nn::GptModel model = tiny_model();
  auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
  std::mt19937_64 rng(11);
  const std::vector<nn::Token> prefix = random_prompt(rng, 23, model.config().vocab_size);

  nn::GptInference paged_src(model, arena);
  nn::GptInference oracle_src(model);  // contiguous: forks via memcpy
  paged_src.prompt(prefix);
  oracle_src.prompt(prefix);

  const std::size_t blocks_before_fork = arena->live_blocks();
  nn::GptInference paged_fork(model, arena);
  nn::GptInference oracle_fork(model);
  paged_fork.fork_from(paged_src.snapshot());
  oracle_fork.fork_from(oracle_src.snapshot());
  // The COW fast path shares blocks by refcount: a fork allocates nothing.
  EXPECT_EQ(arena->live_blocks(), blocks_before_fork);

  // Diverging decodes stay bitwise equal to their oracles, and the
  // source's continuation is unaffected by the fork's writes into the
  // shared boundary block (copy-on-write isolates them).
  const std::vector<float>* fork_logits = &paged_fork.step(3);
  const std::vector<float>* oracle_fork_logits = &oracle_fork.step(3);
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(bitwise_equal(*fork_logits, *oracle_fork_logits));
    const nn::Token next = argmax_token(*fork_logits);
    fork_logits = &paged_fork.step(next);
    oracle_fork_logits = &oracle_fork.step(next);
  }
  const std::vector<float>* src_logits = &paged_src.step(5);
  const std::vector<float>* oracle_src_logits = &oracle_src.step(5);
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(bitwise_equal(*src_logits, *oracle_src_logits));
    const nn::Token next = argmax_token(*src_logits);
    src_logits = &paged_src.step(next);
    oracle_src_logits = &oracle_src.step(next);
  }
}

TEST(PagedKv, ManyForksShareOnePrefixCopy) {
  const nn::GptModel model = tiny_model();
  auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
  std::mt19937_64 rng(13);
  const std::vector<nn::Token> prefix = random_prompt(rng, 40, model.config().vocab_size);

  auto src = std::make_unique<nn::GptInference>(model, arena);
  src->prompt(prefix);
  const std::size_t prefix_blocks = arena->live_blocks();
  const nn::KvSnapshot snap = src->snapshot();

  std::vector<std::unique_ptr<nn::GptInference>> forks;
  for (std::size_t i = 0; i < 16; ++i) {
    forks.push_back(std::make_unique<nn::GptInference>(model, arena));
    forks.back()->fork_from(snap);
  }
  // 16 forks of a 40-token prefix added zero blocks; each fork's first
  // write will COW at most one boundary block per layer per K/V side.
  EXPECT_EQ(arena->live_blocks(), prefix_blocks);
  for (auto& fork : forks) fork->step(1);
  const std::size_t after_write = arena->live_blocks();
  EXPECT_LE(after_write, prefix_blocks + 16 * model.config().n_layers * 2);

  // Tear down: every fork's refs release; the source alone keeps the
  // prefix alive, then releasing it empties the arena.
  forks.clear();
  EXPECT_EQ(arena->live_blocks(), prefix_blocks);
  src.reset();
  EXPECT_EQ(arena->live_blocks(), 0u);
  EXPECT_EQ(arena->total_bytes(), 0u);
}

TEST(PagedKv, ForkIntoBatchSlotMatchesSerialOracle) {
  const nn::GptModel model = tiny_model();
  auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
  std::mt19937_64 rng(17);
  const std::vector<nn::Token> prefix = random_prompt(rng, 19, model.config().vocab_size);

  nn::GptInference paged_src(model, arena);
  paged_src.prompt(prefix);

  nn::GptInference oracle(model);
  oracle.prompt(prefix);

  nn::BatchedInference batch(model, 2);
  batch.fork_slot(0, paged_src.snapshot(), prefix.size());
  const std::size_t slot = 0;
  nn::Token tok = 3;
  for (std::size_t i = 0; i < 10; ++i) {
    batch.step(&slot, &tok, 1);
    const std::vector<float>& want = oracle.step(tok);
    ASSERT_TRUE(bitwise_equal(batch.logits(0), want));
    tok = argmax_token(want);
  }
}

TEST(PagedKv, EvictRefaultReleasesBlocksAndRecovers) {
  const nn::GptModel model = tiny_model();
  const std::size_t kv_base = kv_domain_bytes();
  auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
  std::mt19937_64 rng(19);
  const std::vector<nn::Token> prompt = random_prompt(rng, 31, model.config().vocab_size);

  nn::GptInference paged(model, arena);
  paged.prompt(prompt);
  EXPECT_GT(paged.kv_bytes(), 0u);
  EXPECT_EQ(kv_domain_bytes(), kv_base + arena->total_bytes());
  const nn::KvSnapshot snap = paged.snapshot();

  const std::size_t freed = paged.release_kv();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(paged.kv_bytes(), 0u);
  EXPECT_EQ(arena->live_blocks(), 0u);
  EXPECT_EQ(kv_domain_bytes(), kv_base);
  // The snapshot's rows are gone: forking must fail typed, not dangle.
  nn::GptInference other(model, arena);
  EXPECT_THROW(other.fork_from(snap), nn::StaleSnapshotError);

  // Refault: the released inference re-encodes from scratch and matches
  // the contiguous oracle bitwise.
  nn::GptInference oracle(model);
  const std::vector<float>* got = nullptr;
  const std::vector<float>* want = nullptr;
  for (const nn::Token t : prompt) {
    got = &paged.step(t);
    want = &oracle.step(t);
  }
  ASSERT_TRUE(bitwise_equal(*got, *want));
}

TEST(PagedKv, CorruptedPagedRowFailsSnapshotCrc) {
  const nn::GptModel model = tiny_model();
  auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
  nn::GptInference paged(model, arena);
  std::mt19937_64 rng(23);
  paged.prompt(random_prompt(rng, 12, model.config().vocab_size));
  const nn::KvSnapshot snap = paged.snapshot();
  paged.corrupt_kv_for_testing(0, 3, 1234.5f);
  nn::GptInference fork(model, arena);
  EXPECT_THROW(fork.fork_from(snap), nn::StaleSnapshotError);
}

TEST(PagedKv, MixedModeForksCopyRowsBothWays) {
  const nn::GptModel model = tiny_model();
  auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
  std::mt19937_64 rng(29);
  const std::vector<nn::Token> prefix = random_prompt(rng, 27, model.config().vocab_size);

  // Contiguous source -> paged fork.
  nn::GptInference contiguous_src(model);
  contiguous_src.prompt(prefix);
  nn::GptInference paged_fork(model, arena);
  paged_fork.fork_from(contiguous_src.snapshot());
  // Paged source -> contiguous fork.
  nn::GptInference paged_src(model, arena);
  paged_src.prompt(prefix);
  nn::GptInference contiguous_fork(model);
  contiguous_fork.fork_from(paged_src.snapshot());

  nn::GptInference oracle(model);
  oracle.prompt(prefix);
  const std::vector<float>& want = oracle.step(7);
  ASSERT_TRUE(bitwise_equal(paged_fork.step(7), want));
  ASSERT_TRUE(bitwise_equal(contiguous_fork.step(7), want));
}

// Seeded random schedules: a pool of paged sessions forking off each
// other, extending, and evicting, each shadowed by a contiguous twin fed
// the identical operations. After every operation the acting session's
// logits must equal its twin's bitwise, and when the pool drains the arena
// and the KV budget domain must both return to baseline.
TEST(PagedKv, SeededForkExtendEvictSchedulesMatchOracle) {
  const nn::GptModel model = tiny_model();
  const std::size_t vocab = model.config().vocab_size;
  const std::size_t ctx = model.config().ctx_len;
  const std::size_t kv_base = kv_domain_bytes();

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto arena = std::make_shared<nn::KvArena>(kBlockTokens, model.config().d_model);
    struct Pair {
      std::unique_ptr<nn::GptInference> paged;
      std::unique_ptr<nn::GptInference> twin;
    };
    std::vector<Pair> pool;
    for (std::size_t i = 0; i < 4; ++i) {
      pool.push_back({std::make_unique<nn::GptInference>(model, arena),
                      std::make_unique<nn::GptInference>(model)});
    }
    std::mt19937_64 rng(seed * 977);
    std::uniform_int_distribution<std::size_t> pick_session(0, pool.size() - 1);
    std::uniform_int_distribution<int> pick_op(0, 9);
    std::uniform_int_distribution<nn::Token> pick_tok(0, static_cast<nn::Token>(vocab - 1));

    for (std::size_t op = 0; op < 60; ++op) {
      Pair& p = pool[pick_session(rng)];
      const int action = pick_op(rng);
      if (action < 6) {  // extend by a few tokens
        if (p.paged->position() + 4 >= ctx) continue;
        for (int i = 0; i < 3; ++i) {
          const nn::Token t = pick_tok(rng);
          const std::vector<float>& got = p.paged->step(t);
          const std::vector<float>& want = p.twin->step(t);
          ASSERT_TRUE(bitwise_equal(got, want))
              << "seed=" << seed << " op=" << op << " divergence at position "
              << p.paged->position();
        }
      } else if (action < 9) {  // fork from another session's snapshot
        Pair& src = pool[pick_session(rng)];
        if (&src == &p || src.paged->position() == 0) continue;
        p.paged->fork_from(src.paged->snapshot());
        p.twin->fork_from(src.twin->snapshot());
      } else {  // evict
        p.paged->release_kv();
        p.twin->release_kv();
      }
    }
    pool.clear();
    ASSERT_EQ(arena->live_blocks(), 0u) << "seed=" << seed;
    ASSERT_EQ(kv_domain_bytes(), kv_base) << "seed=" << seed;
  }
}

TEST(PagedKv, ArenaRejectsZeroGeometryAndDeadBlocks) {
  EXPECT_THROW(nn::KvArena(0, 8), std::invalid_argument);
  EXPECT_THROW(nn::KvArena(8, 0), std::invalid_argument);
  nn::KvArena arena(4, 8);
  const nn::KvArena::WriteRef ref = arena.alloc_ref();
  EXPECT_EQ(arena.ref_count(ref.id), 1u);
  arena.release(ref.id);
  EXPECT_THROW(arena.release(ref.id), std::logic_error);
  EXPECT_THROW(arena.add_ref(ref.id), std::logic_error);
  EXPECT_THROW(arena.write_ref(ref.id), std::logic_error);
}

TEST(PagedKv, WriteRefCopiesOnlyWhenShared) {
  nn::KvArena arena(4, 8);
  nn::KvArena::WriteRef a = arena.alloc_ref();
  a.data[0] = 42.0f;
  // Sole holder: write_ref returns the same block.
  const nn::KvArena::WriteRef same = arena.write_ref(a.id);
  EXPECT_EQ(same.id, a.id);
  // Shared: write_ref peels off a private copy carrying the bytes.
  arena.add_ref(a.id);
  const nn::KvArena::WriteRef copy = arena.write_ref(a.id);
  EXPECT_NE(copy.id, a.id);
  EXPECT_EQ(copy.data[0], 42.0f);
  EXPECT_EQ(arena.ref_count(a.id), 1u);
  EXPECT_EQ(arena.ref_count(copy.id), 1u);
  copy.data[0] = 7.0f;
  EXPECT_EQ(arena.data(a.id)[0], 42.0f);  // original holder unaffected
  arena.release(a.id);
  arena.release(copy.id);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

}  // namespace
}  // namespace astromlab

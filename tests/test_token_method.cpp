// Token (logit) benchmarking method: letter-token variant detection and
// deterministic argmax evaluation.
#include <gtest/gtest.h>

#include "corpus/corpora.hpp"
#include "eval/prompts.hpp"
#include "eval/token_method.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace astromlab::eval {
namespace {

struct TinyWorld {
  corpus::KnowledgeBase kb;
  corpus::McqSplit mcqs;
  tokenizer::BpeTokenizer tok;
};

TinyWorld make_world(std::size_t vocab = 420) {
  TinyWorld world;
  corpus::KbConfig kb_config;
  kb_config.n_topics = 5;
  kb_config.entities_per_topic = 3;
  kb_config.facts_per_entity = 2;
  kb_config.seed = 51;
  world.kb = corpus::KnowledgeBase::generate(kb_config);
  corpus::McqGenConfig mcq_config;
  mcq_config.questions_per_topic = 2;
  mcq_config.seed = 52;
  world.mcqs = corpus::generate_mcqs(world.kb, mcq_config);
  tokenizer::BpeTrainConfig tok_config;
  tok_config.vocab_size = vocab;
  world.tok = tokenizer::BpeTokenizer::train(
      corpus::build_tokenizer_training_text(world.kb, world.mcqs.practice, 53), tok_config);
  return world;
}

nn::GptModel make_model(const TinyWorld& world, std::size_t ctx = 448) {
  nn::GptConfig config;
  config.vocab_size = world.tok.vocab_size();
  config.ctx_len = ctx;
  config.d_model = 24;
  config.n_heads = 2;
  config.n_layers = 1;
  config.d_ff = 48;
  nn::GptModel model(config);
  util::Rng rng(54);
  model.init_weights(rng);
  return model;
}

TEST(LetterDetection, ReturnsUsableTokensForTrainedVocab) {
  const TinyWorld world = make_world();
  const nn::GptModel model = make_model(world);
  const auto fewshot = pick_fewshot_examples(world.mcqs.practice);
  const LetterTokens letters =
      detect_letter_tokens(model, world.tok, world.mcqs.practice, fewshot);
  // All four ids valid and distinct.
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(letters.ids[static_cast<std::size_t>(i)], 0);
    EXPECT_LT(static_cast<std::size_t>(letters.ids[static_cast<std::size_t>(i)]),
              world.tok.vocab_size());
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NE(letters.ids[static_cast<std::size_t>(i)],
                letters.ids[static_cast<std::size_t>(j)]);
    }
  }
  // Exactly one representation mode is active.
  EXPECT_NE(letters.leading_space, letters.feed_space_first);
  // The resolved ids decode back to the letters.
  for (int i = 0; i < 4; ++i) {
    const std::string text = world.tok.decode_token(letters.ids[static_cast<std::size_t>(i)]);
    const std::string expected =
        (letters.leading_space ? std::string(" ") : std::string()) +
        static_cast<char>('A' + i);
    EXPECT_EQ(text, expected);
  }
}

TEST(LetterDetection, FallsBackToBareLettersWithoutSpacedMerges) {
  // A byte-only tokenizer (vocab 256 + specials, no merges) cannot contain
  // " A" as a single token; the detector must pick the bare letters and
  // request an explicit space feed.
  const TinyWorld world = make_world(/*vocab=*/263);  // 256 bytes + specials
  ASSERT_FALSE(world.tok.token_to_id(" A").has_value());
  const nn::GptModel model = make_model(world);
  const auto fewshot = pick_fewshot_examples(world.mcqs.practice);
  const LetterTokens letters =
      detect_letter_tokens(model, world.tok, world.mcqs.practice, fewshot);
  EXPECT_TRUE(letters.feed_space_first);
  EXPECT_FALSE(letters.leading_space);
  EXPECT_EQ(world.tok.decode_token(letters.ids[0]), "A");
}

TEST(LetterDetection, ForkingThePrefixCacheMatchesColdPrefills) {
  // At this vocabulary both letter families exist, so detection really
  // runs its calibration prefills instead of deciding from the vocabulary
  // alone, and the model ranks letters in its top 10 (non-zero evidence).
  const TinyWorld world = make_world(/*vocab=*/500);
  const nn::GptModel model = make_model(world, /*ctx=*/1024);
  ASSERT_TRUE(world.tok.token_to_id(" D").has_value());
  const auto fewshot = pick_fewshot_examples(world.mcqs.practice);
  const auto cache = PrefixCache::build(
      model, world.tok,
      {build_token_prompt(world.mcqs.benchmark[0], fewshot),
       build_token_prompt(world.mcqs.benchmark[1], fewshot)});
  ASSERT_NE(cache, nullptr);

  util::metrics::Counter& evidence =
      util::metrics::registry().counter("eval.letter_detection_evidence");
  util::metrics::Counter& prefill = util::metrics::registry().counter("nn.prefill_tokens");
  std::uint64_t evidence_before = evidence.value();
  std::uint64_t prefill_before = prefill.value();
  const LetterTokens cold = detect_letter_tokens(model, world.tok, world.mcqs.practice, fewshot);
  const std::uint64_t cold_evidence = evidence.value() - evidence_before;
  const std::uint64_t cold_prefill = prefill.value() - prefill_before;
  evidence_before = evidence.value();
  prefill_before = prefill.value();
  const LetterTokens forked =
      detect_letter_tokens(model, world.tok, world.mcqs.practice, fewshot, cache.get());
  const std::uint64_t forked_evidence = evidence.value() - evidence_before;
  const std::uint64_t forked_prefill = prefill.value() - prefill_before;

  EXPECT_EQ(cold.ids, forked.ids);
  EXPECT_EQ(cold.leading_space, forked.leading_space);
  EXPECT_EQ(cold.feed_space_first, forked.feed_space_first);
  EXPECT_GT(cold_evidence, 0u);
  EXPECT_EQ(cold_evidence, forked_evidence);
  // The forks skipped the shared block, and the cache's per-question
  // accounting left them out.
  EXPECT_LT(forked_prefill, cold_prefill);
  EXPECT_EQ(cache->stats().prompts, 0u);
}

TEST(TokenPredict, DeterministicAndInRange) {
  const TinyWorld world = make_world();
  const nn::GptModel model = make_model(world);
  const auto fewshot = pick_fewshot_examples(world.mcqs.practice);
  const LetterTokens letters =
      detect_letter_tokens(model, world.tok, world.mcqs.practice, fewshot);
  for (const corpus::McqItem& item : world.mcqs.benchmark) {
    const int a = token_predict(model, world.tok, letters, item, fewshot);
    const int b = token_predict(model, world.tok, letters, item, fewshot);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, -1);
    EXPECT_LE(a, 3);
  }
}

TEST(TokenPredict, OverlongPromptYieldsNoAnswer) {
  const TinyWorld world = make_world();
  const nn::GptModel model = make_model(world, /*ctx=*/16);  // far too small
  const auto fewshot = pick_fewshot_examples(world.mcqs.practice);
  LetterTokens letters;
  letters.ids = {static_cast<tokenizer::TokenId>('A'), static_cast<tokenizer::TokenId>('B'),
                 static_cast<tokenizer::TokenId>('C'), static_cast<tokenizer::TokenId>('D')};
  const int predicted =
      token_predict(model, world.tok, letters, world.mcqs.benchmark.front(), fewshot);
  EXPECT_EQ(predicted, -1);
}

TEST(RunTokenBenchmark, ProducesOneResultPerQuestion) {
  const TinyWorld world = make_world();
  const nn::GptModel model = make_model(world);
  const auto results =
      run_token_benchmark(model, world.tok, world.mcqs.benchmark, world.mcqs.practice);
  ASSERT_EQ(results.size(), world.mcqs.benchmark.size());
  for (std::size_t q = 0; q < results.size(); ++q) {
    EXPECT_EQ(results[q].correct, static_cast<int>(world.mcqs.benchmark[q].correct));
    EXPECT_EQ(results[q].tier, world.mcqs.benchmark[q].tier);
  }
}

TEST(RunTokenBenchmark, UntrainedModelScoresNearChance) {
  // Sanity bound: with 4 options a random-weight model cannot exceed
  // chance by much on 10 questions — but the real assertion is that it
  // answers every question (the prompt machinery works end-to-end).
  const TinyWorld world = make_world();
  const nn::GptModel model = make_model(world);
  const auto results =
      run_token_benchmark(model, world.tok, world.mcqs.benchmark, world.mcqs.practice);
  std::size_t answered = 0;
  for (const auto& result : results) answered += result.predicted >= 0;
  EXPECT_EQ(answered, results.size());
}

}  // namespace
}  // namespace astromlab::eval

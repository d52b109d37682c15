// Run-wide tracing/metrics layer: nearest-rank percentile math, counter
// and histogram semantics, the Chrome trace_event JSON document, and the
// core contract — tracing is a pure observer, so benchmark scores and
// journal bytes are bit-identical with the session on or off, serial or
// parallel.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "corpus/corpora.hpp"
#include "eval/journal.hpp"
#include "eval/token_method.hpp"
#include "json/json.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace astromlab {
namespace {

namespace fs = std::filesystem;
namespace metrics = util::metrics;
namespace trace = util::trace;

TEST(Metrics, NearestRankIndexMatchesDefinition) {
  // ceil(q*n) - 1 with exact ranks landing on their own index: the binary
  // representation of 0.025 * 1000 is slightly above 25, which a naive
  // ceil would push to index 25 instead of 24.
  EXPECT_EQ(metrics::nearest_rank_index(0.025, 1000), 24u);
  EXPECT_EQ(metrics::nearest_rank_index(0.975, 1000), 974u);
  EXPECT_EQ(metrics::nearest_rank_index(0.50, 4), 1u);
  EXPECT_EQ(metrics::nearest_rank_index(0.50, 5), 2u);
  EXPECT_EQ(metrics::nearest_rank_index(1.0, 5), 4u);
  EXPECT_EQ(metrics::nearest_rank_index(0.99, 1), 0u);
  EXPECT_EQ(metrics::nearest_rank_index(0.0, 5), 0u);
  // Out-of-range q clamps rather than indexing past the end.
  EXPECT_EQ(metrics::nearest_rank_index(2.0, 5), 4u);
}

TEST(Metrics, PercentileSortedPicksOrderStatistics) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_DOUBLE_EQ(metrics::percentile_sorted(sorted, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(metrics::percentile_sorted(sorted, 0.95), 10.0);
  EXPECT_DOUBLE_EQ(metrics::percentile_sorted(sorted, 0.10), 1.0);
  EXPECT_DOUBLE_EQ(metrics::percentile_sorted({}, 0.50), 0.0);
}

TEST(Metrics, CounterIsThreadSafe) {
  metrics::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 1000; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 8000u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Metrics, HistogramSnapshotReportsPercentiles) {
  metrics::Histogram histogram;
  // 1..100 recorded out of order: snapshot sorts internally.
  for (int i = 100; i >= 1; --i) histogram.record(static_cast<double>(i));
  const metrics::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.p50, 50.0);
  EXPECT_DOUBLE_EQ(snap.p95, 95.0);
  EXPECT_DOUBLE_EQ(snap.p99, 99.0);

  histogram.reset();
  EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST(Metrics, SnapshotAndResetDrainsAtomically) {
  metrics::Histogram histogram;
  for (int i = 1; i <= 10; ++i) histogram.record(static_cast<double>(i));
  const metrics::HistogramSnapshot drained = histogram.snapshot_and_reset();
  EXPECT_EQ(drained.count, 10u);
  EXPECT_DOUBLE_EQ(drained.sum, 55.0);
  EXPECT_DOUBLE_EQ(drained.min, 1.0);
  EXPECT_DOUBLE_EQ(drained.max, 10.0);
  // The drain leaves the histogram empty: the next interval starts fresh.
  EXPECT_EQ(histogram.snapshot().count, 0u);
  histogram.record(42.0);
  const metrics::HistogramSnapshot next = histogram.snapshot_and_reset();
  EXPECT_EQ(next.count, 1u);
  EXPECT_DOUBLE_EQ(next.p50, 42.0);
  EXPECT_EQ(histogram.snapshot_and_reset().count, 0u);  // empty drain is fine
}

TEST(Metrics, RegistryReturnsStableReferences) {
  metrics::Counter& a = metrics::registry().counter("test.registry_stable");
  metrics::Counter& b = metrics::registry().counter("test.registry_stable");
  EXPECT_EQ(&a, &b);
  const std::uint64_t before = a.value();
  b.add(3);
  EXPECT_EQ(a.value(), before + 3);

  metrics::Histogram& h = metrics::registry().histogram("test.registry_hist");
  h.record(1.5);
  bool found = false;
  for (const auto& [name, snap] : metrics::registry().histograms()) {
    if (name == "test.registry_hist") {
      found = true;
      EXPECT_GE(snap.count, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Trace, DisabledSessionRecordsNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    const trace::Span span("test.disabled", "test");
  }
  EXPECT_EQ(trace::event_count(), 0u);
  EXPECT_EQ(trace::stop(), "");
}

TEST(Trace, DocumentIsValidChromeTraceJson) {
  const fs::path path =
      fs::temp_directory_path() / ("astromlab_trace_" + std::to_string(::getpid()) + ".json");
  trace::start(path);
  {
    const trace::Span outer("test.outer", "test", "q", 7);
    const trace::Span inner("test.inner", "test");
  }
  std::thread worker([] { const trace::Span span("test.worker", "test"); });
  worker.join();
  EXPECT_EQ(trace::event_count(), 3u);
  const std::string doc = trace::stop();
  ASSERT_FALSE(doc.empty());
  // stop() also wrote the same document to the session path.
  EXPECT_EQ(util::read_text_file(path), doc);
  fs::remove(path);

  const json::Value parsed = json::parse(doc);
  const json::Value* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items().size(), 3u);
  bool saw_arg = false;
  for (const json::Value& e : events->items()) {
    EXPECT_FALSE(e.get_string("name", "").empty());
    EXPECT_FALSE(e.get_string("cat", "").empty());
    EXPECT_EQ(e.get_string("ph", ""), "X");
    EXPECT_GE(e.get_number("ts", -1.0), 0.0);
    EXPECT_GE(e.get_number("dur", -1.0), 0.0);
    EXPECT_EQ(e.get_number("pid", 0.0), 1.0);
    if (const json::Value* args = e.find("args")) {
      EXPECT_EQ(args->get_number("q", 0.0), 7.0);
      saw_arg = true;
    }
  }
  EXPECT_TRUE(saw_arg);

  // The document embeds the metrics snapshot alongside the timeline.
  const json::Value* embedded = parsed.find("metrics");
  ASSERT_NE(embedded, nullptr);
  EXPECT_NE(embedded->find("counters"), nullptr);
  EXPECT_NE(embedded->find("histograms"), nullptr);

  // The session is closed: later spans cost nothing and record nothing.
  EXPECT_FALSE(trace::enabled());
  { const trace::Span span("test.after", "test"); }
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST(Trace, PauseKeepsBufferedEventsAndResumeRearms) {
  trace::start({});
  { const trace::Span span("test.before_pause", "test"); }
  trace::pause();
  EXPECT_FALSE(trace::enabled());
  { const trace::Span span("test.while_paused", "test"); }
  EXPECT_EQ(trace::event_count(), 1u);  // paused span not recorded
  trace::resume();
  EXPECT_TRUE(trace::enabled());
  { const trace::Span span("test.after_resume", "test"); }
  EXPECT_EQ(trace::event_count(), 2u);
  EXPECT_FALSE(trace::stop().empty());  // paused session still stops cleanly

  // resume() without an open session must not arm tracing.
  trace::resume();
  EXPECT_FALSE(trace::enabled());
}

TEST(Trace, RestartDropsPreviousEvents) {
  trace::start({});
  { const trace::Span span("test.first", "test"); }
  EXPECT_EQ(trace::event_count(), 1u);
  trace::start({});
  EXPECT_EQ(trace::event_count(), 0u);
  trace::finish();
  EXPECT_FALSE(trace::enabled());
}

// ---------------------------------------------------------------------------
// The observer contract, end to end through the real token-method runner.

struct TinyWorld {
  corpus::KnowledgeBase kb;
  corpus::McqSplit mcqs;
  tokenizer::BpeTokenizer tok;
};

TinyWorld make_eval_world() {
  TinyWorld world;
  corpus::KbConfig kb_config;
  kb_config.n_topics = 4;
  kb_config.entities_per_topic = 3;
  kb_config.facts_per_entity = 2;
  kb_config.seed = 61;
  world.kb = corpus::KnowledgeBase::generate(kb_config);
  corpus::McqGenConfig mcq_config;
  mcq_config.questions_per_topic = 2;
  mcq_config.seed = 62;
  world.mcqs = corpus::generate_mcqs(world.kb, mcq_config);
  tokenizer::BpeTrainConfig tok_config;
  tok_config.vocab_size = 420;
  world.tok = tokenizer::BpeTokenizer::train(
      corpus::build_tokenizer_training_text(world.kb, world.mcqs.practice, 63), tok_config);
  return world;
}

nn::GptModel make_eval_model(const TinyWorld& world) {
  nn::GptConfig config;
  config.vocab_size = world.tok.vocab_size();
  config.ctx_len = 384;
  config.d_model = 24;
  config.n_heads = 2;
  config.n_layers = 1;
  config.d_ff = 48;
  nn::GptModel model(config);
  util::Rng rng(64);
  model.init_weights(rng);
  return model;
}

TEST(Trace, TracingIsAPureObserverOfTheTokenBenchmark) {
  const TinyWorld world = make_eval_world();
  const nn::GptModel model = make_eval_model(world);
  const fs::path dir =
      fs::temp_directory_path() / ("astromlab_trace_obs_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  const auto run = [&](const fs::path& journal_path, bool traced, std::size_t workers) {
    if (traced) trace::start({});
    eval::EvalJournal journal(journal_path);
    eval::EvalRunOptions opts;
    opts.workers = workers;
    const auto results =
        eval::run_token_benchmark(model, world.tok, world.mcqs.benchmark,
                                  world.mcqs.practice, &journal, {}, opts);
    if (traced) {
      EXPECT_GT(trace::event_count(), 0u);
      trace::finish();
    }
    return results;
  };

  const auto plain = run(dir / "plain.jsonl", /*traced=*/false, /*workers=*/0);
  const auto traced = run(dir / "traced.jsonl", /*traced=*/true, /*workers=*/0);
  const auto traced_par = run(dir / "traced_par.jsonl", /*traced=*/true, /*workers=*/3);

  ASSERT_EQ(plain.size(), traced.size());
  ASSERT_EQ(plain.size(), traced_par.size());
  for (std::size_t q = 0; q < plain.size(); ++q) {
    EXPECT_EQ(plain[q].predicted, traced[q].predicted) << "question " << q;
    EXPECT_EQ(plain[q].predicted, traced_par[q].predicted) << "question " << q;
    EXPECT_EQ(plain[q].correct, traced[q].correct) << "question " << q;
    EXPECT_EQ(plain[q].method, traced[q].method) << "question " << q;
    EXPECT_EQ(plain[q].method, traced_par[q].method) << "question " << q;
  }
  // Byte-identical journals: tracing never leaks into the artefacts.
  const std::string plain_bytes = util::read_text_file(dir / "plain.jsonl");
  EXPECT_EQ(plain_bytes, util::read_text_file(dir / "traced.jsonl"));
  EXPECT_EQ(plain_bytes, util::read_text_file(dir / "traced_par.jsonl"));

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Trace, EvalRunPopulatesQuestionMetrics) {
  const TinyWorld world = make_eval_world();
  const nn::GptModel model = make_eval_model(world);
  metrics::Counter& completed = metrics::registry().counter("eval.questions_completed");
  metrics::Counter& prefill = metrics::registry().counter("nn.prefill_tokens");
  metrics::Counter& logit_rows = metrics::registry().counter("nn.logit_rows");
  const std::uint64_t before = completed.value();
  const std::uint64_t prefill_before = prefill.value();
  const std::uint64_t rows_before = logit_rows.value();
  const auto before_hist =
      metrics::registry().histogram("eval.question_seconds").snapshot().count;

  eval::SupervisorStats stats;
  eval::run_token_benchmark(model, world.tok, world.mcqs.benchmark, world.mcqs.practice,
                            nullptr, {}, {}, nullptr, &stats);

  EXPECT_EQ(completed.value(), before + world.mcqs.benchmark.size());
  // Each prompt computes the logit row of its last token only: far fewer
  // rows than prompt tokens fed.
  const std::uint64_t rows = logit_rows.value() - rows_before;
  EXPECT_GT(rows, 0u);
  EXPECT_LT(rows * 10, prefill.value() - prefill_before);
  const auto snap = metrics::registry().histogram("eval.question_seconds").snapshot();
  EXPECT_EQ(snap.count, before_hist + world.mcqs.benchmark.size());
  EXPECT_EQ(stats.completed_questions, world.mcqs.benchmark.size());
  EXPECT_GT(stats.latency_p50_s, 0.0);
  EXPECT_GE(stats.latency_p95_s, stats.latency_p50_s);
  EXPECT_GE(stats.latency_p99_s, stats.latency_p95_s);
}

}  // namespace
}  // namespace astromlab

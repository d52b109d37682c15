// In-process integration tests for the serve subsystem: HTTP plumbing,
// admission control, deadlines, sessions, hot swap, and graceful drain.
// Servers bind port 0 (ephemeral) so tests never collide; the expensive
// world+model build is shared through a process-lifetime ServedWorld.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/journal.hpp"
#include "eval/token_method.hpp"
#include "json/json.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "serve/world.hpp"
#include "util/io.hpp"

namespace astromlab::serve {
namespace {

core::WorldConfig tiny_config() {
  core::WorldConfig config;
  config.kb.n_topics = 3;
  config.kb.entities_per_topic = 3;
  config.kb.facts_per_entity = 2;
  config.mcq.questions_per_topic = 2;
  config.vocab_size = 420;
  // The two-shot MCQ prompts overflow the default ctx=416 at this tiny
  // vocab (little merging, long token streams); 640 fits comfortably.
  config.ctx_len = 640;
  return config;
}

/// One world+model for the whole binary — each server still gets its own
/// sessions, gates, and counters.
const std::shared_ptr<const ServedWorld>& shared_world() {
  static const std::shared_ptr<const ServedWorld> world =
      build_served_world(core::Scale::kS7, tiny_config(), /*generation=*/1);
  return world;
}

ServerConfig quiet_config() {
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.stats_log_seconds = 0.0;
  return config;
}

std::string mcq_body(std::size_t index) {
  json::Value body = json::Value::object();
  body.set("question_index", static_cast<std::int64_t>(index));
  return body.dump();
}

json::Value post_json(HttpClient& client, const std::string& target,
                      const std::string& body, int expected_status) {
  const std::optional<HttpResponse> response =
      client.request("POST", target, body, 30.0);
  EXPECT_TRUE(response.has_value()) << target << ": no response";
  if (!response.has_value()) return json::Value();
  EXPECT_EQ(response->status, expected_status) << target << ": " << response->body;
  return json::parse(response->body);
}

TEST(Serve, McqOverHttpIsBitIdenticalToOffline) {
  const auto& world = shared_world();
  InferenceServer server(world, quiet_config());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const auto& questions = world->world.mcqs.benchmark;
  ASSERT_FALSE(questions.empty());
  for (std::size_t q = 0; q < questions.size(); ++q) {
    const int offline =
        eval::token_predict(world->model, world->world.tok, world->letters,
                            questions[q], world->fewshot, nullptr,
                            world->mcq_cache.get(), nullptr);
    const json::Value doc = post_json(client, "/v1/mcq", mcq_body(q), 200);
    EXPECT_EQ(static_cast<int>(doc.get_number("predicted", -2.0)), offline)
        << "question " << q << " diverged from the offline evaluator";
    if (offline >= 0) {
      const std::string expected_letter(1, static_cast<char>('A' + offline));
      EXPECT_EQ(doc.get_string("answer", ""), expected_letter);
    }
  }
}

TEST(Serve, HealthzReportsStatusAndMetricsDump) {
  InferenceServer server(shared_world(), quiet_config());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const std::optional<HttpResponse> health = client.request("GET", "/healthz", "");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  const json::Value doc = json::parse(health->body);
  EXPECT_EQ(doc.get_string("status", ""), "ok");
  EXPECT_FALSE(doc.get_bool("draining", true));
  EXPECT_GT(doc.get_number("benchmark_questions", 0.0), 0.0);
  EXPECT_EQ(static_cast<int>(doc.get_number("model_generation", 0.0)), 1);

  const std::optional<HttpResponse> metrics = client.request("GET", "/metrics", "");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("serve.http_requests"), std::string::npos);
  EXPECT_NE(metrics->body.find("serve.request_latency_ms_p99"), std::string::npos);
  // The program's own work counters: prompt tokens fed, LM-head rows
  // computed, and nested parallel_for calls the handler pool ran inline.
  EXPECT_NE(metrics->body.find("nn.prefill_tokens "), std::string::npos);
  EXPECT_NE(metrics->body.find("nn.logit_rows "), std::string::npos);
  EXPECT_NE(metrics->body.find("pool.parallel_for_inline "), std::string::npos);
}

TEST(Serve, RateLimitShedsWithRetryAfter) {
  ServerConfig config = quiet_config();
  config.rate_limit_rps = 0.01;  // one-token bucket that refills glacially
  config.rate_burst = 1.0;
  InferenceServer server(shared_world(), config);
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const std::optional<HttpResponse> first =
      client.request("POST", "/v1/mcq", mcq_body(0), 30.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, 200);

  const std::optional<HttpResponse> second =
      client.request("POST", "/v1/mcq", mcq_body(0), 30.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 429);
  ASSERT_NE(second->headers.find("retry-after"), second->headers.end());
  EXPECT_GE(std::stoi(second->headers.at("retry-after")), 1);
  // Health stays green while requests shed: shedding is not an outage.
  const std::optional<HttpResponse> health = client.request("GET", "/healthz", "");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
}

TEST(Serve, ConnectionGateShedsAtAcceptWhenFull) {
  ServerConfig config = quiet_config();
  config.workers = 1;
  config.queue_depth = 0;  // capacity: exactly one connection
  InferenceServer server(shared_world(), config);
  server.start();

  HttpClient occupant("127.0.0.1", server.port());
  const std::optional<HttpResponse> held =
      occupant.request("POST", "/v1/mcq", mcq_body(0), 30.0);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->status, 200);
  // The keep-alive connection holds the only admission ticket, so
  // readiness now reports overloaded — 503 is the load-balancer signal,
  // not an error.
  const std::optional<HttpResponse> health = occupant.request("GET", "/healthz", "");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 503);
  EXPECT_EQ(json::parse(health->body).get_string("status", ""), "overloaded");
  // A second connection is shed with 429 + Retry-After at accept.
  HttpClient overflow("127.0.0.1", server.port());
  const std::optional<HttpResponse> shed =
      overflow.request("POST", "/v1/mcq", mcq_body(0), 30.0);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, 429);
  EXPECT_NE(shed->headers.find("retry-after"), shed->headers.end());

  // Releasing the occupant frees the slot (the handler sees EOF at its
  // next poll slice); the shed client's lazy reconnect then succeeds.
  occupant.close();
  bool recovered = false;
  for (int attempt = 0; attempt < 40 && !recovered; ++attempt) {
    const std::optional<HttpResponse> retry =
        overflow.request("POST", "/v1/mcq", mcq_body(0), 30.0);
    recovered = retry.has_value() && retry->status == 200;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(recovered);
}

TEST(Serve, DeadlineExpiryAnswers504AndCancelsWork) {
  InferenceServer server(shared_world(), quiet_config());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  json::Value body = json::Value::object();
  body.set("question_index", static_cast<std::int64_t>(0));
  body.set("deadline_ms", 0.01);  // expires before the prompt feed finishes
  const std::optional<HttpResponse> response =
      client.request("POST", "/v1/mcq", body.dump(), 30.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 504);

  // The expired request must not poison the next one.
  const json::Value ok = post_json(client, "/v1/mcq", mcq_body(0), 200);
  EXPECT_GE(ok.get_number("predicted", -2.0), 0.0);
}

TEST(Serve, SessionReusesKvAndStaysBitIdentical) {
  InferenceServer server(shared_world(), quiet_config());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  json::Value base = json::Value::object();
  base.set("prompt", "the velocity dispersion of the cluster");
  base.set("max_new_tokens", static_cast<std::int64_t>(12));
  base.set("temperature", 0.0);
  base.set("seed", static_cast<std::int64_t>(7));

  // Sessionless reference.
  const json::Value plain = post_json(client, "/v1/generate", base.dump(), 200);
  const std::string reference = plain.get_string("text", "");
  EXPECT_FALSE(reference.empty());

  // Same request through a session: identical output, cold cache.
  base.set("session", "conv-1");
  const json::Value first = post_json(client, "/v1/generate", base.dump(), 200);
  EXPECT_EQ(first.get_string("text", ""), reference);
  EXPECT_EQ(first.get_number("reused_prefix_tokens", -1.0), 0.0);

  // Extending the conversation reuses the session's KV prefix.
  json::Value extended = json::Value::object();
  extended.set("prompt", std::string("the velocity dispersion of the cluster") +
                             reference + " and the inferred mass");
  extended.set("max_new_tokens", static_cast<std::int64_t>(8));
  extended.set("temperature", 0.0);
  extended.set("seed", static_cast<std::int64_t>(7));
  extended.set("session", "conv-1");
  const json::Value second = post_json(client, "/v1/generate", extended.dump(), 200);
  EXPECT_GT(second.get_number("reused_prefix_tokens", 0.0), 0.0);
  EXPECT_GE(server.session_count(), 1u);
}

TEST(Serve, HotSwapBumpsGenerationAndStaysConsistent) {
  const auto& world = shared_world();
  InferenceServer server(world, quiet_config());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const int offline =
      eval::token_predict(world->model, world->world.tok, world->letters,
                          world->world.mcqs.benchmark[0], world->fewshot, nullptr,
                          world->mcq_cache.get(), nullptr);

  json::Value swap = json::Value::object();
  swap.set("scale", "S7");
  const json::Value swapped = post_json(client, "/admin/model", swap.dump(), 200);
  EXPECT_EQ(static_cast<int>(swapped.get_number("model_generation", 0.0)), 2);
  EXPECT_EQ(server.current_world()->generation, 2u);
  // Sessions from the old generation are dropped — their KV refers to
  // retired weights.
  EXPECT_EQ(server.session_count(), 0u);

  // Same scale ⇒ same deterministic weight seed ⇒ answers unchanged.
  const json::Value doc = post_json(client, "/v1/mcq", mcq_body(0), 200);
  EXPECT_EQ(static_cast<int>(doc.get_number("predicted", -2.0)), offline);
  EXPECT_EQ(static_cast<int>(doc.get_number("model_generation", 0.0)), 2);
}

TEST(Serve, SwapMidSessionDropsStaleKvAndRecomputesFromScratch) {
  // Regression: a session created before a hot swap must not splice its
  // old-generation KV prefix into the new model. The continuation after
  // the swap has to report a cold cache (reused_prefix_tokens == 0) and
  // produce byte-identical text to a sessionless request against the new
  // world — any prefix reuse here would decode the new weights on top of
  // retired-generation KV rows.
  InferenceServer server(shared_world(), quiet_config());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  json::Value base = json::Value::object();
  base.set("prompt", "spectral classification of the candidate");
  base.set("max_new_tokens", static_cast<std::int64_t>(10));
  base.set("temperature", 0.0);
  base.set("seed", static_cast<std::int64_t>(11));
  base.set("session", "conv-swap");
  const json::Value first = post_json(client, "/v1/generate", base.dump(), 200);
  const std::string continuation = first.get_string("text", "");
  ASSERT_FALSE(continuation.empty());
  ASSERT_GE(server.session_count(), 1u);

  json::Value swap = json::Value::object();
  swap.set("scale", "S7");
  post_json(client, "/admin/model", swap.dump(), 200);
  ASSERT_EQ(server.session_count(), 0u);

  json::Value extended = json::Value::object();
  extended.set("prompt", std::string("spectral classification of the candidate") +
                             continuation + " suggests a subdwarf");
  extended.set("max_new_tokens", static_cast<std::int64_t>(8));
  extended.set("temperature", 0.0);
  extended.set("seed", static_cast<std::int64_t>(11));
  extended.set("session", "conv-swap");
  const json::Value after = post_json(client, "/v1/generate", extended.dump(), 200);
  EXPECT_EQ(after.get_number("reused_prefix_tokens", -1.0), 0.0);
  EXPECT_EQ(static_cast<int>(after.get_number("model_generation", 0.0)), 2);

  // Oracle: the same extended request, sessionless, against the swapped
  // server — bytes must match the post-swap session continuation.
  json::Value fresh = extended;
  fresh.set("session", "");
  const json::Value oracle = post_json(client, "/v1/generate", fresh.dump(), 200);
  EXPECT_EQ(after.get_string("text", ""), oracle.get_string("text", ""));

  // The recreated session is warm again for the next turn.
  EXPECT_GE(server.session_count(), 1u);
}

TEST(Serve, GracefulDrainFlushesJournalAndRejectsNewWork) {
  const std::filesystem::path journal_path =
      std::filesystem::temp_directory_path() / "serve_test_journal.jsonl";
  std::error_code ec;
  std::filesystem::remove(journal_path, ec);
  {
    eval::EvalJournal journal(journal_path.string());
    InferenceServer server(shared_world(), quiet_config(), &journal);
    server.start();
    HttpClient client("127.0.0.1", server.port());
    for (std::size_t q = 0; q < 3; ++q) {
      const json::Value doc = post_json(client, "/v1/mcq", mcq_body(q % 2), 200);
      EXPECT_GE(doc.get_number("predicted", -2.0), -1.0);
    }

    server.begin_drain();
    EXPECT_TRUE(server.draining());
    // The acceptor observes the drain flag within its 100ms poll slice and
    // closes the listening socket; a late connection is refused outright
    // instead of rotting in the kernel backlog.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    bool connect_failed = false;
    HttpClient late("127.0.0.1", server.port());
    const std::optional<HttpResponse> refused =
        late.request("POST", "/v1/mcq", mcq_body(0), 5.0, {}, &connect_failed);
    EXPECT_FALSE(refused.has_value());
    EXPECT_TRUE(connect_failed);
    server.shutdown();
  }
  // Journal flushed: one durable line per answered benchmark question.
  const std::string journal_text = util::read_text_file(journal_path);
  std::size_t lines = 0;
  for (const char c : journal_text) lines += c == '\n' ? 1 : 0;
  EXPECT_GE(lines, 3u);
  std::filesystem::remove(journal_path, ec);
}

TEST(Serve, DrainCancelsInflightWorkWithinGrace) {
  ServerConfig config = quiet_config();
  config.drain_grace_seconds = 0.05;  // cancel stragglers almost immediately
  InferenceServer server(shared_world(), config);
  server.start();

  std::thread slow([port = server.port()] {
    HttpClient client("127.0.0.1", port);
    json::Value body = json::Value::object();
    body.set("prompt", "a long generation that the drain interrupts");
    body.set("max_new_tokens", static_cast<std::int64_t>(256));
    body.set("temperature", 0.0);
    const std::optional<HttpResponse> response =
        client.request("POST", "/v1/generate", body.dump(), 30.0);
    // Finished before the grace expired (200) or was cancelled by the
    // drain (503); a hang or a crash would fail the harness timeout.
    if (response.has_value()) {
      EXPECT_TRUE(response->status == 200 || response->status == 503)
          << response->status;
    }
  });
  // Let the request get in flight, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.begin_drain();
  server.shutdown();
  slow.join();
  EXPECT_EQ(server.in_flight(), 0u);
}

TEST(Serve, BatchedMcqConcurrentRequestsByteIdenticalToSerial) {
  // The decode_batch >= 2 server coalesces concurrent /v1/mcq requests
  // into shared decode steps; the contract is that batch composition is
  // invisible at the byte level — every response body matches the serial
  // server's exactly, no matter who shared the batch.
  const auto& world = shared_world();
  InferenceServer serial(world, quiet_config());
  serial.start();
  ServerConfig batched_config = quiet_config();
  batched_config.workers = 4;
  batched_config.decode_batch = 4;
  InferenceServer batched(world, batched_config);
  batched.start();

  const std::size_t n = world->world.mcqs.benchmark.size();
  ASSERT_GE(n, 2u);
  std::vector<std::string> serial_bodies(n);
  {
    HttpClient client("127.0.0.1", serial.port());
    for (std::size_t q = 0; q < n; ++q) {
      const std::optional<HttpResponse> response =
          client.request("POST", "/v1/mcq", mcq_body(q), 30.0);
      ASSERT_TRUE(response.has_value()) << "serial question " << q;
      ASSERT_EQ(response->status, 200) << response->body;
      serial_bodies[q] = response->body;
    }
  }

  // Two rounds of all-questions-at-once so requests genuinely co-reside
  // in the engine's batch (4 slots, n > 4 requests racing for them).
  for (int round = 0; round < 2; ++round) {
    std::vector<std::string> batched_bodies(n);
    std::vector<int> statuses(n, 0);
    std::vector<std::thread> clients;
    clients.reserve(n);
    for (std::size_t q = 0; q < n; ++q) {
      clients.emplace_back([&, q, port = batched.port()] {
        HttpClient client("127.0.0.1", port);
        const std::optional<HttpResponse> response =
            client.request("POST", "/v1/mcq", mcq_body(q), 30.0);
        if (response.has_value()) {
          statuses[q] = response->status;
          batched_bodies[q] = response->body;
        }
      });
    }
    for (auto& thread : clients) thread.join();
    for (std::size_t q = 0; q < n; ++q) {
      ASSERT_EQ(statuses[q], 200) << "round " << round << " question " << q;
      EXPECT_EQ(batched_bodies[q], serial_bodies[q])
          << "round " << round << " question " << q
          << ": batched response bytes diverged from serial";
    }
  }
}

TEST(Serve, MidBatchDeadlineAnswers504WithoutDisturbingNeighbours) {
  // One request in a full batch expires mid-flight; it must answer 504
  // while its batch-mates complete with the same bytes a serial server
  // produces. Slot-granular cancellation must not leak across slots.
  const auto& world = shared_world();
  InferenceServer serial(world, quiet_config());
  serial.start();
  ServerConfig batched_config = quiet_config();
  batched_config.workers = 4;
  batched_config.decode_batch = 4;
  InferenceServer batched(world, batched_config);
  batched.start();

  const std::size_t n_neighbours = 3;
  std::vector<std::string> serial_bodies(n_neighbours);
  {
    HttpClient client("127.0.0.1", serial.port());
    for (std::size_t q = 0; q < n_neighbours; ++q) {
      const std::optional<HttpResponse> response =
          client.request("POST", "/v1/mcq", mcq_body(q), 30.0);
      ASSERT_TRUE(response.has_value());
      ASSERT_EQ(response->status, 200);
      serial_bodies[q] = response->body;
    }
  }

  std::vector<std::string> batched_bodies(n_neighbours);
  std::vector<int> statuses(n_neighbours, 0);
  int doomed_status = 0;
  std::vector<std::thread> clients;
  for (std::size_t q = 0; q < n_neighbours; ++q) {
    clients.emplace_back([&, q, port = batched.port()] {
      HttpClient client("127.0.0.1", port);
      const std::optional<HttpResponse> response =
          client.request("POST", "/v1/mcq", mcq_body(q), 30.0);
      if (response.has_value()) {
        statuses[q] = response->status;
        batched_bodies[q] = response->body;
      }
    });
  }
  clients.emplace_back([&, port = batched.port()] {
    HttpClient client("127.0.0.1", port);
    json::Value body = json::Value::object();
    body.set("question_index", static_cast<std::int64_t>(0));
    body.set("deadline_ms", 0.01);  // expires before the prompt feed finishes
    const std::optional<HttpResponse> response =
        client.request("POST", "/v1/mcq", body.dump(), 30.0);
    if (response.has_value()) doomed_status = response->status;
  });
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(doomed_status, 504);
  for (std::size_t q = 0; q < n_neighbours; ++q) {
    ASSERT_EQ(statuses[q], 200) << "neighbour " << q;
    EXPECT_EQ(batched_bodies[q], serial_bodies[q])
        << "neighbour " << q << " perturbed by a mid-batch deadline expiry";
  }
  // The expired slot must be recycled cleanly for the next request.
  HttpClient client("127.0.0.1", batched.port());
  const json::Value ok = post_json(client, "/v1/mcq", mcq_body(0), 200);
  EXPECT_EQ(ok.dump(), json::parse(serial_bodies[0]).dump());
}

TEST(Serve, MalformedAndUnknownRequestsAnswerClientErrors) {
  InferenceServer server(shared_world(), quiet_config());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const std::optional<HttpResponse> missing = client.request("GET", "/nope", "");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  const std::optional<HttpResponse> garbage =
      client.request("POST", "/v1/mcq", "{not json", 10.0);
  ASSERT_TRUE(garbage.has_value());
  EXPECT_EQ(garbage->status, 400);

  const std::optional<HttpResponse> out_of_range =
      client.request("POST", "/v1/mcq", mcq_body(10000), 10.0);
  ASSERT_TRUE(out_of_range.has_value());
  EXPECT_EQ(out_of_range->status, 400);

  const std::optional<HttpResponse> no_prompt =
      client.request("POST", "/v1/generate", "{}", 10.0);
  ASSERT_TRUE(no_prompt.has_value());
  EXPECT_EQ(no_prompt->status, 400);

  json::Value swap = json::Value::object();
  swap.set("scale", "S99");
  const std::optional<HttpResponse> bad_scale =
      client.request("POST", "/admin/model", swap.dump(), 10.0);
  ASSERT_TRUE(bad_scale.has_value());
  EXPECT_EQ(bad_scale->status, 400);
}

}  // namespace
}  // namespace astromlab::serve

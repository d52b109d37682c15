#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "eval/token_method.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/resource_budget.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace astromlab::serve {

namespace {

namespace metrics = util::metrics;

HttpResponse json_response(int status, const json::Value& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.dump();
  return response;
}

HttpResponse error_response(int status, const std::string& message) {
  json::Value body = json::Value::object();
  body.set("error", message);
  return json_response(status, body);
}

/// Shed responses carry Retry-After so a well-behaved client knows when a
/// retry has a chance; shedding without the hint just moves the stampede.
HttpResponse shed_response(int status, const std::string& reason, double retry_after_seconds) {
  HttpResponse response = error_response(status, reason);
  const long seconds = std::max(1L, static_cast<long>(std::ceil(retry_after_seconds)));
  response.headers["Retry-After"] = std::to_string(seconds);
  return response;
}

void count_status(int status) {
  metrics::registry().counter("serve.responses_" + std::to_string(status)).add();
}

/// Chaos seam: the injector's eval channel keyed by request id, so a
/// seeded chaos schedule hits the serving path exactly as it hits the
/// offline supervisor — transient faults retry, alloc pressure drives the
/// ladder, permanent faults answer 500.
void consult_fault_injector(std::uint64_t request_id) {
  switch (util::FaultInjector::instance().on_eval_attempt(static_cast<std::size_t>(request_id))) {
    case util::FaultInjector::EvalAction::kTransient:
      throw util::TransientError("injected transient serve fault");
    case util::FaultInjector::EvalAction::kPermanent:
      throw std::runtime_error("injected permanent serve fault");
    case util::FaultInjector::EvalAction::kAllocPressure:
      throw util::ResourceExhaustedError("injected allocation pressure at request boundary");
    case util::FaultInjector::EvalAction::kProceed:
      break;
  }
}

std::vector<nn::Token> encode_tokens(const tokenizer::BpeTokenizer& tok,
                                     const std::string& text) {
  const auto ids = tok.encode(text);
  return {ids.begin(), ids.end()};
}

}  // namespace

/// RAII in-flight registration: shutdown() cancels every registered token
/// once the grace window ends, so no request can outlive the drain.
class InferenceServer::InflightToken {
 public:
  InflightToken(InferenceServer* server, util::CancelToken* token)
      : server_(server), token_(token) {
    server_->register_inflight(token_);
  }
  ~InflightToken() { server_->unregister_inflight(token_); }
  InflightToken(const InflightToken&) = delete;
  InflightToken& operator=(const InflightToken&) = delete;

 private:
  InferenceServer* server_;
  util::CancelToken* token_;
};

InferenceServer::InferenceServer(std::shared_ptr<const ServedWorld> world,
                                 ServerConfig config, eval::EvalJournal* journal)
    : config_(config),
      world_(std::move(world)),
      sessions_(config.max_sessions),
      journal_(journal),
      gate_(std::max<std::size_t>(config.workers, 1) + config.queue_depth),
      bucket_(config.rate_limit_rps,
              config.rate_burst > 0.0 ? config.rate_burst
                                      : std::max(2.0 * config.rate_limit_rps, 1.0)) {
  if (world_ == nullptr) throw std::invalid_argument("InferenceServer: null world");
  config_.workers = std::max<std::size_t>(config_.workers, 1);
  if (config_.decode_batch >= 2) {
    engine_ = std::make_shared<nn::DecodeEngine>(world_->model, config_.decode_batch);
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" + std::to_string(config_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  // A dedicated pool: handler threads block on sockets and model forwards;
  // sharing ThreadPool::global() would let slow requests starve the GEMM
  // parallel_for (and vice versa). Being pool workers, handlers run their
  // kernels inline: one request per core, no nested fan-out.
  pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  acceptor_ = std::thread(&InferenceServer::acceptor_loop, this);
  if (config_.stats_log_seconds > 0.0) {
    stats_thread_ = std::thread(&InferenceServer::stats_loop, this);
  }
  metrics::registry().gauge("serve.model_generation").set(
      static_cast<std::int64_t>(current_world()->generation));
  log::info() << "serve: listening on 127.0.0.1:" << port_ << " workers=" << config_.workers
              << " queue_depth=" << config_.queue_depth << " gate=" << gate_.capacity();
}

void InferenceServer::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  log::info() << "serve: drain started (in_flight=" << gate_.in_flight() << ")";
  metrics::registry().counter("serve.drains").add();
}

void InferenceServer::shutdown() {
  if (stopped_.exchange(true)) return;
  begin_drain();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Grace window: let in-flight requests finish on their own.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(config_.drain_grace_seconds, 0.0)));
  while (gate_.in_flight() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    // Past the grace window: cancel stragglers in flight. Their handlers
    // observe the token mid-forward and answer 503 (drain) — bounded exit
    // beats waiting out an unbounded generation.
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (util::CancelToken* token : inflight_tokens_) token->cancel();
    if (!inflight_tokens_.empty()) {
      metrics::registry().counter("serve.drain_cancelled").add(inflight_tokens_.size());
      log::warn() << "serve: drain grace expired; cancelled " << inflight_tokens_.size()
                  << " in-flight request(s)";
    }
  }
  if (pool_ != nullptr) {
    try {
      pool_->wait_idle();
    } catch (const std::exception& error) {
      // Handlers catch their own exceptions; anything surfacing here is a
      // bug worth logging, but it must not block the drain.
      log::warn() << "serve: handler leaked an exception: " << error.what();
    }
    pool_.reset();
  }
  if (stats_thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_stop_ = true;
    }
    stats_cv_.notify_all();
    stats_thread_.join();
  }

  // Final flush: the journal is per-record durable already; emit the
  // closing stats snapshot so an operator sees the run's last interval.
  const auto snap =
      metrics::registry().histogram("serve.request_latency_ms").snapshot_and_reset();
  log::info() << "serve: drained; final interval n=" << snap.count << " p50=" << snap.p50
              << "ms p95=" << snap.p95 << "ms p99=" << snap.p99 << "ms";
}

void InferenceServer::swap_world(std::shared_ptr<const ServedWorld> world) {
  if (world == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(world_mutex_);
    world_ = std::move(world);
    // The engine's slots decode against the old weights; swap it in the
    // same critical section so no request can pin a mismatched pair.
    // In-flight requests hold the old engine (whose jobs pin the old
    // world) via shared_ptr until they finish.
    if (config_.decode_batch >= 2) {
      engine_ = std::make_shared<nn::DecodeEngine>(world_->model, config_.decode_batch);
    }
  }
  // Sessions encode old-weight activations in their KV caches; drop the
  // table (leased sessions finish on the old bundle they pin, then die).
  sessions_.clear();
  metrics::registry().counter("serve.model_swaps").add();
  metrics::registry().gauge("serve.model_generation").set(
      static_cast<std::int64_t>(current_world()->generation));
  log::info() << "serve: model swapped to generation " << current_world()->generation;
}

std::shared_ptr<const ServedWorld> InferenceServer::current_world() const {
  const std::lock_guard<std::mutex> lock(world_mutex_);
  return world_;
}

std::pair<std::shared_ptr<const ServedWorld>, std::shared_ptr<nn::DecodeEngine>>
InferenceServer::pin_world_and_engine() const {
  const std::lock_guard<std::mutex> lock(world_mutex_);
  return {world_, engine_};
}

void InferenceServer::register_inflight(util::CancelToken* token) {
  const std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_tokens_.insert(token);
}

void InferenceServer::unregister_inflight(util::CancelToken* token) {
  const std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_tokens_.erase(token);
}

void InferenceServer::acceptor_loop() {
  while (!draining()) {
    struct pollfd pfd {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);  // 100ms slice keeps drain latency bounded
    if (draining()) break;
    if (rc <= 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (draining()) break;
      log::warn() << "serve: accept failed: " << std::strerror(errno);
      continue;
    }
    if (!gate_.try_enter()) {
      // Queue-depth shed at the cheapest possible point: before any
      // parsing, before a pool slot. Inline write — the response is tiny.
      metrics::registry().counter("serve.shed_queue").add();
      count_status(429);
      HttpResponse response = shed_response(429, "server at capacity", 1.0);
      response.close = true;
      const std::string wire = serialize_response(response);
      ::send(cfd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(cfd);
      continue;
    }
    pool_->submit([this, cfd] {
      const AdmissionTicket ticket(&gate_);
      try {
        handle_connection(cfd);
      } catch (const std::exception& error) {
        log::warn() << "serve: connection handler failed: " << error.what();
      } catch (...) {
        log::warn() << "serve: connection handler failed with a non-exception";
      }
    });
  }
  // Refuse new connections the moment the drain begins: leaving the
  // listening socket open would strand fresh connects in the kernel
  // backlog, unanswered, until the client's own timeout fires. Closing
  // here (the only thread still using the fd) resets queued connects and
  // makes later ones fail fast with ECONNREFUSED.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void InferenceServer::stats_loop() {
  std::unique_lock<std::mutex> lock(stats_mutex_);
  while (!stats_stop_) {
    stats_cv_.wait_for(lock, std::chrono::duration<double>(config_.stats_log_seconds));
    if (stats_stop_) break;
    const auto snap =
        metrics::registry().histogram("serve.request_latency_ms").snapshot_and_reset();
    if (snap.count == 0) continue;
    log::info() << "serve stats: interval n=" << snap.count << " p50=" << snap.p50
                << "ms p95=" << snap.p95 << "ms p99=" << snap.p99
                << "ms in_flight=" << gate_.in_flight() << " sessions=" << sessions_.count();
  }
}

void InferenceServer::handle_connection(int fd) {
  Connection conn(fd);
  double idle_seconds = 0.0;
  for (;;) {
    if (draining()) break;  // between requests: close keep-alives promptly
    HttpRequest request;
    const ReadOutcome outcome =
        conn.read_request(request, config_.max_body_bytes, /*timeout_seconds=*/0.25);
    if (outcome == ReadOutcome::kTimeout) {
      idle_seconds += 0.25;
      if (idle_seconds >= config_.idle_timeout_seconds) break;
      continue;
    }
    if (outcome == ReadOutcome::kClosed || outcome == ReadOutcome::kError) break;
    if (outcome == ReadOutcome::kMalformed || outcome == ReadOutcome::kTooLarge) {
      const int status = outcome == ReadOutcome::kMalformed ? 400 : 413;
      count_status(status);
      HttpResponse response = error_response(status, "bad request");
      response.close = true;
      conn.write(response);
      break;
    }
    idle_seconds = 0.0;

    HttpResponse response = dispatch(request);
    if (draining()) response.close = true;
    count_status(response.status);
    if (!conn.write(response)) break;
    if (!request.keep_alive || response.close) break;
  }
}

HttpResponse InferenceServer::dispatch(const HttpRequest& request) {
  metrics::registry().counter("serve.http_requests").add();
  const util::trace::Span span("serve.request", "serve");
  if (request.method == "GET" && request.target == "/healthz") return handle_healthz();
  if (request.method == "GET" && request.target == "/metrics") return handle_metrics();
  if (request.method == "POST" && request.target == "/v1/mcq") {
    return handle_inference(request, /*mcq=*/true);
  }
  if (request.method == "POST" && request.target == "/v1/generate") {
    return handle_inference(request, /*mcq=*/false);
  }
  if (request.method == "POST" && request.target == "/admin/model") {
    return handle_swap(request);
  }
  return error_response(404, "no such endpoint: " + request.method + " " + request.target);
}

HttpResponse InferenceServer::cancelled_response(const util::CancelToken& cancel) {
  if (draining()) {
    metrics::registry().counter("serve.shed_drain").add();
    return shed_response(503, "draining", 1.0);
  }
  (void)cancel;
  metrics::registry().counter("serve.deadline_expired").add();
  return shed_response(504, "deadline expired", 1.0);
}

HttpResponse InferenceServer::handle_inference(const HttpRequest& request, bool mcq) {
  util::Stopwatch timer;
  if (draining()) {
    metrics::registry().counter("serve.shed_drain").add();
    return shed_response(503, "draining", 1.0);
  }
  const double rate_wait = bucket_.try_acquire();
  if (rate_wait > 0.0) {
    metrics::registry().counter("serve.shed_rate").add();
    return shed_response(429, "rate limited", rate_wait);
  }

  json::Value body;
  try {
    body = request.body.empty() ? json::Value::object() : json::parse(request.body);
  } catch (const json::ParseError& error) {
    return error_response(400, std::string("invalid JSON body: ") + error.what());
  }
  if (!body.is_object()) return error_response(400, "body must be a JSON object");

  const std::uint64_t request_id = request_counter_.fetch_add(1) + 1;
  util::CancelToken cancel;
  if (config_.default_deadline_seconds > 0.0) {
    cancel.set_deadline_after(config_.default_deadline_seconds);
  }
  const double deadline_ms = body.get_number("deadline_ms", 0.0);
  if (deadline_ms > 0.0) cancel.set_deadline_after(deadline_ms / 1000.0);  // stricter wins
  const InflightToken inflight(this, &cancel);

  // Pin this request's world (and the decode engine built on its model):
  // a hot swap during the request leaves us on the generation we started
  // with. `world` is declared first so it outlives the engine pin — the
  // engine's slots reference the world's weights.
  const auto [world, engine] = pin_world_and_engine();

  HttpResponse response;
  // Degradation ladder around the retried work. Each successful rung frees
  // real memory, so retrying the work afterwards is meaningful; when no
  // rung helps, shed this request (rung 3) instead of crashing the server.
  for (int relief_rounds = 0;;) {
    try {
      std::size_t retries = 0;
      response = util::run_with_retry(
          config_.retry, request_id, &cancel,
          [&] {
            consult_fault_injector(request_id);
            return mcq ? do_mcq(*world, engine.get(), body, cancel)
                       : do_generate(world, engine.get(), body, cancel, request_id);
          },
          &retries);
      if (retries > 0) {
        metrics::registry().counter("serve.retries").add(retries);
        response.headers["X-Retries"] = std::to_string(retries);
      }
      break;
    } catch (const std::bad_alloc&) {
      // ResourceExhaustedError derives from bad_alloc: one rung handler
      // covers simulated pressure and real allocator failure alike.
      std::size_t freed = sessions_.evict_lru();  // rung 1: idle session KV
      if (freed == 0 && engine != nullptr) {
        // Rung 1b, slot granularity: idle decode slots hand their KV back
        // to the budget; slots mid-sequence keep decoding untouched.
        freed = engine->release_idle_kv();
        if (freed > 0) metrics::registry().counter("serve.ladder_slot_kv_released").add();
      }
      if (freed == 0 && world->mcq_cache != nullptr) {
        freed = world->mcq_cache->evict();  // rung 2: shared MCQ prefix
        if (freed > 0) metrics::registry().counter("serve.ladder_cache_evictions").add();
      }
      if (freed > 0 && ++relief_rounds <= 8) continue;
      metrics::registry().counter("serve.shed_memory").add();
      response = shed_response(503, "memory pressure", 1.0);
      break;
    } catch (const std::exception& error) {
      if (util::is_transient(error)) {
        // Retry budget exhausted (or cancelled mid-backoff).
        if (cancel.cancelled()) {
          response = cancelled_response(cancel);
        } else {
          metrics::registry().counter("serve.transient_exhausted").add();
          response = shed_response(503, "transient fault persisted", 1.0);
        }
      } else {
        log::warn() << "serve: request " << request_id << " failed: " << error.what();
        metrics::registry().counter("serve.internal_errors").add();
        response = error_response(500, error.what());
      }
      break;
    }
  }

  const double latency_ms = timer.seconds() * 1000.0;
  metrics::registry().histogram("serve.request_latency_ms").record(latency_ms);
  metrics::registry()
      .histogram(mcq ? "serve.mcq_latency_ms" : "serve.generate_latency_ms")
      .record(latency_ms);
  return response;
}

HttpResponse InferenceServer::do_mcq(const ServedWorld& world, nn::DecodeEngine* engine,
                                     const json::Value& body,
                                     const util::CancelToken& cancel) {
  const util::trace::Span span("serve.mcq", "serve");
  const std::vector<corpus::McqItem>& benchmark = world.world.mcqs.benchmark;
  const int question_index = static_cast<int>(body.get_number("question_index", -1.0));
  corpus::McqItem custom;
  const corpus::McqItem* item = nullptr;
  if (question_index >= 0) {
    if (static_cast<std::size_t>(question_index) >= benchmark.size()) {
      return error_response(400, "question_index out of range (benchmark has " +
                                     std::to_string(benchmark.size()) + " questions)");
    }
    item = &benchmark[static_cast<std::size_t>(question_index)];
  } else {
    const json::Value* question = body.find("question");
    const json::Value* options = body.find("options");
    if (question == nullptr || !question->is_string() || options == nullptr ||
        !options->is_array() || options->items().size() != 4) {
      return error_response(
          400, "need question_index, or question (string) + options (array of 4)");
    }
    custom.question = question->as_string();
    for (std::size_t i = 0; i < 4; ++i) {
      if (!options->items()[i].is_string()) {
        return error_response(400, "options must be strings");
      }
      custom.options[i] = options->items()[i].as_string();
    }
    item = &custom;
  }

  // scratch == nullptr: token_predict builds a request-local inference, so
  // its KV charge lives exactly as long as the request. With an engine,
  // concurrent MCQ requests coalesce into shared decode steps instead
  // (bit-identical answers either way).
  const int predicted =
      eval::token_predict(world.model, world.world.tok, world.letters, *item, world.fewshot,
                          &cancel, world.mcq_cache.get(), nullptr, engine);
  if (cancel.cancelled()) return cancelled_response(cancel);

  if (journal_ != nullptr && question_index >= 0) {
    eval::QuestionResult result;
    result.predicted = predicted;
    result.correct = static_cast<int>(item->correct);
    result.tier = item->tier;
    journal_->record(static_cast<std::size_t>(question_index), result);
  }

  json::Value out = json::Value::object();
  if (predicted >= 0) {
    out.set("answer", std::string(1, static_cast<char>('A' + predicted)));
  } else {
    out.set("answer", nullptr);  // prompt overflow: unanswered, not an error
  }
  out.set("predicted", predicted);
  if (question_index >= 0) out.set("question_index", question_index);
  out.set("model_generation", static_cast<std::int64_t>(world.generation));
  return json_response(200, out);
}

HttpResponse InferenceServer::do_generate(const std::shared_ptr<const ServedWorld>& world,
                                          nn::DecodeEngine* engine, const json::Value& body,
                                          const util::CancelToken& cancel,
                                          std::uint64_t request_id) {
  const util::trace::Span span("serve.generate", "serve");
  const std::string prompt_text = body.get_string("prompt", "");
  if (prompt_text.empty()) return error_response(400, "prompt required");
  const std::size_t max_new_tokens = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(body.get_number("max_new_tokens", 32.0), 0.0)),
      config_.max_new_tokens_cap);
  const float temperature =
      static_cast<float>(std::max(body.get_number("temperature", 0.0), 0.0));
  const auto seed = static_cast<std::uint64_t>(body.get_number("seed", 0.0));
  const std::string session_id = body.get_string("session", "");

  const std::vector<nn::Token> prompt = encode_tokens(world->world.tok, prompt_text);
  GenerateOutcome outcome;
  if (!session_id.empty()) {
    const std::shared_ptr<Session> session = sessions_.acquire(session_id, world);
    const std::lock_guard<std::mutex> lock(session->mutex);
    session->last_used.store(request_id, std::memory_order_relaxed);
    outcome = engine != nullptr
                  ? generate_tokens_batched(*engine, session->inference, session->history,
                                            prompt, max_new_tokens, temperature, seed, &cancel)
                  : generate_tokens(session->inference, session->history, prompt,
                                    max_new_tokens, temperature, seed, &cancel);
  } else {
    nn::GptInference inference(world->model);
    std::vector<nn::Token> history;
    outcome = engine != nullptr
                  ? generate_tokens_batched(*engine, inference, history, prompt,
                                            max_new_tokens, temperature, seed, &cancel)
                  : generate_tokens(inference, history, prompt, max_new_tokens, temperature,
                                    seed, &cancel);
  }
  if (outcome.cancelled) return cancelled_response(cancel);
  if (outcome.context_overflow && outcome.generated.empty()) {
    return error_response(422, "prompt does not fit the context window");
  }

  const std::vector<tokenizer::TokenId> ids(outcome.generated.begin(),
                                            outcome.generated.end());
  json::Value out = json::Value::object();
  out.set("text", world->world.tok.decode(ids));
  out.set("tokens_generated", static_cast<std::int64_t>(outcome.generated.size()));
  out.set("reused_prefix_tokens", static_cast<std::int64_t>(outcome.reused_prefix_tokens));
  out.set("context_overflow", outcome.context_overflow);
  if (!session_id.empty()) out.set("session", session_id);
  out.set("model_generation", static_cast<std::int64_t>(world->generation));
  return json_response(200, out);
}

HttpResponse InferenceServer::handle_healthz() {
  const std::shared_ptr<const ServedWorld> world = current_world();
  const bool overloaded = gate_.in_flight() >= gate_.capacity();
  json::Value out = json::Value::object();
  out.set("status", draining() ? "draining" : (overloaded ? "overloaded" : "ok"));
  out.set("draining", draining());
  out.set("model_generation", static_cast<std::int64_t>(world->generation));
  out.set("scale", core::scale_name(world->scale));
  out.set("benchmark_questions", static_cast<std::int64_t>(world->world.mcqs.benchmark.size()));
  out.set("sessions", static_cast<std::int64_t>(sessions_.count()));
  out.set("in_flight", static_cast<std::int64_t>(gate_.in_flight()));
  // Degraded readiness: a load balancer should stop routing here while the
  // process drains or every slot is busy, but the endpoint itself answers.
  return json_response(draining() || overloaded ? 503 : 200, out);
}

HttpResponse InferenceServer::handle_metrics() {
  // Refresh level gauges at scrape time — they are cheap and exact.
  metrics::registry().gauge("serve.in_flight").set(
      static_cast<std::int64_t>(gate_.in_flight()));
  metrics::registry().gauge("serve.sessions").set(
      static_cast<std::int64_t>(sessions_.count()));

  std::string text;
  for (const auto& [name, value] : metrics::registry().counters()) {
    text += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : metrics::registry().gauges()) {
    text += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, snap] : metrics::registry().histograms()) {
    text += name + "_count " + std::to_string(snap.count) + "\n";
    text += name + "_sum " + std::to_string(snap.sum) + "\n";
    text += name + "_p50 " + std::to_string(snap.p50) + "\n";
    text += name + "_p95 " + std::to_string(snap.p95) + "\n";
    text += name + "_p99 " + std::to_string(snap.p99) + "\n";
  }
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = std::move(text);
  return response;
}

HttpResponse InferenceServer::handle_swap(const HttpRequest& request) {
  json::Value body;
  try {
    body = json::parse(request.body);
  } catch (const json::ParseError& error) {
    return error_response(400, std::string("invalid JSON body: ") + error.what());
  }
  const std::string scale_name = body.get_string("scale", "");
  core::Scale scale;
  if (scale_name == "S7") {
    scale = core::Scale::kS7;
  } else if (scale_name == "S8") {
    scale = core::Scale::kS8;
  } else if (scale_name == "S70") {
    scale = core::Scale::kS70;
  } else {
    return error_response(400, "scale must be one of S7, S8, S70");
  }

  const std::shared_ptr<const ServedWorld> old_world = current_world();
  // Rebuild only the model side; the corpus/tokenizer world is shared and
  // copied by value, so the swap never blocks requests on a KB rebuild.
  nn::GptConfig arch = core::scale_spec(scale, old_world->world.config).arch;
  arch.vocab_size = old_world->world.tok.vocab_size();
  nn::GptModel model(arch);
  util::Rng rng(served_weight_seed(scale, old_world->world.config));
  model.init_weights(rng);
  // The new generation inherits the old one's weight dtype and paged-KV
  // settings (it gets its own fresh arena): a swap changes the scale, not
  // the memory regime the operator configured at startup.
  const std::shared_ptr<ServedWorld> next =
      build_served_world(scale, old_world->world, std::move(model), old_world->generation + 1,
                         old_world->mcq_cache != nullptr, old_world->options);
  swap_world(next);

  json::Value out = json::Value::object();
  out.set("model_generation", static_cast<std::int64_t>(next->generation));
  out.set("scale", core::scale_name(scale));
  return json_response(200, out);
}

}  // namespace astromlab::serve

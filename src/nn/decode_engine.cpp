#include "nn/decode_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace astromlab::nn {

DecodeEngine::DecodeEngine(const GptModel& model, std::size_t max_slots)
    : max_slots_(max_slots), bi_(model, max_slots) {
  free_slots_.reserve(max_slots);
  for (std::size_t i = max_slots; i-- > 0;) free_slots_.push_back(i);
  thread_ = std::thread([this] { engine_loop(); });
}

DecodeEngine::~DecodeEngine() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

DecodeEngine::Completion DecodeEngine::run(Request request) {
  if (request.prompt.empty()) {
    throw std::invalid_argument("DecodeEngine: empty prompt");
  }
  if (!request.on_logits) {
    throw std::invalid_argument("DecodeEngine: on_logits callback is required");
  }
  auto job = std::make_shared<Job>();
  job->req = std::move(request);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) throw std::runtime_error("DecodeEngine: shutting down");
    queue_.push_back(job);
  }
  cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] { return job->done; });
  }
  if (job->error) std::rethrow_exception(job->error);
  return Completion{job->cancelled};
}

std::size_t DecodeEngine::release_idle_kv() {
  std::lock_guard<std::mutex> bg(bi_mutex_);
  std::size_t freed = 0;
  for (std::size_t slot : free_slots_) freed += bi_.release_slot_kv(slot);
  return freed;
}

void DecodeEngine::engine_loop() {
  struct EngineMetrics {
    util::metrics::Counter& steps;
    util::metrics::Counter& tokens;
    util::metrics::Histogram& occupancy;
    util::metrics::Counter& prefill_tokens;
  };
  static EngineMetrics metrics{
      util::metrics::registry().counter("decode.steps"),
      util::metrics::registry().counter("decode.tokens"),
      util::metrics::registry().histogram("decode.batch_occupancy"),
      util::metrics::registry().counter("nn.prefill_tokens")};

  std::vector<std::shared_ptr<Job>> active;
  std::vector<std::shared_ptr<Job>> finished;
  std::vector<std::size_t> step_slots;
  std::vector<Token> step_tokens;
  std::vector<std::shared_ptr<Job>> step_jobs;
  const auto& cfg = bi_.model().config();

  for (;;) {
    std::vector<std::shared_ptr<Job>> admitted;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      if (active.empty()) {
        cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
      }
      // Continuous admission: fill every free slot from the queue before
      // the next step, so new requests join mid-flight batches.
      std::lock_guard<std::mutex> bg(bi_mutex_);
      while (!queue_.empty() && !free_slots_.empty()) {
        auto job = std::move(queue_.front());
        queue_.pop_front();
        job->slot = free_slots_.back();
        free_slots_.pop_back();
        admitted.push_back(std::move(job));
      }
    }

    finished.clear();
    {
      std::lock_guard<std::mutex> bg(bi_mutex_);
      // Finishes a job while the engine owns the batch state: runs the
      // consumer's completion hook and recycles the slot. The done flag is
      // published after this bi region (finished -> mutex_ below).
      auto retire = [&](const std::shared_ptr<Job>& job) {
        if (job->req.on_complete && !job->error) {
          try {
            job->req.on_complete(bi_, job->slot);
          } catch (...) {
            job->error = std::current_exception();
          }
        }
        free_slots_.push_back(job->slot);
        finished.push_back(job);
      };

      // Per-request slot preparation (prefix fork / reset + KV charge): a
      // throw here — typically the memory budget refusing this slot's KV —
      // fails this request alone; the rest of the batch keeps decoding.
      for (auto& job : admitted) {
        try {
          std::size_t fed = 0;
          if (job->req.prepare) {
            fed = job->req.prepare(bi_, job->slot, job->req.prompt);
          } else {
            bi_.reset_slot(job->slot);
          }
          if (fed >= job->req.prompt.size()) {
            throw std::logic_error("DecodeEngine: prepare consumed the whole prompt");
          }
          bi_.ensure_slot_kv(job->slot);
          job->cursor = fed;
          active.push_back(job);
        } catch (...) {
          job->error = std::current_exception();
          retire(job);
        }
      }

      // Gather one token per active slot. Prompt-phase jobs poll their
      // cancel token before the feed (the serial prompt-loop placement);
      // decode-phase jobs feed the token their callback returned. Feeds
      // that would throw in serial (`step` validation) fail their own job
      // here instead of poisoning the shared step.
      step_slots.clear();
      step_tokens.clear();
      step_jobs.clear();
      for (auto it = active.begin(); it != active.end();) {
        Job& job = **it;
        Token token;
        if (!job.decoding) {
          if (job.req.cancel != nullptr && job.req.cancel->cancelled()) {
            job.cancelled = true;
            retire(*it);
            it = active.erase(it);
            continue;
          }
          token = job.req.prompt[job.cursor];
        } else {
          token = job.pending;
        }
        if (token < 0 || static_cast<std::size_t>(token) >= cfg.vocab_size) {
          job.error = std::make_exception_ptr(
              std::out_of_range("BatchedInference: token id out of range"));
          retire(*it);
          it = active.erase(it);
          continue;
        }
        if (bi_.position(job.slot) >= cfg.ctx_len) {
          job.error = std::make_exception_ptr(
              std::length_error("BatchedInference: context window exhausted"));
          retire(*it);
          it = active.erase(it);
          continue;
        }
        step_slots.push_back(job.slot);
        step_tokens.push_back(token);
        step_jobs.push_back(*it);
        ++it;
      }

      if (!step_jobs.empty()) {
        bi_.step(step_slots.data(), step_tokens.data(), step_slots.size());
        metrics.steps.add();
        metrics.tokens.add(step_jobs.size());
        metrics.occupancy.record(static_cast<double>(step_jobs.size()));

        for (const auto& job : step_jobs) {
          if (!job->decoding) {
            ++job->cursor;
            metrics.prefill_tokens.add();
            if (job->cursor < job->req.prompt.size()) continue;  // still prompting
            job->decoding = true;
          }
          Token next = kStopDecoding;
          try {
            next = job->req.on_logits(bi_.logits(job->slot), bi_.position(job->slot));
          } catch (...) {
            job->error = std::current_exception();
          }
          if (job->error || next == kStopDecoding) {
            retire(job);
            active.erase(std::find(active.begin(), active.end(), job));
          } else {
            job->pending = next;
          }
        }
      }
    }

    if (!finished.empty()) {
      {
        std::lock_guard<std::mutex> lk(mutex_);
        for (const auto& job : finished) job->done = true;
      }
      done_cv_.notify_all();
    }
  }
}

}  // namespace astromlab::nn

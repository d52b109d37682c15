// cpt_train: continual pretraining of the S70 architecture on the synthetic
// astro-ph AIC corpus, with the corpus spec and the optimisation recipe the
// pipeline's CPT stage uses (core::cpt_corpus_spec, core::cpt_recipe: one
// epoch, micro-batch 8 full-context windows, cosine schedule). One Trainer
// runs the epoch with snapshots on and is cut when the measured window ends;
// a child that dies mid-epoch resumes from the Trainer's snapshot. An epoch
// that completes inside the window is followed by the next one.

#include <cmath>
#include <optional>

#include "common.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

#include "core/model_zoo.hpp"
#include "core/recipes.hpp"
#include "corpus/corpora.hpp"
#include "nn/checkpoint.hpp"
#include "nn/data.hpp"
#include "nn/train_state.hpp"
#include "nn/trainer.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace core = astromlab::core;
namespace corpus = astromlab::corpus;
namespace util = astromlab::util;

namespace {

/// Steps between Trainer snapshots: a crash re-runs at most this many.
constexpr std::size_t kSaveEvery = 4;
constexpr std::size_t kOracleWindows = 4;

const char* const kCounterNames[] = {"gemm.calls", "gemm.gemv_calls", "gemm.multi_gemv_calls",
                                     "pool.tasks_submitted"};

/// Thrown from `on_step` when the measured window has ended.
struct WindowEnded {};

/// Windows for the oracle's loss, seeded from the stream (training samples
/// windows uniformly, so they are not unseen; the check is that the shared
/// forward pass sees the loss fall).
std::vector<std::vector<nn::Token>> oracle_windows(const std::vector<nn::Token>& tokens,
                                                   std::size_t seq, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<nn::Token>> out;
  for (std::size_t w = 0; w < kOracleWindows; ++w) {
    const std::size_t start = rng.next_u64() % (tokens.size() - seq - 1);
    out.emplace_back(tokens.begin() + static_cast<std::ptrdiff_t>(start),
                     tokens.begin() + static_cast<std::ptrdiff_t>(start + seq + 1));
  }
  return out;
}

json::Value counters() {
  json::Value out = json::Value::object();
  for (const char* name : kCounterNames) {
    out.set(name, static_cast<double>(util::metrics::registry().counter(name).value()));
  }
  return out;
}

}  // namespace

nn::TrainConfig cpt_train_config(const core::WorldConfig& world) {
  return core::cpt_recipe(core::Scale::kS70, world);
}

int run_cpt(const util::ArgParser& args) {
  ChildArgs child = parse_child_args(args);
  util::Stopwatch watch;
  core::WorldConfig world_config;
  world_config.seed = mix_seed(child.seed, 21) % 1000000;
  world_config.kb.seed = mix_seed(child.seed, 22) % 1000000;
  const core::World world = core::build_world(world_config);
  const double build_world_s = watch.seconds();
  watch.reset();
  const corpus::CptSpec spec = core::cpt_corpus_spec(corpus::CptVariant::kAic, world_config);
  const auto ids = world.tok.encode(corpus::build_cpt_corpus(world.kb, spec));
  const std::vector<nn::Token> tokens(ids.begin(), ids.end());
  const double corpus_s = watch.seconds();
  watch.reset();
  nn::GptConfig arch = core::scale_spec(core::Scale::kS70, world_config).arch;
  arch.vocab_size = world.tok.vocab_size();
  nn::GptModel model(arch);
  util::Rng init_rng(mix_seed(child.seed, 24));
  model.init_weights(init_rng);
  const fs::path model_path = child.state / "model.ckpt";  // weights after the last epoch
  if (fs::exists(model_path)) nn::load_checkpoint_params(model, model_path);
  const double model_init_s = watch.seconds();

  const nn::TrainConfig config = cpt_train_config(world_config);
  const std::size_t tokens_per_step = config.micro_batch * config.grad_accum * config.seq_len;
  nn::StreamDataset data(tokens);
  {
    json::Value ready = json::Value::object();
    ready.set("build_world_s", build_world_s);
    ready.set("cpt_corpus_s", corpus_s);
    ready.set("model_init_s", model_init_s);
    ready.set("corpus_tokens", static_cast<double>(tokens.size()));
    ready.set("tokens_per_step", static_cast<double>(tokens_per_step));
    ready.set("epoch_steps", static_cast<double>(nn::Trainer(model, config).planned_steps(data)));
    ready.set("save_every", static_cast<double>(kSaveEvery));
    emit("READY", ready);
  }
  if (child.setup_only) return 0;
  establish_deadline(child);

  Oracle oracle(model);
  const auto windows = oracle_windows(tokens, config.seq_len, mix_seed(child.seed, 25));
  const fs::path initial_path = child.state / "initial_loss";
  if (read_lines(initial_path).empty()) {
    append_line(initial_path, std::to_string(oracle.mean_loss(windows)));
  }

  nn::DurabilityConfig durability;
  durability.save_every = kSaveEvery;
  durability.state_path = child.state / "trainer.state";
  durability.model_path = child.state / "trainer.model";
  const fs::path epochs_path = child.state / "epochs.jsonl";
  std::size_t epoch = read_lines(epochs_path).size();
  const double trace_at = child.deadline - child.seconds + child.lead_in;
  std::vector<std::string> problems;

  // Traced steps are recorded one span per optimiser step (the span opened
  // after a snapshot step covers that snapshot's writes too), in sessions of
  // kSaveEvery steps so that a crash loses one session only.
  std::optional<util::trace::Span> step_span;
  std::size_t session_steps = 0;
  const auto open_step_span = [&](std::size_t step, bool after_snapshot) {
    if (!child.trace || wall_now() < trace_at) return;
    if (!util::trace::enabled()) {
      start_trace(child, "cpt_e" + std::to_string(epoch) + "_s" + std::to_string(step));
      session_steps = 0;
    }
    step_span.emplace(after_snapshot ? "bench.snapshot_and_step" : "bench.train_step", "bench");
  };
  while (wall_now() < child.deadline) {
    nn::Trainer trainer(model, config);
    const std::size_t planned = trainer.planned_steps(data);
    util::Rng rng(mix_seed(child.seed, 100 + epoch));
    open_step_span(0, false);
    bool step_traced = util::trace::enabled();
    nn::TrainStats stats;
    try {
      stats = trainer.train(data, rng, durability, [&](std::size_t step, float loss) {
        step_span.reset();
        const bool snapshot = (step + 1) % kSaveEvery == 0 && step + 1 < planned;
        json::Value line = json::Value::object();
        line.set("epoch", static_cast<double>(epoch));
        line.set("step", static_cast<double>(step));
        line.set("loss", static_cast<double>(loss));
        line.set("finite", std::isfinite(loss));
        line.set("t", wall_now());
        line.set("traced", step_traced);
        line.set("snapshot", snapshot);  // the Trainer writes one before the next step
        line.set("counters", counters());
        emit("STEP", line);
        if (util::trace::enabled() && ++session_steps >= kSaveEvery) stop_trace();
        if (wall_now() >= child.deadline) throw WindowEnded{};
        open_step_span(step + 1, snapshot);
        step_traced = util::trace::enabled();
      });
    } catch (const WindowEnded&) {
      break;
    }
    step_span.reset();
    if (stats.tokens_processed != stats.steps * tokens_per_step) {
      problems.push_back("epoch " + std::to_string(epoch) + ": tokens_processed " +
                         std::to_string(stats.tokens_processed) + " != steps x batch x seq");
    }
    nn::save_checkpoint(model, model_path, nn::CheckpointPrecision::kF32);
    json::Value line = json::Value::object();
    line.set("epoch", static_cast<double>(epoch));
    line.set("steps", static_cast<double>(stats.steps));
    line.set("tokens_processed", static_cast<double>(stats.tokens_processed));
    line.set("tokens_per_step", static_cast<double>(tokens_per_step));
    append_line(epochs_path, line.dump());
    emit("EPOCH", line);
    ++epoch;
  }
  step_span.reset();
  if (util::trace::enabled()) stop_trace();
  emit_measured();

  util::Stopwatch verify_watch;
  // An epoch cut by the window's end leaves its last snapshot: the
  // Trainer's own count of the tokens it processed up to there.
  json::Value verify = json::Value::object();
  if (fs::exists(durability.state_path)) {
    const nn::TrainerState state = nn::load_trainer_state(durability.state_path);
    verify.set("snapshot_steps", static_cast<double>(state.next_step));
    if (state.tokens_processed != state.next_step * tokens_per_step) {
      problems.push_back("snapshot at step " + std::to_string(state.next_step) +
                         ": tokens_processed " + std::to_string(state.tokens_processed) +
                         " != steps x batch x seq");
    }
  }
  const double before = std::stod(read_lines(initial_path).front());
  const double after = oracle.mean_loss(windows);
  if (!std::isfinite(after) || !(after < before)) {
    problems.push_back("oracle loss did not fall: " + std::to_string(before) + " -> " +
                       std::to_string(after));
  }
  verify.set("ok", problems.empty());
  verify.set("loss_before", before);
  verify.set("loss_after", after);
  verify.set("seconds", verify_watch.seconds());
  verify.set("peak_tracked_bytes",
             static_cast<double>(util::metrics::registry().gauge("memory.peak_bytes").value()));
  json::Value list = json::Value::array();
  for (const auto& p : problems) list.push_back(p);
  verify.set("problems", std::move(list));
  emit("VERIFY", verify);
  return 0;
}

}  // namespace perfbench

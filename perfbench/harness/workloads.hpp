#pragma once
// Entry points of the harness subcommands (one per workload child, plus the
// serve oracle and the per-layer probes).

#include <cstdint>

#include "core/experiment.hpp"
#include "nn/gpt.hpp"
#include "nn/trainer.hpp"
#include "util/cli.hpp"

namespace perfbench {

/// The mcq_eval world (the default WorldConfig) and its S70-architecture
/// model with seeded weights, shared with the probes.
astromlab::core::WorldConfig mcq_world_config(std::uint64_t seed);
astromlab::nn::GptModel mcq_model(const astromlab::core::World& world, std::uint64_t seed);

/// The optimisation recipe cpt_train runs (the pipeline's CPT recipe for
/// S70), shared with the training probes.
astromlab::nn::TrainConfig cpt_train_config(const astromlab::core::WorldConfig& world);

int run_mcq(const astromlab::util::ArgParser& args);
int run_decode(const astromlab::util::ArgParser& args);
int run_cpt(const astromlab::util::ArgParser& args);
int run_serve_oracle(const astromlab::util::ArgParser& args);
int run_probes(const astromlab::util::ArgParser& args);
int run_describe(const astromlab::util::ArgParser& args);

}  // namespace perfbench

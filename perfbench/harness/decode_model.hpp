#pragma once
// The decode_bound model and inputs, shared by the workload and the probes.

#include <cstdint>
#include <filesystem>
#include <vector>

#include "nn/gpt.hpp"

namespace perfbench {

namespace nn = astromlab::nn;

inline constexpr std::size_t kDecodePool = 2;        ///< distinct prompts
inline constexpr std::size_t kDecodePromptMin = 6;   ///< prompt tokens
inline constexpr std::size_t kDecodePromptMax = 12;
inline constexpr std::size_t kDecodeLength = 48;     ///< greedy tokens per sequence
/// The weights are the same for every workload seed (the seed picks the
/// prompts), so one cached checkpoint serves every run of a checkout.
inline constexpr std::uint64_t kDecodeWeightSeed = 70;

/// 16 layers of d_model 1024 / d_ff 4096 over a 2048-token vocabulary:
/// ~203M parameters, ~406 MB of bf16 weights.
nn::GptConfig decode_config();

/// The decode model with bf16 weights for the dequant-fused kernels: loaded
/// from the checkpoint at `cache` when present, else initialised from
/// kDecodeWeightSeed and saved there (an empty path skips the cache).
nn::GptModel decode_model(const std::filesystem::path& cache);

/// The seeded prompt pool.
std::vector<std::vector<nn::Token>> decode_prompts(std::uint64_t seed, std::size_t vocab);

/// Greedy continuation through a serial nn::GptInference.
std::vector<nn::Token> serial_greedy(const nn::GptModel& model,
                                     const std::vector<nn::Token>& prompt, std::size_t length);

}  // namespace perfbench

// serve-oracle: checks the HTTP responses recorded by the serve_chat load
// generator against the shared oracle, on a ServedWorld built exactly as
// the `serve` binary builds it from the same world flags.
//
//   perfbench_harness serve-oracle --in=<observations.json> [world flags]
//
// Input: {"mcq": [{"index": i, "answer": "A"}], "generate": [{"prompt_hex",
// "max_new_tokens", "text_hex"}], "sessioned": ["prompt_hex", ...]}. Texts
// travel as the hex of their raw bytes: random-weight models emit byte
// tokens that need not form UTF-8, and chat prompts resend them.

#include <fstream>
#include <sstream>

#include "common.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

#include "eval/prompts.hpp"
#include "serve/world.hpp"

namespace perfbench {

namespace core = astromlab::core;
namespace eval = astromlab::eval;
namespace serve = astromlab::serve;
namespace util = astromlab::util;

namespace {

std::string from_hex(const std::string& hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

}  // namespace

int run_serve_oracle(const util::ArgParser& args) {
  core::WorldConfig config;
  config.kb.n_topics = static_cast<std::size_t>(args.get_int("topics", 6));
  config.kb.entities_per_topic = static_cast<std::size_t>(args.get_int("entities", 4));
  config.kb.facts_per_entity = static_cast<std::size_t>(args.get_int("facts-per-entity", 2));
  config.mcq.questions_per_topic =
      static_cast<std::size_t>(args.get_int("questions-per-topic", 3));
  config.vocab_size = static_cast<std::size_t>(args.get_int("vocab", 512));
  config.ctx_len = static_cast<std::size_t>(args.get_int("ctx", 416));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::shared_ptr<serve::ServedWorld> world =
      serve::build_served_world(core::Scale::kS70, config, 1, /*prefix_cache=*/false);
  const auto& tok = world->world.tok;

  std::ifstream in(args.get_string("in", ""));
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value input = json::parse(buffer.str());

  Oracle oracle(world->model);
  const std::vector<nn::Token> letter_ids(world->letters.ids.begin(), world->letters.ids.end());
  std::vector<std::string> problems;
  std::size_t mcq_checked = 0, generate_checked = 0, ties = 0;
  for (const json::Value& item : input.find("mcq")->items()) {
    const auto q = static_cast<std::size_t>(item.get_number("index", -1));
    const std::string answer = item.get_string("answer", "");
    const auto& benchmark = world->world.mcqs.benchmark;
    if (q >= benchmark.size() || answer.size() != 1) {
      problems.push_back("mcq answer out of range");
      continue;
    }
    const auto ids = tok.encode(eval::build_token_prompt(benchmark[q], world->fewshot));
    std::vector<nn::Token> prompt(ids.begin(), ids.end());
    if (world->letters.feed_space_first) {
      if (const auto space = tok.token_to_id(" ")) prompt.push_back(*space);
    }
    const std::vector<float> row = oracle.last_logits(prompt);
    bool tie = false;
    const int letter = answer[0] - 'A';
    if (letter < 0 || letter > 3 ||
        !Oracle::is_argmax(row.data(), letter_ids, letter_ids[letter], &tie)) {
      problems.push_back("/v1/mcq answer for question " + std::to_string(q) +
                         " is not the oracle argmax");
    }
    ties += tie ? 1 : 0;
    ++mcq_checked;
  }
  const auto decode = [&](const std::vector<nn::Token>& tokens) {
    return tok.decode(std::vector<astromlab::tokenizer::TokenId>(tokens.begin(), tokens.end()));
  };
  for (const json::Value& item : input.find("generate")->items()) {
    const auto ids = tok.encode(from_hex(item.get_string("prompt_hex", "")));
    const std::vector<nn::Token> prompt(ids.begin(), ids.end());
    const auto max_new = static_cast<std::size_t>(item.get_number("max_new_tokens", 0));
    const OracleDecode expect = oracle.greedy(prompt, max_new, {});
    if (!text_matches(expect, from_hex(item.get_string("text_hex", "")), decode)) {
      problems.push_back("/v1/generate output differs from the oracle greedy decode");
    }
    ties += expect.first_tie < expect.tokens.size() ? 1 : 0;
    ++generate_checked;
  }
  double sessioned_tokens = 0;
  for (const json::Value& prompt : input.find("sessioned")->items()) {
    sessioned_tokens += static_cast<double>(tok.encode(from_hex(prompt.as_string())).size());
  }
  json::Value verify = json::Value::object();
  verify.set("ok", problems.empty());
  verify.set("mcq_checked", static_cast<double>(mcq_checked));
  verify.set("generate_checked", static_cast<double>(generate_checked));
  verify.set("ties", static_cast<double>(ties));
  verify.set("sessioned_prompt_tokens", sessioned_tokens);
  json::Value list = json::Value::array();
  for (const auto& p : problems) list.push_back(p);
  verify.set("problems", std::move(list));
  emit("VERIFY", verify);
  return 0;
}

}  // namespace perfbench

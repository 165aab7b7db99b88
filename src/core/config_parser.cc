#include "core/config_parser.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <optional>
#include <type_traits>

#include "common/string_util.h"

namespace mqa {

namespace {

/// Reads one value into a field of type T: booleans in the spellings
/// below, integers as unsigned decimal narrowed to the field, floats as
/// strtof/strtod read them.
template <typename T>
Status ParseValue(const std::string& key, const std::string& value, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::string v = ToLower(value);
    if (v == "true" || v == "1" || v == "yes" || v == "on") {
      *out = true;
    } else if (v == "false" || v == "0" || v == "no" || v == "off") {
      *out = false;
    } else {
      return Status::InvalidArgument("bad boolean for " + key + ": " + value);
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = value;
  } else {
    char* end = nullptr;
    T v{};
    if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(std::strtoull(value.c_str(), &end, 10));
    } else if constexpr (std::is_same_v<T, float>) {
      v = std::strtof(value.c_str(), &end);
    } else {
      v = std::strtod(value.c_str(), &end);
    }
    if (end == value.c_str() || *end != '\0') {
      return Status::InvalidArgument(
          std::string(std::is_integral_v<T> ? "bad integer for "
                                            : "bad float for ") +
          key + ": " + value);
    }
    *out = v;
  }
  return Status::OK();
}

/// Prints a field so that ParseValue reads back exactly the same value;
/// floats use their shortest round-trip form.
template <typename T>
std::string FormatValue(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, r.ptr);
  }
}

/// One config-text key: how to read its value into an MqaConfig and how to
/// print it back. `print` yields nothing for a value the config does not
/// hold (a noise slot past the end of world.modality_noise).
struct ConfigKey {
  const char* name;
  std::function<Status(const std::string& value, MqaConfig* config)> parse;
  std::function<std::optional<std::string>(const MqaConfig& config)> print;
};

/// Binds a key to the field `field(config)` refers to; `then` applies the
/// key's coupled effects on other fields after a successful parse.
template <typename FieldFn>
ConfigKey Bind(const char* name, FieldFn field,
               void (*then)(MqaConfig*) = nullptr) {
  return {name,
          [name, field, then](const std::string& value, MqaConfig* config) {
            MQA_RETURN_NOT_OK(ParseValue(name, value, &field(*config)));
            if (then != nullptr) then(config);
            return Status::OK();
          },
          [field](const MqaConfig& config) -> std::optional<std::string> {
            return FormatValue(field(config));
          }};
}

/// world.image_noise / world.text_noise: slots 0 and 1 of
/// world.modality_noise, which parsing grows to two entries.
ConfigKey NoiseKey(const char* name, size_t slot) {
  return {name,
          [name, slot](const std::string& value, MqaConfig* config) {
            std::vector<float>& noise = config->world.modality_noise;
            if (noise.size() < 2) noise.resize(2, 0.1f);
            return ParseValue(name, value, &noise[slot]);
          },
          [slot](const MqaConfig& config) -> std::optional<std::string> {
            const std::vector<float>& noise = config.world.modality_noise;
            if (slot >= noise.size()) return std::nullopt;
            return FormatValue(noise[slot]);
          }};
}

/// The key of a removed option: a config.txt saved before the removal
/// still holds it, so it parses (any value) and is ignored; it is never
/// printed.
ConfigKey RetiredKey(const char* name) {
  return {name, [](const std::string&, MqaConfig*) { return Status::OK(); },
          [](const MqaConfig&) -> std::optional<std::string> {
            return std::nullopt;
          }};
}

#define MQA_FIELD(path) [](auto& c) -> auto& { return c.path; }

/// Every key the config text knows, in print order. The order matters
/// where a key has coupled effects: `seed` also sets world.seed and
/// `world.latent_dim` may grow world.raw_image_dim, so each prints before
/// the key it overrides.
const std::vector<ConfigKey>& ConfigKeys() {
  static const std::vector<ConfigKey> keys = {
      Bind("enable_knowledge_base", MQA_FIELD(enable_knowledge_base)),
      Bind("corpus_size", MQA_FIELD(corpus_size)),
      Bind("kb_name", MQA_FIELD(kb_name)),
      Bind("encoder", MQA_FIELD(encoder_preset)),
      Bind("embedding_dim", MQA_FIELD(embedding_dim)),
      Bind("learn_weights", MQA_FIELD(learn_weights)),
      Bind("training_triplets", MQA_FIELD(num_training_triplets)),
      Bind("index.algorithm", MQA_FIELD(index.algorithm)),
      Bind("index.max_degree", MQA_FIELD(index.graph.max_degree),
           [](MqaConfig* c) {
             c->index.hnsw.m = std::max<uint32_t>(
                 2, c->index.graph.max_degree / 2);
           }),
      Bind("index.build_beam", MQA_FIELD(index.graph.build_beam),
           [](MqaConfig* c) {
             c->index.hnsw.ef_construction = c->index.graph.build_beam;
           }),
      Bind("index.alpha", MQA_FIELD(index.graph.alpha)),
      Bind("index.sketch_prefilter", MQA_FIELD(index.sketch_prefilter)),
      Bind("index.sketch_scale", MQA_FIELD(index.sketch_scale)),
      Bind("simd.level", MQA_FIELD(simd_level)),
      Bind("framework", MQA_FIELD(framework)),
      Bind("search.k", MQA_FIELD(search.k)),
      Bind("search.beam_width", MQA_FIELD(search.beam_width)),
      Bind("rewrite_vague_queries", MQA_FIELD(rewrite_vague_queries)),
      Bind("llm", MQA_FIELD(llm)),
      Bind("temperature", MQA_FIELD(temperature)),
      Bind("resilience.enable", MQA_FIELD(resilience.enable)),
      Bind("resilience.llm_max_attempts",
           MQA_FIELD(resilience.llm_max_attempts)),
      Bind("resilience.llm_backoff_ms",
           MQA_FIELD(resilience.llm_initial_backoff_ms)),
      Bind("resilience.llm_deadline_ms",
           MQA_FIELD(resilience.llm_overall_deadline_ms)),
      Bind("resilience.breaker_threshold",
           MQA_FIELD(resilience.breaker_failure_threshold)),
      Bind("resilience.breaker_open_ms",
           MQA_FIELD(resilience.breaker_open_ms)),
      Bind("resilience.encoder_max_attempts",
           MQA_FIELD(resilience.encoder_max_attempts)),
      Bind("resilience.io_error_budget",
           MQA_FIELD(index.disk.io_error_budget)),
      Bind("serving.num_workers", MQA_FIELD(serving.num_workers)),
      Bind("serving.queue_capacity", MQA_FIELD(serving.queue_capacity)),
      Bind("serving.default_deadline_ms",
           MQA_FIELD(serving.default_deadline_ms)),
      Bind("serving.enable_batching", MQA_FIELD(serving.enable_batching)),
      Bind("serving.max_batch", MQA_FIELD(serving.max_batch)),
      Bind("serving.batch_flush_slack_ms",
           MQA_FIELD(serving.batch_flush_slack_ms)),
      Bind("serving.breaker_threshold",
           MQA_FIELD(serving.breaker_failure_threshold)),
      Bind("serving.breaker_open_ms", MQA_FIELD(serving.breaker_open_ms)),
      Bind("shard.enable", MQA_FIELD(shard.enable)),
      Bind("shard.num_shards", MQA_FIELD(shard.num_shards)),
      Bind("shard.quorum", MQA_FIELD(shard.quorum)),
      Bind("shard.partition", MQA_FIELD(shard.partition)),
      RetiredKey("shard.hedge_percentile"),
      RetiredKey("shard.hedge_min_samples"),
      RetiredKey("shard.deadline_fraction"),
      Bind("shard.fanout_threads", MQA_FIELD(shard.fanout_threads)),
      Bind("shard.breaker_threshold",
           MQA_FIELD(shard.breaker_failure_threshold)),
      Bind("shard.breaker_open_ms", MQA_FIELD(shard.breaker_open_ms)),
      Bind("observability.trace_turns",
           MQA_FIELD(observability.trace_turns)),
      Bind("observability.explain_turns",
           MQA_FIELD(observability.explain_turns)),
      Bind("observability.trace_build",
           MQA_FIELD(observability.trace_build)),
      Bind("seed", MQA_FIELD(seed),
           [](MqaConfig* c) { c->world.seed = c->seed; }),
      Bind("world.num_concepts", MQA_FIELD(world.num_concepts)),
      Bind("world.latent_dim", MQA_FIELD(world.latent_dim),
           [](MqaConfig* c) {
             if (c->world.raw_image_dim < c->world.latent_dim) {
               c->world.raw_image_dim = c->world.latent_dim * 2;
             }
           }),
      Bind("world.seed", MQA_FIELD(world.seed)),
      Bind("world.raw_image_dim", MQA_FIELD(world.raw_image_dim)),
      Bind("world.words_per_concept", MQA_FIELD(world.words_per_concept)),
      Bind("world.adjectives_per_noun",
           MQA_FIELD(world.adjectives_per_noun)),
      Bind("world.extra_modalities", MQA_FIELD(world.num_extra_modalities)),
      Bind("world.object_noise", MQA_FIELD(world.object_noise)),
      Bind("world.adjective_dropout",
           MQA_FIELD(world.text_adjective_dropout)),
      NoiseKey("world.image_noise", 0),
      NoiseKey("world.text_noise", 1),
  };
  return keys;
}

#undef MQA_FIELD

}  // namespace

Result<MqaConfig> ParseMqaConfig(const std::vector<std::string>& lines) {
  MqaConfig config;
  for (size_t lineno = 0; lineno < lines.size(); ++lineno) {
    const std::string line = Trim(lines[lineno]);
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(lineno + 1) +
                                     ": expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("line " + std::to_string(lineno + 1) +
                                     ": empty key or value");
    }
    const std::vector<ConfigKey>& keys = ConfigKeys();
    auto it = std::find_if(keys.begin(), keys.end(), [&](const ConfigKey& k) {
      return key == k.name;
    });
    if (it == keys.end()) {
      return Status::InvalidArgument("unknown config key: " + key);
    }
    MQA_RETURN_NOT_OK(it->parse(value, &config));
  }
  return config;
}

Result<MqaConfig> ParseMqaConfigText(const std::string& text) {
  return ParseMqaConfig(Split(text, '\n'));
}

std::string MqaConfigToText(const MqaConfig& config) {
  std::string out;
  for (const ConfigKey& key : ConfigKeys()) {
    if (std::optional<std::string> value = key.print(config)) {
      out += std::string(key.name) + " = " + *value + "\n";
    }
  }
  return out;
}

}  // namespace mqa

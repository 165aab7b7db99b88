#ifndef MQA_CORE_CONFIG_PARSER_H_
#define MQA_CORE_CONFIG_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"

namespace mqa {

/// Parses `key = value` lines into an MqaConfig — the textual equivalent
/// of the frontend's configuration panel. Unknown keys and malformed
/// values are errors (fail fast on typos). Blank lines and lines starting
/// with '#' are ignored.
///
/// The recognized keys, the field each one sets and any coupled effects
/// on other fields are listed once, in the key table `ConfigKeys()` in
/// config_parser.cc, which drives MqaConfigToText too.
Result<MqaConfig> ParseMqaConfig(const std::vector<std::string>& lines);

/// Convenience: splits `text` on newlines and parses.
Result<MqaConfig> ParseMqaConfigText(const std::string& text);

/// Prints every key of the table with its value in `config`, in a form
/// ParseMqaConfigText reads back exactly (floats included). Fields that no
/// key names (clocks, learner settings, ...) are not printed, and a field
/// set only through a coupled key (hnsw.m, hnsw.ef_construction) comes
/// back as the coupling derives it.
std::string MqaConfigToText(const MqaConfig& config);

}  // namespace mqa

#endif  // MQA_CORE_CONFIG_PARSER_H_

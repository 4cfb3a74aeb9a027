#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"

namespace gemsd::obs {

/// `git describe --always --dirty` captured at configure time ("unknown"
/// outside a git checkout).
const char* build_git_describe();

/// Serialize every model parameter of a SystemConfig (including seed and all
/// device / path-length / partition settings) as a JSON object with a fixed
/// key order. The observer settings (`obs`) are left out: they never change
/// results, so they are not part of the configuration's identity. Any result
/// file carrying this object is reproducible from its header alone.
std::string config_json(const SystemConfig& cfg);

/// FNV-1a over config_json(cfg): a short stable identity for "same
/// configuration" checks across result files.
std::uint64_t config_hash(const SystemConfig& cfg);

/// Hash formatted as a 16-digit hex string (JSON-safe: uint64 does not fit
/// in a double).
std::string config_hash_hex(const SystemConfig& cfg);

}  // namespace gemsd::obs

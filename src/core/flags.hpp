#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <variant>
#include <vector>

namespace gemsd {

/// Strict numeric values: true iff all of `v` parses (no trailing
/// characters, not empty); `out` is unspecified on failure. to_int and
/// to_i64 also reject fractional and out-of-range values, to_u64 negative
/// ones. Every command-line front end and the run-spec parser use these.
bool to_double(const std::string& v, double& out);
bool to_int(const std::string& v, int& out);
bool to_i64(const std::string& v, std::int64_t& out);
bool to_u64(const std::string& v, std::uint64_t& out);

/// One command-line flag, bound to the member its value lands in. A tool's
/// flag table is a vector of these; parse_flags reads argv against it and
/// flag_usage renders its usage text, so the two cannot drift apart.
struct Flag {
  enum class Kind {
    Switch,  ///< --name
    Int,     ///< --name=N
    U64,     ///< --name=N, N >= 0
    Double,  ///< --name=X
    String,  ///< --name=TEXT
    Regex,   ///< --name=RE, rejected unless it compiles as a std::regex
    OptFile  ///< --name or --name=FILE; FILE lands in the target
  };
  std::string name;  ///< "--measure"
  Kind kind;
  std::string meta = "";  ///< value placeholder in the usage ("S", "FILE")
  std::string help = "";  ///< usage text; each '\n' starts an indented line
  /// Switch: a bool; the other kinds: the value's type (OptFile: the FILE
  /// string); monostate: no member, `also` does the work.
  std::variant<std::monostate, bool*, int*, std::uint64_t*, double*,
               std::string*>
      target = std::monostate{};
  /// Numeric kinds: a value must be > above.
  double above = -std::numeric_limits<double>::infinity();
  /// Numeric kinds: the value a bare --name stands for (null: required).
  const char* bare = nullptr;
  /// Runs after every accepted occurrence.
  std::function<void()> also = nullptr;
};

using FlagTable = std::vector<Flag>;

/// Parse `args` against `table`. Returns "" on success, or an error that
/// quotes the offending argument: an unknown flag, a missing, malformed or
/// out-of-range value. Arguments not starting with '-' go to `positional`,
/// or are errors when it is null. "-h" stands for "--help".
std::string parse_flags(const std::vector<std::string>& args,
                        const FlagTable& table,
                        std::vector<std::string>* positional = nullptr);

/// One usage line (plus continuation lines) per entry, in table order.
std::string flag_usage(const FlagTable& table);

}  // namespace gemsd

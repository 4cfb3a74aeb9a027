#include "core/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <regex>

namespace gemsd {

bool to_double(const std::string& v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end && *end == '\0';
}

bool to_int(const std::string& v, int& out) {
  double d;
  if (!to_double(v, d) || !(d >= std::numeric_limits<int>::min() &&
                            d <= std::numeric_limits<int>::max()) ||
      d != static_cast<double>(static_cast<int>(d))) {
    return false;
  }
  out = static_cast<int>(d);
  return true;
}

bool to_i64(const std::string& v, std::int64_t& out) {
  // 2^63 is exactly representable; every double below it converts.
  constexpr double kLimit = 9223372036854775808.0;
  double d;
  if (!to_double(v, d) || !(d >= -kLimit && d < kLimit) ||
      d != static_cast<double>(static_cast<std::int64_t>(d))) {
    return false;
  }
  out = static_cast<std::int64_t>(d);
  return true;
}

bool to_u64(const std::string& v, std::uint64_t& out) {
  // strtoull would wrap "-1" to 2^64-1.
  if (v.empty() || v[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(v.c_str(), &end, 10);
  return end && *end == '\0';
}

namespace {

/// Parse `v` as a T, range-check it and store it in the entry's target;
/// "" or the reason it was refused.
template <class T>
std::string store(const Flag& f, const std::string& v,
                  bool (*parse)(const std::string&, T&), const char* what) {
  T x{};
  if (!parse(v, x)) return what;
  if (!(static_cast<double>(x) > f.above)) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "must be > %g", f.above);
    return buf;
  }
  *std::get<T*>(f.target) = x;
  return "";
}

std::string set_value(const Flag& f, const std::string& v) {
  switch (f.kind) {
    case Flag::Kind::Switch:
      return "takes no value";
    case Flag::Kind::Int:
      return store<int>(f, v, to_int, "not an integer");
    case Flag::Kind::U64:
      return store<std::uint64_t>(f, v, to_u64, "not a non-negative integer");
    case Flag::Kind::Double:
      return store<double>(f, v, to_double, "not a number");
    case Flag::Kind::Regex:
      // Validate here: a bad regex must refuse to start the run, not throw
      // out of a worker thread mid-sweep.
      try {
        (void)std::regex(v);
      } catch (const std::regex_error&) {
        return "not a valid regex";
      }
      break;
    case Flag::Kind::String:
    case Flag::Kind::OptFile:
      break;
  }
  *std::get<std::string*>(f.target) = v;
  return "";
}

}  // namespace

std::string parse_flags(const std::vector<std::string>& args,
                        const FlagTable& table,
                        std::vector<std::string>* positional) {
  for (const std::string& arg : args) {
    if (arg.size() < 2 || arg[0] != '-') {
      if (!positional) return "unknown argument '" + arg + "'";
      positional->push_back(arg);
      continue;
    }
    const std::string a = arg == "-h" ? "--help" : arg;
    const std::size_t eq = a.find('=');
    const std::string name = a.substr(0, eq);
    const auto f = std::find_if(table.begin(), table.end(),
                                [&](const Flag& e) { return e.name == name; });
    if (f == table.end()) {
      // Catches typos ("--job=4") and the space form ("--warmup 5", which
      // arrives as a bare "--warmup" plus a stray value): running with
      // silently-defaulted settings is worse than refusing to start.
      return "unknown argument '" + arg + "' (value flags take --flag=value)";
    }
    std::string why;
    if (eq != std::string::npos) {
      why = set_value(*f, a.substr(eq + 1));
    } else if (f->kind == Flag::Kind::Switch) {
      if (bool* const* b = std::get_if<bool*>(&f->target)) **b = true;
    } else if (f->bare) {
      why = set_value(*f, f->bare);
    } else if (f->kind != Flag::Kind::OptFile) {
      return "missing value in '" + arg + "' (value flags take --flag=value)";
    }
    if (!why.empty()) return "malformed value in '" + arg + "' (" + why + ")";
    if (f->also) f->also();
  }
  return "";
}

std::string flag_usage(const FlagTable& table) {
  constexpr std::size_t kHelpColumn = 21;
  std::string out;
  for (const Flag& f : table) {
    std::string line = "  " + f.name;
    if (f.kind == Flag::Kind::OptFile || f.bare) {
      line += "[=" + f.meta + "]";
    } else if (f.kind != Flag::Kind::Switch) {
      line += "=" + f.meta;
    }
    line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
    for (const char c : f.help) {
      line += c;
      if (c == '\n') line.append(kHelpColumn, ' ');
    }
    out += line + '\n';
  }
  return out;
}

}  // namespace gemsd

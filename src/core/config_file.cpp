#include "core/config_file.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/flags.hpp"

namespace gemsd {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("run spec, line " + std::to_string(line) + ": " +
                           what);
}

bool parse_bool(const std::string& v, int line) {
  const std::string l = lower(v);
  if (l == "true" || l == "yes" || l == "on" || l == "1") return true;
  if (l == "false" || l == "no" || l == "off" || l == "0") return false;
  fail(line, "expected a boolean, got '" + v + "'");
}

StorageKind parse_storage(const std::string& v, int line) {
  const std::string l = lower(v);
  if (l == "disk") return StorageKind::Disk;
  if (l == "vcache") return StorageKind::DiskVolatileCache;
  if (l == "nvcache") return StorageKind::DiskNvCache;
  if (l == "gemcache") return StorageKind::DiskGemCache;
  if (l == "gem") return StorageKind::Gem;
  fail(line, "unknown storage kind '" + v + "'");
}

const char* storage_name(StorageKind k) {
  switch (k) {
    case StorageKind::Disk: return "disk";
    case StorageKind::DiskVolatileCache: return "vcache";
    case StorageKind::DiskNvCache: return "nvcache";
    case StorageKind::DiskGemCache: return "gemcache";
    case StorageKind::Gem: return "gem";
  }
  return "disk";
}

double spec_num(const std::string& v, int line) {
  double d = 0;
  if (!to_double(v, d)) fail(line, "expected a number, got '" + v + "'");
  return d;
}

// Integers: a non-number gets spec_num's message, a fractional or
// out-of-range number this one.
int spec_int(const std::string& v, int line) {
  int i = 0;
  if (!to_int(v, i)) {
    (void)spec_num(v, line);
    fail(line, "expected an integer, got '" + v + "'");
  }
  return i;
}

std::int64_t spec_i64(const std::string& v, int line) {
  std::int64_t i = 0;
  if (!to_i64(v, i)) {
    (void)spec_num(v, line);
    fail(line, "expected an integer, got '" + v + "'");
  }
  return i;
}

/// Shortest decimal form that strtod round-trips to the same double.
/// Integral values print as plain integers ("100", not "1e+02").
std::string fmt_num(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Format a seconds value as microseconds such that the parser's `us * 1e-6`
/// reproduces the original double exactly. Prefers the shortest (often
/// integral) microsecond count over the exact but noisy `v * 1e6` digits.
std::string fmt_us(double v) {
  const double us = v * 1e6;
  if (const std::string s = std::to_string(std::llround(us));
      std::strtod(s.c_str(), nullptr) * 1e-6 == v) {
    return s;
  }
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, us);
    if (std::strtod(buf, nullptr) * 1e-6 == v) break;
  }
  return buf;
}

std::string fmt_int(std::int64_t v) { return std::to_string(v); }
std::string fmt_bool(bool v) { return v ? "true" : "false"; }

/// The scalar [system] key table — one entry drives both the parser and the
/// exporter, so the two can never drift apart.
struct KeyDef {
  const char* key;
  void (*set)(SystemConfig&, const std::string&, int line);
  std::string (*get)(const SystemConfig&);
};

const KeyDef kSystemKeys[] = {
    {"nodes",
     [](SystemConfig& c, const std::string& v, int l) {
       c.nodes = spec_int(v, l);
       if (c.nodes < 1) fail(l, "nodes must be >= 1");
     },
     [](const SystemConfig& c) { return fmt_int(c.nodes); }},
    {"tps",
     [](SystemConfig& c, const std::string& v, int l) {
       c.arrival_rate_per_node = spec_num(v, l);
       if (!(c.arrival_rate_per_node > 0)) fail(l, "tps must be > 0");
     },
     [](const SystemConfig& c) { return fmt_num(c.arrival_rate_per_node); }},
    {"coupling",
     [](SystemConfig& c, const std::string& v, int l) {
       const std::string s = lower(v);
       if (s == "gem") c.coupling = Coupling::GemLocking;
       else if (s == "pcl") c.coupling = Coupling::PrimaryCopy;
       else if (s == "engine") c.coupling = Coupling::LockEngine;
       else fail(l, "unknown coupling '" + v + "'");
     },
     [](const SystemConfig& c) -> std::string {
       switch (c.coupling) {
         case Coupling::GemLocking: return "gem";
         case Coupling::PrimaryCopy: return "pcl";
         case Coupling::LockEngine: return "engine";
       }
       return "gem";
     }},
    {"update",
     [](SystemConfig& c, const std::string& v, int l) {
       const std::string s = lower(v);
       if (s == "force") c.update = UpdateStrategy::Force;
       else if (s == "noforce") c.update = UpdateStrategy::NoForce;
       else fail(l, "unknown update strategy '" + v + "'");
     },
     [](const SystemConfig& c) -> std::string {
       return c.update == UpdateStrategy::Force ? "force" : "noforce";
     }},
    {"routing",
     [](SystemConfig& c, const std::string& v, int l) {
       const std::string s = lower(v);
       if (s == "affinity") c.routing = Routing::Affinity;
       else if (s == "random") c.routing = Routing::Random;
       else fail(l, "unknown routing '" + v + "'");
     },
     [](const SystemConfig& c) -> std::string {
       return c.routing == Routing::Affinity ? "affinity" : "random";
     }},
    {"buffer",
     [](SystemConfig& c, const std::string& v, int l) {
       c.buffer_pages = spec_int(v, l);
       if (c.buffer_pages < 1) fail(l, "buffer must be >= 1");
     },
     [](const SystemConfig& c) { return fmt_int(c.buffer_pages); }},
    {"mpl",
     [](SystemConfig& c, const std::string& v, int l) {
       c.mpl = spec_int(v, l);
       if (c.mpl < 1) fail(l, "mpl must be >= 1");
     },
     [](const SystemConfig& c) { return fmt_int(c.mpl); }},
    {"warmup",
     [](SystemConfig& c, const std::string& v, int l) {
       c.warmup = spec_num(v, l);
       if (!(c.warmup >= 0)) fail(l, "warmup must be >= 0");
     },
     [](const SystemConfig& c) { return fmt_num(c.warmup); }},
    {"measure",
     [](SystemConfig& c, const std::string& v, int l) {
       c.measure = spec_num(v, l);
       if (!(c.measure > 0)) fail(l, "measure must be > 0");
     },
     [](const SystemConfig& c) { return fmt_num(c.measure); }},
    {"seed",
     [](SystemConfig& c, const std::string& v, int l) {
       const std::int64_t s = spec_i64(v, l);
       if (s < 0) fail(l, "seed must be non-negative");
       c.seed = static_cast<std::uint64_t>(s);
     },
     [](const SystemConfig& c) {
       return fmt_int(static_cast<std::int64_t>(c.seed));
     }},
    {"log",
     [](SystemConfig& c, const std::string& v, int l) {
       c.log_storage = parse_storage(v, l) == StorageKind::Gem
                           ? StorageKind::Gem
                           : StorageKind::Disk;
     },
     [](const SystemConfig& c) -> std::string {
       return c.log_storage == StorageKind::Gem ? "gem" : "disk";
     }},
    {"log_disks",
     [](SystemConfig& c, const std::string& v, int l) {
       c.log_disks_per_node = spec_int(v, l);
       if (c.log_disks_per_node < 1) fail(l, "log_disks must be >= 1");
     },
     [](const SystemConfig& c) { return fmt_int(c.log_disks_per_node); }},
    {"group_commit",
     [](SystemConfig& c, const std::string& v, int l) {
       c.log_group_commit = parse_bool(v, l);
     },
     [](const SystemConfig& c) { return fmt_bool(c.log_group_commit); }},
    {"pcl_read_opt",
     [](SystemConfig& c, const std::string& v, int l) {
       c.pcl_read_optimization = parse_bool(v, l);
     },
     [](const SystemConfig& c) { return fmt_bool(c.pcl_read_optimization); }},
    {"gem_read_auth",
     [](SystemConfig& c, const std::string& v, int l) {
       c.gem_read_authorizations = parse_bool(v, l);
     },
     [](const SystemConfig& c) {
       return fmt_bool(c.gem_read_authorizations);
     }},
    {"transport",
     [](SystemConfig& c, const std::string& v, int l) {
       const std::string s = lower(v);
       if (s == "network") c.comm.transport = MsgTransport::Network;
       else if (s == "gem") c.comm.transport = MsgTransport::GemStore;
       else fail(l, "unknown transport '" + v + "'");
     },
     [](const SystemConfig& c) -> std::string {
       return c.comm.transport == MsgTransport::GemStore ? "gem" : "network";
     }},
    {"cpu_procs",
     [](SystemConfig& c, const std::string& v, int l) {
       c.cpu.processors = spec_int(v, l);
       if (c.cpu.processors < 1) fail(l, "cpu_procs must be >= 1");
     },
     [](const SystemConfig& c) { return fmt_int(c.cpu.processors); }},
    {"gem_entry_us",
     [](SystemConfig& c, const std::string& v, int l) {
       c.gem.entry_access = spec_num(v, l) * 1e-6;
       if (!(c.gem.entry_access >= 0)) fail(l, "gem_entry_us must be >= 0");
     },
     [](const SystemConfig& c) { return fmt_us(c.gem.entry_access); }},
    {"msg_short_instr",
     [](SystemConfig& c, const std::string& v, int l) {
       c.comm.short_instr = spec_num(v, l);
       if (!(c.comm.short_instr >= 0)) fail(l, "msg_short_instr must be >= 0");
     },
     [](const SystemConfig& c) { return fmt_num(c.comm.short_instr); }},
    {"msg_long_instr",
     [](SystemConfig& c, const std::string& v, int l) {
       c.comm.long_instr = spec_num(v, l);
       if (!(c.comm.long_instr >= 0)) fail(l, "msg_long_instr must be >= 0");
     },
     [](const SystemConfig& c) { return fmt_num(c.comm.long_instr); }},
    {"lock_engine_us",
     [](SystemConfig& c, const std::string& v, int l) {
       c.lock_engine_service = spec_num(v, l) * 1e-6;
       if (!(c.lock_engine_service >= 0)) {
         fail(l, "lock_engine_us must be >= 0");
       }
     },
     [](const SystemConfig& c) {
       return fmt_us(c.lock_engine_service);
     }},
};

PartitionConfig* find_partition(SystemConfig& cfg, const std::string& name) {
  for (auto& pc : cfg.partitions) {
    if (pc.name == name) return &pc;
  }
  return nullptr;
}

/// Apply one raw key onto the config. Partition names are case-sensitive
/// (they are data, not syntax); everything else is lower-cased by the
/// caller.
void apply_one(SystemConfig& cfg, const std::string& key,
               const std::string& val, int line) {
  // Conditionally-emitted scalar keys (spec_keys writes them only when they
  // differ from the default, like the per-partition keys below, so shipped
  // single-GEM specs keep their exact bytes).
  if (key == "gem_shards") {
    cfg.gem.shards = spec_int(val, line);
    if (cfg.gem.shards < 1) fail(line, "gem_shards must be >= 1");
    return;
  }
  const auto dot = key.find('.');
  if (dot != std::string::npos) {
    const std::string field = key.substr(0, dot);
    const std::string pname = key.substr(dot + 1);
    PartitionConfig* pc = find_partition(cfg, pname);
    if (!pc) fail(line, "unknown partition '" + pname + "'");
    const auto cache_pages = [&] {
      const std::int64_t n = spec_i64(val, line);
      if (n < 0) fail(line, key + " must be >= 0");
      return n;
    };
    if (field == "storage") {
      pc->storage = parse_storage(val, line);
    } else if (field == "cache_pages") {
      pc->disk_cache_pages = cache_pages();
      pc->gem_cache_pages = pc->disk_cache_pages;
    } else if (field == "disk_cache_pages") {
      pc->disk_cache_pages = cache_pages();
    } else if (field == "gem_cache_pages") {
      pc->gem_cache_pages = cache_pages();
    } else {
      fail(line, "unknown partition key '" + field + "'");
    }
    return;
  }
  for (const KeyDef& def : kSystemKeys) {
    if (key == def.key) {
      def.set(cfg, val, line);
      return;
    }
  }
  fail(line, "unknown [system] key '" + key + "'");
}

struct RawKey {
  std::string key, val;
  int line;
};

}  // namespace

SpecDoc parse_spec_doc(std::istream& in) {
  SpecDoc doc;
  RunSpec proto;  // workload settings shared by every run
  std::vector<RawKey> base;
  std::vector<std::vector<RawKey>> run_keys;  // one per [run] section

  std::string section;
  std::string line_s;
  int line = 0;
  while (std::getline(in, line_s)) {
    ++line;
    std::string s = trim(line_s);
    if (s.empty() || s[0] == '#' || s[0] == ';') continue;
    if (s.front() == '[') {
      if (s.back() != ']') fail(line, "unterminated section header");
      section = s.substr(1, s.size() - 2);
      if (section == "run") run_keys.emplace_back();
      continue;
    }
    const auto eq = s.find('=');
    if (eq == std::string::npos) fail(line, "expected key = value");
    const std::string key = trim(s.substr(0, eq));
    const std::string val = trim(s.substr(eq + 1));
    // Lower-case the key, but never a partition name: in the flat
    // `field.NAME` form only the field part is syntax.
    const auto key_dot = key.find('.');
    const std::string lkey =
        key_dot == std::string::npos
            ? lower(key)
            : lower(key.substr(0, key_dot)) + key.substr(key_dot);

    if (section == "scenario") {
      if (lkey == "name") doc.scenario = val;
      else if (lkey == "caption") doc.caption = val;
      else fail(line, "unknown [scenario] key '" + key + "'");
      continue;
    }
    if (section == "workload") {
      if (lkey == "kind") {
        const std::string k = lower(val);
        if (k == "debit_credit" || k == "debit-credit") {
          proto.kind = RunSpec::Kind::DebitCredit;
        } else if (k == "trace") {
          proto.kind = RunSpec::Kind::Trace;
        } else {
          fail(line, "unknown workload kind '" + val + "'");
        }
      } else if (lkey == "trace_file") {
        proto.trace_file = val;
      } else if (lkey == "trace_txns") {
        const std::int64_t n = spec_i64(val, line);
        if (n < 0) fail(line, "trace_txns must be >= 0");
        proto.trace_txns = static_cast<std::size_t>(n);
      } else {
        fail(line, "unknown [workload] key '" + key + "'");
      }
      continue;
    }
    if (section.rfind("partition.", 0) == 0) {
      // Section form translates to the flat per-partition keys; the
      // partition name keeps its case.
      const std::string pname = section.substr(10);
      if (lkey != "storage" && lkey != "cache_pages" &&
          lkey != "disk_cache_pages" && lkey != "gem_cache_pages") {
        fail(line, "unknown [partition] key '" + key + "'");
      }
      base.push_back({lkey + "." + pname, val, line});
      continue;
    }
    if (section == "run") {
      run_keys.back().push_back({lkey, val, line});
      continue;
    }
    if (section != "system" && !section.empty()) {
      fail(line, "unknown section [" + section + "]");
    }
    base.push_back({lkey, val, line});
  }

  // One run per [run] section; a file without any is a single run of the
  // base sections alone.
  if (run_keys.empty()) run_keys.emplace_back();
  for (const auto& extra : run_keys) {
    RunSpec spec = proto;
    spec.cfg = make_debit_credit_config();
    for (const std::vector<RawKey>* keys :
         {static_cast<const std::vector<RawKey>*>(&base), &extra}) {
      for (const RawKey& rk : *keys) {
        // Trace runs rebuild their partitions from the trace later; their
        // partition keys cannot be validated against the debit-credit
        // schema, so application is deferred to apply_spec_keys.
        if (spec.kind == RunSpec::Kind::Trace &&
            rk.key.find('.') != std::string::npos) {
          continue;
        }
        apply_one(spec.cfg, rk.key, rk.val, rk.line);
      }
    }
    for (const RawKey& rk : base) spec.keys.push_back({rk.key, rk.val});
    for (const RawKey& rk : extra) spec.keys.push_back({rk.key, rk.val});
    doc.runs.push_back(std::move(spec));
  }
  return doc;
}

SpecDoc parse_spec_doc_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open run spec: " + path);
  return parse_spec_doc(f);
}

RunSpec parse_run_spec(std::istream& in) {
  SpecDoc doc = parse_spec_doc(in);
  if (doc.runs.size() != 1) {
    throw std::runtime_error(
        "run spec: expected a single-run spec, got " +
        std::to_string(doc.runs.size()) + " [run] sections");
  }
  return std::move(doc.runs.front());
}

RunSpec parse_run_spec_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open run spec: " + path);
  return parse_run_spec(f);
}

void apply_spec_keys(SystemConfig& cfg, const SpecKeyValues& keys) {
  int line = 0;
  for (const auto& [key, val] : keys) {
    apply_one(cfg, key, val, ++line);
  }
}

SpecKeyValues spec_keys(const SystemConfig& cfg) {
  SpecKeyValues out;
  for (const KeyDef& def : kSystemKeys) {
    out.push_back({def.key, def.get(cfg)});
  }
  if (cfg.gem.shards != 1) {
    out.push_back({"gem_shards", fmt_int(cfg.gem.shards)});
  }
  for (const auto& pc : cfg.partitions) {
    if (pc.storage != StorageKind::Disk) {
      out.push_back({"storage." + pc.name, storage_name(pc.storage)});
    }
    if (pc.disk_cache_pages != 0) {
      out.push_back(
          {"disk_cache_pages." + pc.name, fmt_int(pc.disk_cache_pages)});
    }
    if (pc.gem_cache_pages != 0) {
      out.push_back(
          {"gem_cache_pages." + pc.name, fmt_int(pc.gem_cache_pages)});
    }
  }
  return out;
}

}  // namespace gemsd

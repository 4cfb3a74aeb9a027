#include "obs/fingerprint.hpp"

#include <cstdio>

#include "obs/json.hpp"

#ifndef GEMSD_GIT_DESCRIBE
#define GEMSD_GIT_DESCRIBE "unknown"
#endif

namespace gemsd::obs {

const char* build_git_describe() { return GEMSD_GIT_DESCRIBE; }

std::string config_json(const SystemConfig& cfg) {
  JsonWriter w;
  w.begin_object();
  w.kv("nodes", static_cast<std::int64_t>(cfg.nodes));
  w.kv("arrival_rate_per_node", cfg.arrival_rate_per_node);
  w.kv("coupling", to_string(cfg.coupling));
  w.kv("update", to_string(cfg.update));
  w.kv("routing", to_string(cfg.routing));
  w.kv("mpl", static_cast<std::int64_t>(cfg.mpl));
  w.kv("buffer_pages", static_cast<std::int64_t>(cfg.buffer_pages));
  w.kv("log_storage", to_string(cfg.log_storage));
  w.kv("log_disks_per_node", static_cast<std::int64_t>(cfg.log_disks_per_node));
  w.kv("log_group_commit", cfg.log_group_commit);
  w.kv("log_group_window", cfg.log_group_window);
  w.kv("log_group_max", static_cast<std::int64_t>(cfg.log_group_max));
  w.kv("pcl_read_optimization", cfg.pcl_read_optimization);
  w.kv("gem_read_authorizations", cfg.gem_read_authorizations);
  w.kv("lock_instr", cfg.lock_instr);
  w.kv("lock_engine_service", cfg.lock_engine_service);

  w.key("cpu");
  w.begin_object();
  w.kv("processors", static_cast<std::int64_t>(cfg.cpu.processors));
  w.kv("mips", cfg.cpu.mips);
  w.end_object();

  w.key("gem");
  w.begin_object();
  w.kv("servers", static_cast<std::int64_t>(cfg.gem.servers));
  // Only when sharded: the canonical single-GEM serialization must keep its
  // exact bytes, or every config_hash — and the committed baselines keyed on
  // them — would shift.
  if (cfg.gem.shards != 1) {
    w.kv("shards", static_cast<std::int64_t>(cfg.gem.shards));
  }
  w.kv("page_access", cfg.gem.page_access);
  w.kv("entry_access", cfg.gem.entry_access);
  w.kv("io_instr", cfg.gem.io_instr);
  w.end_object();

  w.key("comm");
  w.begin_object();
  w.kv("bandwidth", cfg.comm.bandwidth);
  w.kv("short_bytes", cfg.comm.short_bytes);
  w.kv("long_bytes", cfg.comm.long_bytes);
  w.kv("short_instr", cfg.comm.short_instr);
  w.kv("long_instr", cfg.comm.long_instr);
  w.kv("transport",
       cfg.comm.transport == MsgTransport::GemStore ? "gem" : "network");
  w.kv("gem_msg_instr", cfg.comm.gem_msg_instr);
  w.end_object();

  w.key("disk");
  w.begin_object();
  w.kv("db_disk", cfg.disk.db_disk);
  w.kv("log_disk", cfg.disk.log_disk);
  w.kv("controller", cfg.disk.controller);
  w.kv("transfer", cfg.disk.transfer);
  w.kv("io_instr", cfg.disk.io_instr);
  w.end_object();

  w.key("path");
  w.begin_object();
  w.kv("bot_instr", cfg.path.bot_instr);
  w.kv("per_ref_instr", cfg.path.per_ref_instr);
  w.kv("eot_instr", cfg.path.eot_instr);
  w.end_object();

  w.key("partitions");
  w.begin_array();
  for (const auto& p : cfg.partitions) {
    w.begin_object();
    w.kv("name", p.name);
    w.kv("pages_per_unit", static_cast<std::int64_t>(p.pages_per_unit));
    w.kv("blocking_factor", static_cast<std::int64_t>(p.blocking_factor));
    w.kv("locked", p.locked);
    w.kv("scale_with_nodes", p.scale_with_nodes);
    w.kv("storage", to_string(p.storage));
    w.kv("disks_per_unit", static_cast<std::int64_t>(p.disks_per_unit));
    w.kv("disk_cache_pages", static_cast<std::int64_t>(p.disk_cache_pages));
    w.kv("gem_cache_pages", static_cast<std::int64_t>(p.gem_cache_pages));
    w.end_object();
  }
  w.end_array();

  w.kv("warmup", cfg.warmup);
  w.kv("measure", cfg.measure);
  w.kv("seed", static_cast<std::uint64_t>(cfg.seed));
  w.kv("restart_delay", cfg.restart_delay);

  w.key("failure");
  w.begin_object();
  w.kv("detection", cfg.failure.detection);
  w.kv("redo_log_pages_per_page",
       static_cast<std::int64_t>(cfg.failure.redo_log_pages_per_page));
  w.kv("gla_rebuild", cfg.failure.gla_rebuild);
  w.kv("node_restart", cfg.failure.node_restart);
  w.end_object();

  w.end_object();
  return w.take();
}

std::uint64_t config_hash(const SystemConfig& cfg) {
  const std::string s = config_json(cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string config_hash_hex(const SystemConfig& cfg) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(config_hash(cfg)));
  return buf;
}

}  // namespace gemsd::obs

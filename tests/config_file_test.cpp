// Tests for the INI run-spec parser behind tools/gemsd_run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/config_file.hpp"

#ifndef GEMSD_SOURCE_DIR
#define GEMSD_SOURCE_DIR "."
#endif

namespace gemsd {
namespace {

RunSpec parse(const std::string& text) {
  std::stringstream ss(text);
  return parse_run_spec(ss);
}

TEST(RunSpec, ParsesFullSystemSection) {
  const RunSpec s = parse(R"(
# comment
[system]
nodes = 7
coupling = pcl
update = force
routing = random
tps = 150
buffer = 1000
mpl = 99
warmup = 3.5
measure = 12
seed = 77
log = gem
group_commit = yes
pcl_read_opt = true
gem_read_auth = on
transport = gem
)");
  EXPECT_EQ(s.cfg.nodes, 7);
  EXPECT_EQ(s.cfg.coupling, Coupling::PrimaryCopy);
  EXPECT_EQ(s.cfg.update, UpdateStrategy::Force);
  EXPECT_EQ(s.cfg.routing, Routing::Random);
  EXPECT_DOUBLE_EQ(s.cfg.arrival_rate_per_node, 150.0);
  EXPECT_EQ(s.cfg.buffer_pages, 1000);
  EXPECT_EQ(s.cfg.mpl, 99);
  EXPECT_DOUBLE_EQ(s.cfg.warmup, 3.5);
  EXPECT_DOUBLE_EQ(s.cfg.measure, 12.0);
  EXPECT_EQ(s.cfg.seed, 77u);
  EXPECT_EQ(s.cfg.log_storage, StorageKind::Gem);
  EXPECT_TRUE(s.cfg.log_group_commit);
  EXPECT_TRUE(s.cfg.pcl_read_optimization);
  EXPECT_TRUE(s.cfg.gem_read_authorizations);
  EXPECT_EQ(s.cfg.comm.transport, MsgTransport::GemStore);
}

TEST(RunSpec, DefaultsAreTable41DebitCredit) {
  const RunSpec s = parse("");
  EXPECT_EQ(s.kind, RunSpec::Kind::DebitCredit);
  EXPECT_EQ(s.cfg.nodes, 1);
  EXPECT_EQ(s.cfg.buffer_pages, 200);
  ASSERT_EQ(s.cfg.partitions.size(), 3u);
  EXPECT_EQ(s.cfg.partitions[0].name, "BRANCH/TELLER");
}

TEST(RunSpec, PartitionStorageOverride) {
  const RunSpec s = parse(R"(
[system]
update = force
[partition.BRANCH/TELLER]
storage = gemcache
cache_pages = 4321
)");
  EXPECT_EQ(s.cfg.partitions[0].storage, StorageKind::DiskGemCache);
  EXPECT_EQ(s.cfg.partitions[0].gem_cache_pages, 4321);
}

TEST(RunSpec, TraceWorkloadSection) {
  const RunSpec s = parse(R"(
[workload]
kind = trace
trace_file = /tmp/foo.trace
trace_txns = 2500
)");
  EXPECT_EQ(s.kind, RunSpec::Kind::Trace);
  EXPECT_EQ(s.trace_file, "/tmp/foo.trace");
  EXPECT_EQ(s.trace_txns, 2500u);
}

TEST(RunSpec, RejectsUnknownKeys) {
  EXPECT_THROW(parse("[system]\nbogus = 1\n"), std::runtime_error);
  EXPECT_THROW(parse("[nonsense]\nx = 1\n"), std::runtime_error);
  EXPECT_THROW(parse("[system]\ncoupling = quantum\n"), std::runtime_error);
  EXPECT_THROW(parse("[system]\nnodes 4\n"), std::runtime_error);
  EXPECT_THROW(parse("[partition.NOPE]\nstorage = gem\n"),
               std::runtime_error);
  EXPECT_THROW(parse("[system]\ngroup_commit = maybe\n"), std::runtime_error);
}

TEST(RunSpec, ErrorsCarryLineNumbers) {
  try {
    parse("\n\n[system]\nbogus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

// Each of these values breaks a run (buffer = 0 never makes progress,
// mpl = 0, tps = 0 and measure = 0 measure nothing, nodes = 0 fails deep
// inside the shard map, cpu_procs = 0 reports NaN utilizations, a negative
// trace_txns asks for an impossible reservation, a negative service time or
// instruction count runs the clock backwards, log_disks = 0 leaves no log
// device), so each is refused at its line, naming the key.
void expect_rejected(const std::string& text, const std::string& what) {
  try {
    parse(text);
    FAIL() << "expected '" << what << "' to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(RunSpec, RejectsZeroNodes) {
  expect_rejected("[system]\nnodes = 0\n", "nodes must be >= 1");
  expect_rejected("[run]\nnodes = -3\n", "nodes must be >= 1");
  expect_rejected("[system]\ncpu_procs = 0\n", "cpu_procs must be >= 1");
  expect_rejected("[run]\ncpu_procs = -2\n", "cpu_procs must be >= 1");
}

TEST(RunSpec, RejectsZeroBuffer) {
  expect_rejected("[system]\nbuffer = 0\n", "buffer must be >= 1");
}

TEST(RunSpec, RejectsZeroMpl) {
  expect_rejected("[system]\nmpl = 0\n", "mpl must be >= 1");
  expect_rejected("[workload]\ntrace_txns = -1\n", "trace_txns must be >= 0");
}

TEST(RunSpec, RejectsNonPositiveTps) {
  expect_rejected("[system]\ntps = 0\n", "tps must be > 0");
  expect_rejected("[system]\ntps = -5\n", "tps must be > 0");
  expect_rejected("[system]\ntps = nan\n", "tps must be > 0");
  expect_rejected("[system]\nmeasure = 0\n", "measure must be > 0");
  expect_rejected("[run]\nmeasure = -1\n", "measure must be > 0");
  expect_rejected("[system]\nwarmup = -1\n", "warmup must be >= 0");
}

TEST(RunSpec, RejectsNegativeCostsAndNoLogDisks) {
  expect_rejected("[system]\ngem_entry_us = -1\n", "gem_entry_us must be >= 0");
  expect_rejected("[system]\ngem_entry_us = nan\n",
                  "gem_entry_us must be >= 0");
  expect_rejected("[system]\nmsg_short_instr = -1\n",
                  "msg_short_instr must be >= 0");
  expect_rejected("[run]\nmsg_long_instr = -5000\n",
                  "msg_long_instr must be >= 0");
  expect_rejected("[system]\nlog_disks = 0\n", "log_disks must be >= 1");
  expect_rejected("[run]\nlog_disks = -1\n", "log_disks must be >= 1");
  // Zero costs stay valid.
  EXPECT_NO_THROW(parse("[system]\ngem_entry_us = 0\nmsg_short_instr = 0\n"
                        "msg_long_instr = 0\nlog_disks = 1\n"));
}

// A NaN or negative lock-engine service time ran (NaN to an empty run, a
// negative one with negative service times), and a negative cache size was
// taken silently; each is rejected at its line, naming the key.
TEST(RunSpec, RejectsBadLockEngineTimeAndNegativeCachePages) {
  expect_rejected("[system]\nlock_engine_us = nan\n",
                  "lock_engine_us must be >= 0");
  expect_rejected("[system]\nlock_engine_us = -500\n",
                  "lock_engine_us must be >= 0");
  for (const char* field :
       {"disk_cache_pages", "gem_cache_pages", "cache_pages"}) {
    const std::string key = std::string(field) + ".BRANCH/TELLER";
    expect_rejected("[system]\n" + key + " = -5\n", key + " must be >= 0");
    expect_rejected("[partition.BRANCH/TELLER]\n" + std::string(field) +
                        " = -5\n",
                    key + " must be >= 0");
  }
  EXPECT_NO_THROW(parse("[system]\nlock_engine_us = 0\n"
                        "disk_cache_pages.BRANCH/TELLER = 0\n"));
}

TEST(RunSpec, ShippedSpecsParse) {
  // Every spec in specs/ must stay in sync with the parser.
  std::vector<std::filesystem::path> specs;
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(GEMSD_SOURCE_DIR) / "specs")) {
    if (e.path().extension() == ".ini") specs.push_back(e.path());
  }
  std::sort(specs.begin(), specs.end());
  ASSERT_FALSE(specs.empty()) << "no specs/*.ini under " << GEMSD_SOURCE_DIR;
  for (const auto& p : specs) {
    std::ifstream f(p);
    ASSERT_TRUE(f.is_open()) << p;
    SpecDoc doc;
    EXPECT_NO_THROW(doc = parse_spec_doc(f)) << p;
    EXPECT_FALSE(doc.runs.empty()) << p;
  }
}

}  // namespace
}  // namespace gemsd

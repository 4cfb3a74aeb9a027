// Tests for the INI run-spec parser behind tools/gemsd_run.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/config_file.hpp"

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
// trace_txns asks for an impossible reservation), so each is refused at its
// line, naming the key.
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

TEST(RunSpec, ShippedSpecsParse) {
  // The specs/ directory must stay in sync with the parser.
  const std::string bases[] = {"specs/", "../specs/", "../../specs/"};
  std::string base;
  for (const auto& b : bases) {
    if (std::ifstream(b + "fig41_affinity_noforce.ini")) {
      base = b;
      break;
    }
  }
  if (base.empty()) GTEST_SKIP() << "specs/ not reachable from test cwd";
  for (const char* p : {"fig41_affinity_noforce.ini", "bt_on_gem_force.ini",
                        "trace_pcl.ini"}) {
    std::ifstream f(base + p);
    ASSERT_TRUE(f.is_open()) << p;
    EXPECT_NO_THROW(parse_run_spec(f)) << p;
  }
}

}  // namespace
}  // namespace gemsd

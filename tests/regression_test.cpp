// Regression goldens: the simulator is fully deterministic for a seed, so
// two reference configurations are pinned to their exact current outputs.
// A failure here means the *model's behaviour changed* — if the change is
// intentional (a bug fix or a model refinement), update the goldens and say
// why in the commit; if not, you just caught a regression.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace gemsd {
namespace {

/// The scheduler's event count from the run's detail dump: every event is a
/// model process resuming, so this pins the schedule itself, not just its
/// outcome.
double sched_events(const RunResult& r) {
  for (const auto& [name, value] : r.telemetry->detail) {
    if (name == "sched.events") return value;
  }
  return -1;
}

TEST(RegressionGolden, GemNoforceRandomThreeNodes) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 3;
  cfg.coupling = Coupling::GemLocking;
  cfg.update = UpdateStrategy::NoForce;
  cfg.routing = Routing::Random;
  cfg.warmup = 2;
  cfg.measure = 8;
  cfg.seed = 42;
  const RunResult r = run_debit_credit(cfg);
  EXPECT_EQ(r.commits, 2403u);
  EXPECT_NEAR(r.resp_ms, 61.079188, 1e-4);
  EXPECT_NEAR(r.hit_ratio[0], 0.234486, 1e-5);
  EXPECT_EQ(sched_events(r), 142061);
}

TEST(RegressionGolden, PclForceAffinityThreeNodes) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 3;
  cfg.coupling = Coupling::PrimaryCopy;
  cfg.update = UpdateStrategy::Force;
  cfg.routing = Routing::Affinity;
  cfg.warmup = 2;
  cfg.measure = 8;
  cfg.seed = 42;
  const RunResult r = run_debit_credit(cfg);
  EXPECT_EQ(r.commits, 2455u);
  EXPECT_NEAR(r.resp_ms, 90.679721, 1e-4);
  EXPECT_NEAR(r.local_lock_fraction, 0.954074, 1e-5);
  EXPECT_NEAR(r.messages_per_txn, 0.275764, 1e-5);
  EXPECT_EQ(sched_events(r), 142133);
}

}  // namespace
}  // namespace gemsd

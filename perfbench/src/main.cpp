// gemsd_perfbench: how fast the simulator simulates the paper model.
//
//   gemsd_perfbench --workload dc_pcl|trace_pcl|scale_out_256 --seed N
//                   --seconds S --trace 0|1 [--spans-out FILE]
//
// Each repetition builds the workload from the seed, constructs a System,
// warms it up, resets its statistics and simulates a fixed measured interval;
// repetitions continue until about S wall seconds have passed. Every
// repetition's output is checked. With --trace 0 the last stdout line is a
// JSON object with the end-to-end metrics, with --trace 1 the per-layer
// metrics. perfbench/README.md defines every metric.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "core/system.hpp"
#include "obs/audit.hpp"
#include "obs/memory.hpp"
#include "obs/telemetry.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Untraced runs repeat at least this often, so the fastest repetition is
/// picked from several.
constexpr std::size_t kMinReps = 3;
/// Set-ups are timed in a batch before every repetition, so their median
/// samples the host over the whole run rather than at one instant. A batch
/// makes up to kSetupBatch set-ups while it has taken under kSetupBatchS.
constexpr int kSetupBatch = 5;
constexpr double kSetupBatchS = 0.02;
/// setup_s and the set-up layer metrics are medians of at least this many.
constexpr std::size_t kMinSetups = 15;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;  ///< traced run: span log file ("" = not written)
  /// Self-test only: corrupt this field of every repetition's digest
  /// (coherency, lost or commits) so the output check must trip.
  std::string doctor;
};

/// The simulated outcome of one repetition, as the output check reads it.
struct Digest {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t events = 0;  ///< scheduler events in the measured interval
  double resp_mean_s = 0;
  double coherency_violations = 0;
  double lost_txns = 0;

  bool same_run(const Digest& o) const {
    return commits == o.commits && aborts == o.aborts && events == o.events &&
           resp_mean_s == o.resp_mean_s;
  }
};

/// Why a repetition's output is wrong; empty when it is right.
std::vector<std::string> check(const Digest& d) {
  std::vector<std::string> why;
  if (d.coherency_violations != 0) why.push_back("cc.coherency_violations != 0");
  if (d.lost_txns != 0) why.push_back("txn.lost != 0");
  if (d.commits == 0) why.push_back("no measured commits");
  return why;
}

/// A fixed memory-and-arithmetic loop that never touches the program: its
/// time tracks the host's speed, not the simulator's.
double host_probe() {
  static std::vector<std::uint32_t> buf(std::size_t{1} << 20);
  std::uint32_t x = 12345, sum = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < (1 << 21); ++i) {
    x = x * 1664525u + 1013904223u;
    std::uint32_t& c = buf[x >> 12];
    c += x;
    sum ^= c;
  }
  const double s = seconds_since(t0);
  asm volatile("" : : "g"(&sum) : "memory");
  return s;
}

/// One repetition: set-up, warm-up, measured interval, collect.
struct Rep {
  double measure_wall_s = 0;  ///< host time of the measured run_until
  std::uint64_t allocs = 0;   ///< operator new calls in that run_until
  std::vector<double> probes;
  Digest digest;
  gemsd::RunResult result;
  std::map<std::string, double> detail;
  std::size_t max_queued = 0;
  // Observers-on repetitions only.
  std::uint64_t trace_events = 0, trace_dropped = 0;
  std::uint64_t audit_checks = 0, audit_violations = 0;
};

Rep run_rep(const WorkloadDef& def, const Options& o, bool observers,
            SpanLog& spans) {
  SpanScope root(spans, "rep");
  Rep rep;
  BuiltWorkload b;
  {
    SpanScope s(spans, "setup.workload_build");
    b = build_workload(def, o.seed);
  }
  if (observers) {
    b.cfg.obs.trace = true;
    b.cfg.obs.resources = true;
    b.cfg.obs.timeseries = true;
    b.cfg.obs.audit = true;
  }
  std::optional<gemsd::System> sys;
  {
    SpanScope s(spans, "setup.system_build");
    sys.emplace(b.cfg, std::move(b.wl));
    sys->start_source();
  }
  if (auto* a = sys->auditor()) a->set_fail_fast(false);
  {
    SpanScope s(spans, "warmup");
    sys->run_until(def.warmup_s);
    sys->reset_stats();
  }
  rep.probes.push_back(host_probe());
  const std::uint64_t ev0 = sys->scheduler().events_processed();
  {
    SpanScope s(spans, "measure");
    const auto m0 = Clock::now();
    AllocScope count(rep.allocs);
    sys->run_until(def.warmup_s + def.measure_s);
    rep.measure_wall_s = seconds_since(m0);
  }
  rep.probes.push_back(host_probe());
  {
    SpanScope s(spans, "collect");
    rep.result = sys->collect();
  }
  for (const auto& [k, v] : rep.result.telemetry->detail) rep.detail[k] = v;
  rep.max_queued = sys->scheduler().max_queued();
  rep.digest.commits = rep.result.commits;
  rep.digest.aborts = rep.result.aborts;
  rep.digest.events = sys->scheduler().events_processed() - ev0;
  rep.digest.resp_mean_s = rep.detail["response.mean_s"];
  rep.digest.coherency_violations = rep.detail["cc.coherency_violations"];
  rep.digest.lost_txns = rep.detail["txn.lost"];
  if (o.doctor == "coherency") rep.digest.coherency_violations = 1;
  if (o.doctor == "lost") rep.digest.lost_txns = 1;
  if (o.doctor == "commits") rep.digest.commits = 0;
  if (observers) {
    rep.trace_events = sys->trace()->size() + sys->trace()->dropped();
    rep.trace_dropped = sys->trace()->dropped();
    rep.audit_checks = sys->auditor()->checks();
    rep.audit_violations = sys->auditor()->violations().size();
  }
  return rep;
}

/// Host seconds of one set-up (workload build, System constructor and
/// start_source), made and torn down without running.
struct Setup {
  double total_s = 0;
  double system_build_s = 0;  ///< System constructor + start_source
  double trace_gen_s = 0;
};

Setup setup_once(const WorkloadDef& def, const Options& o) {
  Setup s;
  const auto t0 = Clock::now();
  BuiltWorkload b = build_workload(def, o.seed);
  const auto t1 = Clock::now();
  gemsd::System sys(b.cfg, std::move(b.wl));
  sys.start_source();
  s.total_s = seconds_since(t0);
  s.system_build_s = seconds_since(t1);
  s.trace_gen_s = b.trace_gen_s;
  return s;
}

struct Setups {
  std::vector<double> total, system_build, trace_gen;
  void add(const Setup& s) {
    total.push_back(s.total_s);
    system_build.push_back(s.system_build_s);
    trace_gen.push_back(s.trace_gen_s);
  }
  void batch(const WorkloadDef& def, const Options& o) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupBatch; ++i) {
      if (i > 0 && seconds_since(t0) >= kSetupBatchS) break;
      add(setup_once(def, o));
    }
  }
};

/// Repetition kinds. Untraced runs make only plain repetitions; traced runs
/// cycle through all three.
enum Kind { kPlain, kSpans, kObservers, kKinds };
const char* const kKindName[kKinds] = {"plain", "spans", "observers"};

/// Counts failed repetitions: a failed output check, or simulated results
/// that differ from the first plain repetition's (one seed, one
/// simulation). Observers must leave the simulation untouched and the
/// auditors silent; they allocate, so observers-on repetitions do not
/// compare allocation counts.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Rep& rep, const Rep& first, Kind kind) {
    ++attempted;
    std::vector<std::string> why = check(rep.digest);
    if (!rep.digest.same_run(first.digest)) {
      why.push_back("simulated results differ from the first repetition");
    }
    if (kind != kObservers && rep.allocs != first.allocs) {
      why.push_back("allocation count differs from the first repetition");
    }
    if (kind == kObservers && rep.audit_checks == 0) {
      why.push_back("auditors made no checks");
    }
    if (rep.audit_violations != 0) why.push_back("auditors reported violations");
    if (why.empty()) return;
    ++failed;
    for (const std::string& w : why) {
      std::fprintf(stderr, "perfbench: %s repetition failed: %s\n",
                   kKindName[kind], w.c_str());
    }
  }
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_host(const std::vector<double>& probes) {
  std::printf(
      "host: {\"cores\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"host_probe_s\": %.9f}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, median(probes));
}

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              v.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_digest(const Digest& d) {
  std::printf("digest: commits=%llu aborts=%llu events=%llu resp_mean_s=%.17g\n",
              static_cast<unsigned long long>(d.commits),
              static_cast<unsigned long long>(d.aborts),
              static_cast<unsigned long long>(d.events), d.resp_mean_s);
}

double per_commit(double count, const Rep& rep) {
  return rep.digest.commits == 0
             ? 0
             : count / static_cast<double>(rep.digest.commits);
}

/// Sum of the detail keys `<prefix><name><suffix>` whose <name> has no dot:
/// one row per partition (disk.*, buffer.*) or per node (log.*).
double sum_detail(const Rep& rep, const std::string& prefix,
                  const std::vector<std::string>& suffixes) {
  double sum = 0;
  for (const auto& [k, v] : rep.detail) {
    if (k.compare(0, prefix.size(), prefix) != 0) continue;
    for (const std::string& s : suffixes) {
      if (k.size() > s.size() &&
          k.compare(k.size() - s.size(), s.size(), s) == 0 &&
          k.find('.', prefix.size()) == k.size() - s.size()) {
        sum += v;
      }
    }
  }
  return sum;
}

/// Simulated statistics of the first repetition, per layer.
std::vector<Metric> model_counts(const Rep& rep) {
  auto d = [&](const char* key) {
    const auto it = rep.detail.find(key);
    return it == rep.detail.end() ? 0.0 : it->second;
  };
  const double commits = static_cast<double>(rep.digest.commits);
  const double aborts = static_cast<double>(rep.digest.aborts);
  const double hits = sum_detail(rep, "buffer.", {".hits"});
  const double misses = sum_detail(rep, "buffer.", {".misses"});
  return {
      {"sim.max_queue_depth", static_cast<double>(rep.max_queued), "count"},
      {"cc.lock_requests_per_commit", per_commit(d("cc.lock_requests"), rep),
       "1"},
      {"cc.lock_remote_per_commit", per_commit(d("cc.lock_remote"), rep), "1"},
      {"cc.lock_waits_per_commit", per_commit(d("cc.lock_waits"), rep), "1"},
      {"cc.abort_ratio", aborts / (commits + aborts), "1"},
      {"node.buffer_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
       "1"},
      {"node.page_requests_per_commit",
       per_commit(d("buffer.page_requests"), rep), "1"},
      {"node.invalidations_per_commit",
       per_commit(d("buffer.invalidations"), rep), "1"},
      {"node.cpu_util_max", rep.result.cpu_util_max, "1"},
      {"storage.disk_ios_per_commit",
       per_commit(sum_detail(rep, "disk.", {".reads", ".writes"}), rep), "1"},
      {"storage.log_writes_per_commit",
       per_commit(sum_detail(rep, "log.", {".writes"}), rep), "1"},
      {"storage.gem_ops_per_commit",
       per_commit(d("gem.page_ops") + d("gem.entry_ops"), rep), "1"},
      {"storage.gem_util", d("gem.util"), "1"},
      {"net.messages_per_commit", per_commit(d("net.messages_sent"), rep), "1"},
      {"net.util", d("net.util"), "1"},
  };
}

void print_self_times(const SpanLog& spans) {
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const auto& s = spans.spans()[i];
    auto& t = by_name[s.name];
    t.first += s.end_s - s.start_s;
    t.second += spans.self_s(i);
  }
  std::printf("spans (total_s self_s):\n");
  for (const auto& [name, t] : by_name) {
    std::printf("  %-28s %12.6f %12.6f\n", name.c_str(), t.first, t.second);
  }
}

/// Fastest measured interval among the repetitions that passed the check:
/// every repetition simulates the same events, and interference from other
/// processes on the host only ever adds time, so the minimum is the
/// steadiest estimate of the program's own cost (README.md, "Why the
/// fastest repetition").
double fastest_wall(const std::vector<Rep>& reps) {
  double best = 0;
  for (const Rep& r : reps) {
    if (!check(r.digest).empty()) continue;
    if (best == 0 || r.measure_wall_s < best) best = r.measure_wall_s;
  }
  return best;
}

int run(const Options& o) {
  const WorkloadDef& def = *find_workload(o.workload);
  SpanLog off(false, "");
  SpanLog spans(o.trace, o.workload + "-seed" + std::to_string(o.seed));
  Verdict verdict;
  std::vector<Rep> reps[kKinds];
  // Untraced: plain repetitions until the next one would overrun --seconds.
  // Traced: plain, span-recording and observers-on repetitions in turn over
  // 70% of --seconds; the rest goes to the layer replays.
  const int kinds = o.trace ? kKinds : 1;
  const auto start = Clock::now();
  Setups setups;
  const double budget = o.trace ? 0.7 * o.seconds : o.seconds;
  for (std::size_t n = 1;; ++n) {
    const auto kind = static_cast<Kind>((n - 1) % kinds);
    {
      SpanScope s(spans, "setup");
      setups.batch(def, o);
    }
    Rep rep = run_rep(def, o, kind == kObservers, kind == kSpans ? spans : off);
    verdict.add(rep, reps[kPlain].empty() ? rep : reps[kPlain].front(), kind);
    reps[kind].push_back(std::move(rep));
    const double elapsed = seconds_since(start);
    const bool enough = n >= (o.trace ? std::size_t{kKinds} : kMinReps);
    if (enough && elapsed + elapsed / static_cast<double>(n) > budget) break;
  }
  while (setups.total.size() < kMinSetups) setups.add(setup_once(def, o));
  const Rep& first = reps[kPlain].front();
  print_digest(first.digest);

  std::vector<double> probes;
  for (const std::vector<Rep>& rs : reps) {
    for (const Rep& r : rs) {
      probes.insert(probes.end(), r.probes.begin(), r.probes.end());
    }
  }
  print_host(probes);
  std::printf("measure_wall_s:");
  for (const Rep& r : reps[kPlain]) std::printf(" %.6f", r.measure_wall_s);
  std::printf("\n");
  const double wall = fastest_wall(reps[kPlain]);

  std::vector<Metric> metrics;
  if (!o.trace) {
    std::printf("setup_s:");
    for (double s : setups.total) std::printf(" %.6f", s);
    std::printf("\n");
    metrics = {
        {"commits_per_wall_s",
         wall > 0 ? static_cast<double>(first.digest.commits) / wall : 0,
         "1/s"},
        {"setup_s", median(setups.total), "s"},
        {"peak_rss_mb",
         static_cast<double>(gemsd::obs::peak_rss_bytes()) / (1024.0 * 1024.0),
         "MB"},
        {"events_per_commit",
         per_commit(static_cast<double>(first.digest.events), first), "1"},
        {"allocs_per_commit",
         per_commit(static_cast<double>(first.allocs), first), "1"},
    };
  } else {
    const Rep& obs = reps[kObservers].front();
    auto overhead = [&](Kind kind) {
      const double w = fastest_wall(reps[kind]);
      return wall > 0 && w > 0 ? w / wall - 1 : 0;
    };
    metrics = model_counts(first);
    const std::vector<Metric> layers =
        run_replays(def, o.seed, first.max_queued, spans);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    metrics.push_back(
        {"workload.trace_gen_s", median(setups.trace_gen), "s"});
    metrics.push_back(
        {"core.system_build_s", median(setups.system_build), "s"});
    metrics.push_back({"obs.overhead_frac", overhead(kObservers), "1"});
    metrics.push_back(
        {"obs.trace_events_per_commit",
         per_commit(static_cast<double>(obs.trace_events), obs), "1"});
    metrics.push_back({"obs.trace_dropped",
                       static_cast<double>(obs.trace_dropped), "count"});
    metrics.push_back({"bench.host_probe_s", median(probes), "s"});
    metrics.push_back({"bench.span_overhead_frac", overhead(kSpans), "1"});
    print_self_times(spans);
    if (!o.spans_out.empty() && !spans.write_json(o.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.spans_out.c_str());
      return 1;
    }
  }
  print_result(verdict, metrics);
  return verdict.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gemsd_perfbench: %s\n"
               "usage: gemsd_perfbench --workload dc_pcl|trace_pcl|"
               "scale_out_256 --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (find_workload(v) == nullptr) usage("unknown workload");
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0) || o.seconds > 3600) {
        usage("--seconds takes a number in (0, 3600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = v;
    } else if (flag == "--doctor") {
      if (v != "coherency" && v != "lost" && v != "commits") {
        usage("--doctor takes coherency, lost or commits");
      }
      o.doctor = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  // Keep freed memory mapped: otherwise glibc returns the heap top (and
  // every large block) to the kernel when a repetition's System is
  // destroyed, and the next set-up's time depends on how many pages the
  // kernel has to fault back in rather than on the program's own work.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  return perfbench::run(o);
}

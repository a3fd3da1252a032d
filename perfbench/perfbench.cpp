// Host-time benchmark program: sets a workload up, runs campaign passes for
// a fixed wall-clock window and prints one JSON line of raw measurements
// (per-pass walls, per-run walls and digests, traced-leg spans and counts).
// run.py turns that line into the benchmark's metrics and checks digests.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--jobs J] [--passes P] [--epsilon E] [--utilization 0|1]
//
// --trace 0 runs the untraced leg only.  --trace 1 alternates untraced and
// traced passes inside the same window, so the tracing overhead is measured
// under the same host conditions.  --passes P replaces the window by exactly
// P passes (per leg); run.py uses it to write reference digests.  Both legs
// run a pass's runs on --jobs threads.  --epsilon and --utilization apply
// RunConfig::solverEpsilon / observe.utilization to every single-run config
// (README.md uses them to re-measure the repo's committed claims).
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/executor.hpp"
#include "stats/summary.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 1;
  std::size_t passes = 0;  // 0: time-bounded
  Overrides overrides;
};

/// Set-ups before the window; one more follows every pass.
constexpr std::size_t kSetupsBeforeWindow = 5;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--jobs J] [--passes P] [--epsilon E] [--utilization 0|1]\n",
               why);
  std::exit(2);
}

/// A whole number in [0, 2^64), or usage().
std::uint64_t wholeArg(const std::string& flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const auto number = std::strtoull(value, &end, 10);
  if (value[0] < '0' || value[0] > '9' || *end != '\0' || errno == ERANGE) {
    usage(("bad whole number for " + flag).c_str());
  }
  return number;
}

/// A finite real number, or usage().
double realArg(const std::string& flag, const char* value) {
  char* end = nullptr;
  const double number = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(number)) {
    usage(("bad number for " + flag).c_str());
  }
  return number;
}

Options parse(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      o.seed = wholeArg(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = realArg(flag, value);
      if (o.seconds <= 0.0) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      const auto trace = wholeArg(flag, value);
      if (trace > 1) usage("--trace must be 0 or 1");
      o.trace = trace == 1;
    } else if (flag == "--jobs") {
      o.jobs = wholeArg(flag, value);
      if (o.jobs < 1) usage("--jobs must be >= 1");
    } else if (flag == "--passes") {
      o.passes = wholeArg(flag, value);
    } else if (flag == "--epsilon") {
      o.overrides.epsilon = realArg(flag, value);
      if (o.overrides.epsilon < 0.0) usage("--epsilon must be >= 0");
    } else if (flag == "--utilization") {
      const auto on = wholeArg(flag, value);
      if (on > 1) usage("--utilization must be 0 or 1");
      o.overrides.utilization = on == 1;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (o.trace && o.overrides.utilization) usage("the traced leg does not compose --utilization");
  return o;
}

struct RunOut {
  double wallMs = 0.0;
  std::uint64_t digest = 0;
  bool failed = false;
};

struct PassOut {
  bool traced = false;
  double wall = 0.0;
  double campaignOverhead = 0.0;  // executeCampaign wall beyond its runs' own
  std::vector<RunOut> runs;
  LayerTotals layers;
  std::string error;
};

/// Per-group bandwidth summaries, as the figure benches print them.
void summarize(const std::vector<std::vector<double>>& bandwidths, double& sink) {
  const auto start = Clock::now();
  for (const auto& values : bandwidths) {
    if (!values.empty()) beesim::stats::summarize(values);
  }
  sink += since(start);
}

PassOut untracedPass(const Workload& w, std::size_t jobs) {
  PassOut pass;
  const auto start = Clock::now();
  std::vector<std::vector<double>> bandwidths(w.groups);
  harness::ExecutorOptions exec;
  exec.jobs = jobs;
  double runWall = 0.0;
  double longestRun = 0.0;
  const auto campaignStart = Clock::now();
  try {
    harness::executeCampaign(
        w.entries, w.protocol, w.campaignSeed,
        [&](const harness::RunRecord& record, harness::ResultRow& row) {
          pass.runs.push_back({record.wallSeconds * 1e3, digestRun(record), record.ior.failed});
          runWall += record.wallSeconds;
          longestRun = std::max(longestRun, record.wallSeconds);
          bandwidths[w.group[std::stoul(row.factors.at("cfg"))]].push_back(
              record.ior.bandwidth);
        },
        exec);
  } catch (const std::exception& e) {
    pass.error = e.what();
    pass.runs.assign(w.plan.size(), RunOut{0.0, 0, true});
  }
  // Wall beyond the shortest schedule the runs themselves allow: their
  // summed wall spread over the worker lanes, or the longest run.
  const auto lanes =
      static_cast<double>(std::min(jobs, std::max<std::size_t>(w.plan.size(), 1)));
  pass.campaignOverhead = since(campaignStart) - std::max(runWall / lanes, longestRun);

  struct CaseOut {
    RunOut run;
    double bandwidth = 0.0;
    std::string error;
  };
  const auto cases = harness::parallelMap<CaseOut>(w.concurrent.size(), jobs, [&](std::size_t i) {
    CaseOut out;
    const auto caseStart = Clock::now();
    try {
      const auto& c = w.concurrent[i];
      const auto result = harness::runConcurrent(c.base, c.apps, c.seed);
      out.run.digest = digestConcurrent(result);
      out.run.failed = std::any_of(result.apps.begin(), result.apps.end(),
                                   [](const auto& app) { return app.failed; });
      out.bandwidth = result.aggregateBandwidth;
    } catch (const std::exception& e) {
      out.run.failed = true;
      out.error = e.what();
    }
    out.run.wallMs = since(caseStart) * 1e3;
    return out;
  });
  for (const auto& c : cases) {
    pass.runs.push_back(c.run);
    if (pass.error.empty()) pass.error = c.error;
    if (!c.run.failed) bandwidths.back().push_back(c.bandwidth);
  }
  double summarizeSeconds = 0.0;
  summarize(bandwidths, summarizeSeconds);
  pass.wall = since(start);
  return pass;
}

/// The traced leg over the same plan: every run composed by traced.cpp, on
/// `jobs` threads, folded in plan order (so the counts never depend on jobs).
PassOut tracedPass(const Workload& w, std::size_t jobs) {
  struct TracedRun {
    RunOut run;
    LayerTotals layers;
    double bandwidth = 0.0;
    std::string error;
  };
  PassOut pass;
  pass.traced = true;
  const auto start = Clock::now();
  const std::size_t single = w.plan.size();
  const auto runs = harness::parallelMap<TracedRun>(
      single + w.concurrent.size(), jobs, [&](std::size_t i) {
        TracedRun out;
        const auto runStart = Clock::now();
        try {
          if (i < single) {
            const auto& planned = w.plan[i];
            harness::RunConfig config = w.entries[planned.configIndex].config;
            config.startAt = planned.systemTime;
            const auto record = tracedRunOnce(config, planned.seed, out.layers);
            out.run.digest = digestRun(record);
            out.run.failed = record.ior.failed;
            out.bandwidth = record.ior.bandwidth;
          } else {
            const auto& c = w.concurrent[i - single];
            const auto result = tracedRunConcurrent(c.base, c.apps, c.seed, out.layers);
            out.run.digest = digestConcurrent(result);
            out.run.failed = std::any_of(result.apps.begin(), result.apps.end(),
                                         [](const auto& app) { return app.failed; });
            out.bandwidth = result.aggregateBandwidth;
          }
        } catch (const std::exception& e) {
          out.run.failed = true;
          out.error = e.what();
        }
        out.layers.runWall = since(runStart);
        out.run.wallMs = out.layers.runWall * 1e3;
        return out;
      });
  std::vector<std::vector<double>> bandwidths(w.groups);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    pass.runs.push_back(runs[i].run);
    pass.layers += runs[i].layers;
    if (pass.error.empty()) pass.error = runs[i].error;
    if (!runs[i].run.failed) {
      bandwidths[i < single ? w.group[w.plan[i].configIndex] : w.groups - 1].push_back(
          runs[i].bandwidth);
    }
  }
  summarize(bandwidths, pass.layers.summarize);
  pass.wall = since(start);
  return pass;
}

using beesim::util::JsonArray;
using beesim::util::JsonObject;
using beesim::util::JsonValue;

JsonValue layersJson(const LayerTotals& l) {
  const auto count = [](std::uint64_t n) { return JsonValue(static_cast<double>(n)); };
  return JsonObject{
      {"deploy_s", l.deploy},
      {"compose_s", l.compose},
      {"launch_s", l.launch},
      {"launch_nested_s", l.launchNested},
      {"run_s", l.run},
      {"solve_s", l.solve},
      {"collect_s", l.collect},
      {"summarize_s", l.summarize},
      {"run_wall_s", l.runWall},
      {"events", count(l.events)},
      {"resolves", count(l.resolves)},
      {"deferred_resolves", count(l.deferredResolves)},
      {"solver_iterations", count(l.solverIterations)},
      {"flows_started", count(l.flowsStarted)},
      {"flows_completed", count(l.flowsCompleted)},
      {"flows_cancelled", count(l.flowsCancelled)},
      {"flows_solved", count(l.flowsSolved)},
      {"hedges_issued", count(l.hedgesIssued)},
      {"hedge_wins", count(l.hedgeWins)},
      {"retries", count(l.retries)},
      {"failovers", count(l.failovers)},
      {"quarantines", count(l.quarantines)},
      {"qos_deferrals", count(l.qosDeferrals)},
      {"faults_injected", count(l.faultsInjected)},
      {"md_ops", count(l.mdOps)},
      {"md_runs", count(l.mdRuns)},
      {"mdt_imbalance_sum", l.mdtImbalanceSum},
  };
}

/// One pass: its leg, wall, and per run [wall ms, digest, failed].
JsonValue passJson(const PassOut& p) {
  JsonArray runs;
  runs.reserve(p.runs.size());
  for (const auto& run : p.runs) {
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, run.digest);
    runs.push_back(JsonArray{run.wallMs, std::string(digest), run.failed});
  }
  JsonObject pass{{"leg", p.traced ? "traced" : "untraced"},
                  {"wall_s", p.wall},
                  {"runs", std::move(runs)}};
  if (p.traced) {
    pass["layers"] = layersJson(p.layers);
  } else {
    pass["campaign_overhead_s"] = p.campaignOverhead;
  }
  if (!p.error.empty()) pass["error"] = p.error;
  return pass;
}

/// Peak resident set of this process image (VmHWM).  getrusage's ru_maxrss
/// would also count the parent's footprint before exec.
double peakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto& names = workloadNames();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }

  // Set-up, repeated before the window and once more after every pass, so
  // its median samples the same host conditions as the passes.  The first
  // build is the one the passes use.
  std::vector<double> setupSeconds;
  std::vector<SetupTiming> setupParts;
  const auto setUp = [&] {
    SetupTiming timing;
    const auto start = Clock::now();
    Workload built = buildWorkload(o.workload, o.seed, o.overrides, timing);
    setupSeconds.push_back(since(start));
    setupParts.push_back(timing);
    return built;
  };
  const Workload workload = setUp();
  for (std::size_t r = 1; r < kSetupsBeforeWindow; ++r) setUp();

  std::vector<PassOut> passes;
  const auto windowStart = Clock::now();
  const auto more = [&] {
    return o.passes > 0 ? passes.size() < o.passes * (o.trace ? 2 : 1)
                        : passes.empty() || since(windowStart) < o.seconds;
  };
  while (more()) {
    passes.push_back(untracedPass(workload, o.jobs));
    if (o.trace) passes.push_back(tracedPass(workload, o.jobs));
    setUp();
  }

  const double peakRss = peakRssMiB();  // before the output adds its own
  JsonArray setupJson;
  JsonArray topologyJson;
  JsonArray planJson;
  for (std::size_t i = 0; i < setupSeconds.size(); ++i) {
    setupJson.emplace_back(setupSeconds[i]);
    topologyJson.emplace_back(setupParts[i].topologySeconds);
    planJson.emplace_back(setupParts[i].planSeconds);
  }
  JsonArray passesJson;
  for (const auto& pass : passes) passesJson.push_back(passJson(pass));
  const JsonValue out = JsonObject{{"workload", o.workload},
                                   {"seed", std::to_string(o.seed)},
                                   {"peak_rss_mib", peakRss},
                                   {"setup_s", std::move(setupJson)},
                                   {"topology_build_s", std::move(topologyJson)},
                                   {"plan_s", std::move(planJson)},
                                   {"passes", std::move(passesJson)}};
  std::puts(out.dump().c_str());
  return 0;
}

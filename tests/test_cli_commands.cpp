#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace beesim::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> argv) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = runCli(argv, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(Cli, HelpAndUnknownCommand) {
  const auto help = run({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage: beesim"), std::string::npos);

  const auto empty = run({});
  EXPECT_EQ(empty.code, 1);

  const auto bogus = run({"frobnicate"});
  EXPECT_EQ(bogus.code, 1);
  EXPECT_NE(bogus.err.find("unknown command"), std::string::npos);
}

TEST(Cli, DescribeListsHostsAndBounds) {
  const auto result = run({"describe", "--cluster", "plafrim1", "--nodes", "4"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("plafrim-s1-oss0"), std::string::npos);
  EXPECT_NE(result.out.find("network bound"), std::string::npos);
  EXPECT_NE(result.out.find("compute nodes: 4"), std::string::npos);
}

TEST(Cli, RunReportsBandwidthAndAllocations) {
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "4", "--stripe", "4",
                           "--reps", "3", "--total", "4GiB"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("bandwidth: n=3"), std::string::npos);
  EXPECT_NE(result.out.find("(1,3) x3"), std::string::npos);  // the PlaFRIM RR constant
}

TEST(Cli, RunSupportsReadAndNnPattern) {
  const auto read = run({"run", "--cluster", "plafrim2", "--nodes", "2", "--reps", "2",
                         "--total", "2GiB", "--op", "read"});
  EXPECT_EQ(read.code, 0) << read.err;
  const auto nn = run({"run", "--cluster", "plafrim2", "--nodes", "2", "--reps", "2",
                       "--total", "2GiB", "--pattern", "nn", "--chooser", "random"});
  EXPECT_EQ(nn.code, 0) << nn.err;
}

TEST(Cli, RunIsDeterministicGivenSeed) {
  const std::vector<std::string> argv{"run",    "--cluster", "plafrim2", "--nodes", "2",
                                      "--reps", "2",         "--total",  "2GiB",    "--seed",
                                      "77"};
  EXPECT_EQ(run(argv).out, run(argv).out);
}

TEST(Cli, SweepRecommendsMaximumOnPlafrim) {
  const auto result = run({"sweep", "--cluster", "plafrim1", "--nodes", "8", "--reps", "8",
                           "--total", "8GiB"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Recommend stripe count 8"), std::string::npos);
  // The sweep prints the Fig. 6-style scatter.
  EXPECT_NE(result.out.find("stripe count (individual executions)"), std::string::npos);
}

TEST(Cli, ConcurrentReportsAggregateAndSharing) {
  const auto result = run({"concurrent", "--apps", "2", "--nodes-per-app", "2", "--stripe",
                           "8", "--reps", "2", "--total", "2GiB"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("aggregate (Eq. 1)"), std::string::npos);
  EXPECT_NE(result.out.find("runs with target sharing: 2/2"), std::string::npos);
}

TEST(Cli, ExportThenLoadRoundTrips) {
  const auto path =
      (std::filesystem::temp_directory_path() / "beesim_cli_cluster.json").string();
  const auto exported = run({"export-cluster", "--cluster", "catalyst", "--nodes", "2",
                             "--out", path});
  EXPECT_EQ(exported.code, 0) << exported.err;
  const auto described = run({"describe", "--cluster", path});
  EXPECT_EQ(described.code, 0) << described.err;
  EXPECT_NE(described.out.find("catalyst-like-oss11"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Cli, ExportWithoutOutPrintsJson) {
  const auto result = run({"export-cluster", "--cluster", "plafrim1", "--nodes", "1"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("\"hosts\""), std::string::npos);
}

TEST(Cli, RunWithMirrorReportsReplicationTotals) {
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "2",
                           "--total", "2GiB", "--mirror"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("mirror (totals over 2 reps)"), std::string::npos);
  EXPECT_NE(result.out.find("failovers=0"), std::string::npos);
  EXPECT_NE(result.out.find("lost=0.0 MiB"), std::string::npos);
}

TEST(Cli, RejectsNonPositiveFaultAndMirrorDurations) {
  // Satellite: a non-positive duration/rate silently disables or degrades
  // the feature it configures; each is rejected with a pointed message.
  const auto base = std::vector<std::string>{"run", "--cluster", "plafrim1", "--nodes",
                                             "2",   "--reps",    "1",        "--total",
                                             "1GiB"};
  const auto with = [&](std::initializer_list<std::string> extra) {
    auto argv = base;
    argv.insert(argv.end(), extra);
    return run(argv);
  };
  for (const auto& [flag, value] : std::vector<std::pair<std::string, std::string>>{
           {"--io-timeout", "0"},
           {"--io-timeout", "-1"},
           {"--mttf", "0"},
           {"--mttr", "-2"},
           {"--fault-horizon", "0"},
           {"--resync-rate", "-5"},
       }) {
    const auto result = with({flag, value});
    EXPECT_EQ(result.code, 1) << flag << " " << value;
    EXPECT_NE(result.err.find(flag + " must be > 0"), std::string::npos)
        << flag << ": " << result.err;
  }
  // Omitting the optional flags stays valid (zero defaults mean "disabled").
  EXPECT_EQ(with({}).code, 0);
}

TEST(Cli, RejectsNonFiniteDurations) {
  // Satellite bugfix: "nan"/"inf" parse as doubles, and NaN then slips past
  // the `value <= 0` guards above (NaN <= 0 is false) -- e.g. --mttf nan
  // used to arm a stochastic fault generator with a NaN MTTF.
  const auto base = std::vector<std::string>{"run", "--cluster", "plafrim1", "--nodes",
                                             "2",   "--reps",    "1",        "--total",
                                             "1GiB"};
  const auto with = [&](std::initializer_list<std::string> extra) {
    auto argv = base;
    argv.insert(argv.end(), extra);
    return run(argv);
  };
  for (const std::string flag : {"--io-timeout", "--mttf", "--mttr", "--resync-rate"}) {
    for (const std::string value : {"nan", "inf", "-inf"}) {
      const auto result = with({flag, value});
      EXPECT_EQ(result.code, 1) << flag << " " << value;
      EXPECT_NE(result.err.find("is not a finite number"), std::string::npos)
          << flag << " " << value << ": " << result.err;
    }
  }
}

TEST(Cli, RejectsMistypedBooleanValue) {
  // Satellite bugfix: --mirror=tru used to silently disable mirroring.
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1",
                           "--total", "1GiB", "--mirror=tru"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("is not a boolean"), std::string::npos) << result.err;
}

TEST(Cli, RunExportsChromeTraceAndMetrics) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto tracePath = (dir / "beesim_cli_trace.json").string();
  const auto metricsPath = (dir / "beesim_cli_metrics.csv").string();
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1",
                           "--total", "1GiB", "--trace-out", tracePath, "--metrics-out",
                           metricsPath, "--metrics-dt", "0.05"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Chrome trace"), std::string::npos);
  EXPECT_NE(result.out.find("link_imbalance"), std::string::npos);
  EXPECT_GT(std::filesystem::file_size(tracePath), 0u);
  EXPECT_GT(std::filesystem::file_size(metricsPath), 0u);
  std::filesystem::remove(tracePath);
  std::filesystem::remove(metricsPath);

  const auto bad = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1",
                        "--total", "1GiB", "--metrics-out", metricsPath, "--metrics-dt",
                        "0"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("--metrics-dt must be > 0"), std::string::npos) << bad.err;
}

TEST(Cli, RunTracesTheReportedRunUnderFaults) {
  // The traced run is campaign rep 0 itself: the host crash the campaign
  // reports shows up in the trace as cancelled chunk flows.
  const auto path =
      (std::filesystem::temp_directory_path() / "beesim_cli_fault_trace.jsonl").string();
  const auto result =
      run({"run", "--cluster", "plafrim1", "--nodes", "4", "--reps", "1", "--faults",
           "off:h1@1", "--fault-mode", "degraded", "--trace", path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("failovers=96"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("traced run: rep 0"), std::string::npos) << result.out;
  std::ifstream in(path);
  std::string line;
  std::size_t cancels = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ev\":\"cancel\"") != std::string::npos) ++cancels;
  }
  EXPECT_EQ(cancels, 96u);
  std::filesystem::remove(path);
}

TEST(Cli, ErrorsAreReportedNotThrown) {
  EXPECT_EQ(run({"run", "--stripe", "banana"}).code, 1);
  EXPECT_EQ(run({"describe", "--cluster", "/no/such/file.json"}).code, 1);
  EXPECT_EQ(run({"run", "--bogus-flag", "1"}).code, 1);
  EXPECT_NE(run({"run", "--bogus-flag", "1"}).err.find("--bogus-flag"), std::string::npos);
  EXPECT_EQ(run({"run", "--pattern", "n7"}).code, 1);
  EXPECT_EQ(run({"run", "--op", "delete"}).code, 1);
  EXPECT_EQ(run({"concurrent", "--apps", "3", "--nodes-per-app", "8", "--nodes", "4"}).code,
            1);
}

}  // namespace
}  // namespace beesim::cli

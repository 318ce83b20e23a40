// simbench: one workload of the simsel benchmark per invocation.
//
//   simbench --workload <select-strict|select-broad-disk|serve-mixed>
//            --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics (from a separate traced
// pass) with --trace 1. Exits non-zero on bad arguments or when a run
// cannot complete; failed correctness checks print correct=false.
// See simbench/README.md for the workloads and metric definitions.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "reference.h"

namespace simbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "<select-strict|select-broad-disk|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     std::isfinite(args->seconds) && args->seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && !args->out_dir.empty();
}

void PrintResult(const Outcome& outcome, bool trace) {
  const std::vector<Metric>& metrics =
      trace ? outcome.per_layer : outcome.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");

  Progress("start " + args.workload);
  const std::string self_test = ReferenceSelfTest();
  Outcome outcome;
  if (args.workload == "select-strict") {
    outcome = RunSelectStrict(args);
  } else if (args.workload == "select-broad-disk") {
    outcome = RunSelectBroadDisk(args);
  } else if (args.workload == "serve-mixed") {
    outcome = RunServeMixed(args);
  } else {
    return Usage("unknown workload");
  }
  if (!self_test.empty()) outcome.Problem(self_test);
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "simbench: no operation was attempted\n");
    return 1;
  }
  std::fprintf(stderr, "simbench: %s seed=%llu attempted=%llu failed=%llu "
               "problems=%zu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed),
               outcome.problems.size());
  PrintResult(outcome, args.trace);
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::Main(argc, argv); }

// The bounds-contract benchmark. One command runs one workload for a fixed
// window and prints, as its last line, a JSON object with the verdict of
// every correctness gate, the operations attempted and failed, and the
// metrics of the requested mode (end-to-end untraced, per-layer traced).
//
//   perfbench --workload explore|escalate|ingest|fanout --seed N
//             --seconds S --trace 0|1 --workdir DIR
//             [--smoke] [--corrupt-oracle] [--source-id ID]
//
// `perfbench --recover-probe DIR CPU` is the child a run spawns to time a
// recovery in a fresh process pinned to one CPU (TimeRecoveries).
//
// perfbench/run.py builds this binary and is the documented entry point.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload explore|escalate|ingest|fanout "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--smoke] "
               "[--corrupt-oracle] [--source-id ID]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--recover-probe") {
    return perfbench::RecoverProbe(argv[2], std::atoi(argv[3]));
  }
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--source-id") {
      args.source_id = value();
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
    } else {
      Usage();
    }
  }
  const bool sky = args.workload == "explore" || args.workload == "escalate" ||
                   args.workload == "fanout";
  if ((!sky && args.workload != "ingest") || args.workdir.empty() ||
      !(args.seconds > 0.0)) {
    Usage();
  }
  perfbench::ResetDir(args.workdir);
  perfbench::PrintMachineRecord(args);
  const perfbench::RunResult result = sky ? perfbench::RunSkyWorkload(args)
                                          : perfbench::RunIngestWorkload(args);
  perfbench::PrintResult(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}

// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <mip-quest|mip-enron|snmf-quest|svc-mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--reduced] [--corrupt <kind>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every correctness check passed. perfbench/run.py builds this binary and
// adds the peak resident set, measured from outside the process.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--reduced] [--corrupt KIND]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reduced") {
      args.reduced = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  const std::map<std::string, void (*)(const perfbench::Args&,
                                       perfbench::Report&)>
      workloads = {{"mip-quest", perfbench::run_mip_quest},
                   {"mip-enron", perfbench::run_mip_enron},
                   {"snmf-quest", perfbench::run_snmf_quest},
                   {"svc-mixed", perfbench::run_svc_mixed}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) usage(("unknown workload " + args.workload).c_str());

  perfbench::print_environment(args);
  perfbench::Report report;
  try {
    it->second(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}

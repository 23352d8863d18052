// perfbench_measure — the repository benchmark's measuring program.
//
//   perfbench_measure --workload sweep|million|served --seed N
//                     --seconds S --trace 0|1 [--work-dir DIR]
//                     [--refereectl PATH] [--commit ID]
//
// Prints a context line, then one result line (the last line of stdout):
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// perfbench/run.py builds this program and is the command to run.
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_measure: " << why
            << "\nusage: perfbench_measure --workload sweep|million|served "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--refereectl PATH] [--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return usage("flags take one value each");
  try {
    for (const auto& [flag, value] : flags) {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--refereectl") {
        options.refereectl = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad flag value");
  }
  if (options.seconds <= 0) return usage("--seconds must be positive");

  const std::map<std::string, void (*)(const perfbench::Options&,
                                       perfbench::Report&)>
      workloads{{"sweep", perfbench::run_sweep},
                {"million", perfbench::run_million},
                {"served", perfbench::run_served}};
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage("unknown workload");

  try {
    std::filesystem::create_directories(options.work_dir);
    perfbench::Report report(options);
    it->second(options, report);
    report.print();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_measure: " << options.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}

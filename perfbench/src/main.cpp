// megadc_bench: one benchmark invocation.
//
//   megadc_bench --workload <steady|diurnal_sessions|storm> --seed N
//                --seconds S --trace <0|1>
//
// Prints a diagnostics line ({"info": ...}) and then, as the last line,
// {"correct", "attempted", "failed", "metrics"}.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench.hpp"

int main(int argc, char** argv) {
  std::optional<perfbench::Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool ok = argc % 2 == 1;
  for (int i = 1; ok && i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = perfbench::parseWorkload(value);
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "1";
    } else {
      ok = false;
    }
  }
  if (!ok || !workload) {
    std::cerr << "usage: " << argv[0]
              << " --workload <steady|diurnal_sessions|storm> --seed N"
                 " --seconds S --trace <0|1>\n";
    return 2;
  }

  try {
    const perfbench::Spec spec = perfbench::makeSpec(
        *workload, seed, perfbench::defaultApps(*workload),
        perfbench::epochsFor(*workload, seconds));
    const perfbench::RunReport report =
        perfbench::runBenchmark(spec, /*setups=*/3, trace);
    std::cout << perfbench::infoJson(report) << "\n"
              << perfbench::resultJson(report) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "megadc_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

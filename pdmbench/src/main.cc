// pdmbench: the repository benchmark. Runs one workload against the pdm
// library's public API in this process and prints, as the last line of
// standard output, one JSON object with the run's output-check verdict, the
// operations attempted and failed, and its metrics — the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a traced run. Exits 1 when any
// output check fails. See README.md in this directory for the workloads and
// the layer -> metric -> end-to-end map.
//
//   pdmbench --workload wire-pipelined --seed 1 --seconds 10 --trace 0

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pdmbench --workload {wire-pipelined|broker-parallel|fleet-cold} "
               "--seed N --seconds S [--trace 0|1] [--perturb price|reserve|tally|twin] "
               "[--out_dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pdmbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage();
    } else if (flag == "--perturb") {
      options.perturb = value;
    } else if (flag == "--out_dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (options.seconds <= 0.0 || options.seconds > 120.0) return Usage();
  if (!options.perturb.empty() && options.perturb != "price" && options.perturb != "reserve" &&
      options.perturb != "tally" && options.perturb != "twin") {
    return Usage();
  }

  pdmbench::Result result;
  if (options.workload == "wire-pipelined") {
    pdmbench::RunWirePipelined(options, &result);
  } else if (options.workload == "broker-parallel") {
    pdmbench::RunBrokerParallel(options, &result);
  } else if (options.workload == "fleet-cold") {
    pdmbench::RunFleetCold(options, &result);
  } else {
    return Usage();
  }
  result.Print();
  return result.correct() ? 0 : 1;
}

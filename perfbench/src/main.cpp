// perfbench: the measuring half of the repository benchmark. run.py builds
// it, starts the daemons and prints the final result.
//
//   perfbench sim  --workload sim_write|sim_reconfig --seed N --seconds S
//                  --trace 0|1 --tmp DIR [--batch B]
//   perfbench setup --workload sim_write|sim_reconfig --seed N
//   perfbench load --hosts FILE --seed N --seconds S --trace 0|1 --tmp DIR
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "real_load.h"
#include "sim_workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench sim --workload W --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--batch B]\n"
               "       perfbench setup --workload W --seed N\n"
               "       perfbench load --hosts FILE --seed N --seconds S "
               "--trace 0|1 --tmp DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  auto get = [&](const char* key, const char* def) -> std::string {
    auto it = args.find(key);
    return it == args.end() ? def : it->second;
  };
  const uint64_t seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  const double seconds = std::atof(get("seconds", "10").c_str());
  const bool trace = get("trace", "0") == "1";
  const std::string tmp = get("tmp", ".");

  if (cmd == "sim") {
    const size_t batch = std::strtoull(get("batch", "0").c_str(), nullptr, 10);
    return perfbench::RunSimWorkload(get("workload", ""), seed, seconds, trace,
                                     tmp, batch);
  }
  if (cmd == "setup") {
    return perfbench::RunSimSetup(get("workload", ""), seed);
  }
  if (cmd == "load") {
    perfbench::LoadOptions o;
    o.hosts = get("hosts", "");
    o.seed = seed;
    o.seconds = seconds;
    o.trace = trace;
    o.tmp_dir = tmp;
    if (o.hosts.empty()) return Usage();
    return perfbench::RunRealLoad(o);
  }
  return Usage();
}

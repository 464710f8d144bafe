// perfbench: one workload per process, one JSON result line on stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--peers <n>] [--objects <n>] [--spans <path>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of the traced run (and writes its spans to --spans). Diagnostics go to
// stderr. Exit status: 0 when every correctness check passed, 1 when one
// failed (the result line then says "correct": false), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--peers <n>] [--objects <n>] "
               "[--spans <path>]\nworkloads:",
               problem);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || *text == '-') {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      opt.trace = n == 1;
    } else if (flag == "--peers" && parse_u64(value, n) && n >= 64) {
      opt.peers = n;
    } else if (flag == "--objects" && parse_u64(value, n) && n >= 1) {
      opt.objects = n;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload) {
    return usage("--workload is required");
  }

  perfbench::Report report;
  try {
    if (!perfbench::run_workload(opt, report)) {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: %llu checks, %s\n",
               static_cast<unsigned long long>(report.checks()),
               report.correct() ? "all passed" : "FAILED");
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}

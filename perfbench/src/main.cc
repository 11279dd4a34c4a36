// domino_perfbench: one workload, one run, one JSON result line.
//
//   domino_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--corrupt-reference]
//
// Workloads: inproc_wire, inproc_paced, dist_tcp, compile_corpus.  With
// --trace 0 the result carries the end-to-end metrics; with --trace 1 the
// per-layer ledger (ledger.cc).  The last stdout line is the result; the line
// before it stamps the build.  perfbench/run.py builds this binary and is
// the entry point; see perfbench/README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __VERSION__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER __VERSION__
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload inproc_wire|inproc_paced|dist_tcp|"
               "compile_corpus --seed N --seconds S --trace 0|1 "
               "[--corrupt-reference]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || v[0] == '-') return false;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 60)
        return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else {
      return false;
    }
  }
  return opt.workload == "inproc_wire" || opt.workload == "inproc_paced" ||
         opt.workload == "dist_tcp" || opt.workload == "compile_corpus";
}

// JSON string escaping for the few strings the stamp carries.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                quoted(m.name).c_str(), m.value, quoted(m.unit).c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);

#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report numbers from a build "
                       "with assertions enabled\n");
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::printf("{\"stamp\": {\"compiler\": %s, \"flags\": %s, "
              "\"build_type\": %s, \"nproc\": %ld, \"workload\": %s, "
              "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
              quoted(PERFBENCH_COMPILER).c_str(), quoted(PERFBENCH_CXX_FLAGS).c_str(),
              quoted(PERFBENCH_BUILD_TYPE).c_str(),
              sysconf(_SC_NPROCESSORS_ONLN), quoted(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome out;
  try {
    if (opt.trace)
      perfbench::run_ledger(opt, out);
    else if (opt.workload == "inproc_wire")
      perfbench::run_inproc_wire(opt, out);
    else if (opt.workload == "inproc_paced")
      perfbench::run_inproc_paced(opt, out);
    else if (opt.workload == "dist_tcp")
      perfbench::run_dist_tcp(opt, out);
    else
      perfbench::run_compile_corpus(opt, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  out.correct = out.failed == 0 && out.attempted > 0;
  for (const auto& m : out.metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      out.correct = false;
    }
  print_result(out);
  return 0;
}

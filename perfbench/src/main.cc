// pcor_perfbench — one workload per invocation (perfbench/run.py drives it).
//
//   pcor_perfbench --workload serve_warm|batch_cold|stream_ingest
//                  --seed N --seconds S --trace 0|1 [--spans FILE] [--tiny]
//   pcor_perfbench --selftest
//
// Prints a human-readable report and, as its last line, `PERFBENCH_REPORT`
// followed by one JSON object with every metric (value, unit, sample
// count), the output-check verdict and the host fingerprint. Exits 0 when
// every output check passed, 1 when one failed, 2 on a usage error or a
// refused environment.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/simd.h"
#include "src/common/string_util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Each of these selects an ablation or a layout: a run under one measures
// a different program.
constexpr const char* kProgramPathVars[] = {
    "PCOR_SHARD_COUNT",      "PCOR_FORCE_SIMD",    "PCOR_FORCE_SCALAR",
    "PCOR_COMPRESSED_INDEX", "PCOR_SEGMENTED_SEAL", "PCOR_PIN_THREADS",
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Fingerprint(uint64_t seed) {
  return pcor::strings::Format(
      "{\"nproc\":%u,\"simd\":\"%s\",\"compiler\":%s,\"build_type\":\"%s\","
      "\"seed\":%llu}",
      std::thread::hardware_concurrency(), pcor::simd::ActiveBackendName(),
      JsonString("gcc " __VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(seed));
}

void PrintReport(const Report& report, const RunOptions& options) {
  std::printf("== %s (seed %llu, %.0f s, %s run)\n", report.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
  std::printf("fingerprint: %s\n", Fingerprint(options.seed).c_str());
  for (const Metric& m : report.metrics) {
    std::printf("  %-36s %14.4f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::printf("  attempted %zu, failed %zu, digest %016llx\n",
              report.attempted, report.failed,
              static_cast<unsigned long long>(report.digest));
  if (report.failures.empty()) {
    std::printf("  output checks: PASS\n");
  }
  for (const std::string& f : report.failures) {
    std::printf("  output check FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"workload\":" + JsonString(report.workload);
  json += pcor::strings::Format(
      ",\"trace\":%d,\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
      "\"digest\":\"%016llx\",\"fingerprint\":%s,\"failures\":[",
      options.trace ? 1 : 0, report.failures.empty() ? "true" : "false",
      report.attempted, report.failed,
      static_cast<unsigned long long>(report.digest),
      Fingerprint(options.seed).c_str());
  for (size_t i = 0; i < report.failures.size(); ++i) {
    if (i) json += ",";
    json += JsonString(report.failures[i]);
  }
  json += "],\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += pcor::strings::Format(
        "%s%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%zu}", i ? "," : "",
        JsonString(m.name).c_str(), m.value, JsonString(m.unit).c_str(),
        m.samples);
  }
  json += "}}";
  std::printf("PERFBENCH_REPORT %s\n", json.c_str());
  std::fflush(stdout);
}

// Self-tests at tiny sizes: the forwarding engine is bit-identical to the
// standard one on every workload's inputs, and a wrong replay seed trips
// every workload's output check.
int SelfTest() {
  std::vector<std::string> failures;
  for (const std::string& w : WorkloadNames()) {
    CheckForwardingIdentity(w, 7, &failures);
    RunOptions options;
    options.seed = 7;
    options.seconds = 1.0;
    options.tiny = true;
    options.replay_seed_xor = 1;
    Report report;
    RunWorkload(w, options, &report);
    bool tripped = false;
    for (const std::string& f : report.failures) {
      tripped = tripped || f.find("replayed releases differ") !=
                               std::string::npos;
    }
    if (!tripped) {
      failures.push_back(w + ": a wrong replay seed did not trip the check");
    }
    std::printf("selftest %-14s forwarding identity + wrong-seed replay: %s\n",
                w.c_str(), tripped ? "checked" : "NOT TRIPPED");
  }
  for (const std::string& f : failures) {
    std::printf("selftest FAILED: %s\n", f.c_str());
  }
  std::printf("selftest: %s\n", failures.empty() ? "PASS" : "FAIL");
  return failures.empty() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pcor_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--tiny]\n"
               "       pcor_perfbench --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  for (const char* var : kProgramPathVars) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set, which selects an ablation or "
                   "layout; unset it to measure the default program\n",
                   var);
      return 2;
    }
  }
  RunOptions options;
  std::string workload;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (selftest) return SelfTest();
  if (!(options.seconds > 0.0)) return Usage();
  Report report;
  if (!RunWorkload(workload, options, &report)) return Usage();
  PrintReport(report, options);
  return report.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

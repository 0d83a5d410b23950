// diva_bench: runs one benchmark workload and prints one JSON line.
//
//   diva_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --run-dir <dir> [--spans <path>]
//   diva_bench --self-test
//
// The last line of stdout is {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}, "record": {...}}. The exit code
// is 0 only when every operation and every output check passed.
// benchmark/run.py builds this binary and is the entry point to use.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: diva_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --run-dir <dir> [--spans <path>]\n"
               "       diva_bench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunOptions opts;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return bench::run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opts.trace = v == "1";
    } else if (a == "--run-dir") {
      opts.run_dir = v;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const auto& w : bench::workload_names()) known |= w == opts.workload;
  if (!known || opts.run_dir.empty() || !(opts.seconds > 0.0)) return usage();

  bench::RunOutput out;
  std::filesystem::create_directories(opts.run_dir);
  try {
    bench::run_workload(opts, &out);
  } catch (const std::exception& e) {
    ++out.attempted;
    ++out.failed;
    out.failures.push_back(std::string("workload aborted: ") + e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(opts.run_dir, ec);

  if (!spans_path.empty() && !out.spans.empty()) {
    std::ofstream(spans_path) << bench::spans_to_json(out.spans) << "\n";
  }
  for (const auto& f : out.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string line = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    line += (first ? "\"" : ",\"") + json_escape(name) + "\":{\"value\":" +
            json_number(m.value) + ",\"unit\":\"" + json_escape(m.unit) +
            "\"}";
    first = false;
  }
  line += "},\"record\":{";
  first = true;
  for (const auto& [k, v] : out.record) {
    line += (first ? "\"" : ",\"") + json_escape(k) + "\":\"" +
            json_escape(v) + "\"";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// e2ebench: the SONIC end-to-end benchmark binary.
//
//   e2ebench --workload <air_chain|client_rx|sms_station> --seed <n>
//            --seconds <s> --trace <0|1> [--smoke]
//
// Prints human-readable lines, then, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports every end-to-end metric (each workload measures all of
// them); --trace 1 reports every per-layer metric (zero for layers the
// workload does not exercise).
// Exits 1 when a correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"

namespace {

// Per-layer metrics only some workloads report (registry counters, on_audio
// call times, page waits); workloads that do not touch a layer report zero.
constexpr struct {
  const char* name;
  const char* unit;
} kOptionalMetrics[] = {
    {"sonic.on_audio_p50_ms", "ms"},
    {"sonic.on_audio_p99_ms", "ms"},
    {"sonic.page_wait_p50_s", "sim_s"},
    {"sonic.page_wait_p99_s", "sim_s"},
    {"sonic.cache_hit_ratio", "ratio"},
    {"modem.rx_resyncs", "count"},
    {"modem.frames_ok_ratio", "ratio"},
    {"sonic.repair_frames_received", "count"},
    {"sonic.pages_fountain_decoded", "count"},
    {"sonic.requests_deduped", "count"},
    {"sonic.requests_coalesced", "count"},
    {"sonic.requests_shed", "count"},
    {"sonic.uplink_retries_per_request", "ratio"},
    {"sonic.carousel_repair_frames", "count"},
    {"fec.pages_mds", "count"},
    {"fec.pages_lt", "count"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <air_chain|client_rx|sms_station> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n",
               msg);
  return 2;
}

void print_json(const e2e::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed must be a whole number");
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");

  e2e::Result result;
  try {
    if (opt.workload == "air_chain") {
      result = e2e::run_air_chain(opt);
    } else if (opt.workload == "client_rx") {
      result = e2e::run_client_rx(opt);
    } else if (opt.workload == "sms_station") {
      result = e2e::run_sms_station(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  if (opt.trace) {
    std::set<std::string> present;
    for (const auto& m : result.metrics) present.insert(m.name);
    for (const auto& c : kOptionalMetrics) {
      if (present.count(c.name) == 0) result.add(c.name, 0.0, c.unit);
    }
  }
  for (const std::string& e : result.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::fflush(stdout);
  print_json(result);
  return result.correct ? 0 : 1;
}

// perfbench — the retrieval benchmark program.
//
//   perfbench --workload <scan_cold|zipf_ingest|fleet_scatter> --seed <n>
//             --seconds <s> --trace <0|1> --data-dir <dir>
//             [--trace-out <file>] [--git-sha <sha>] [--source-digest <hex>]
//
// Prints human-readable facts, metrics and timings, then, as its last line,
// "perfbench-record " followed by one JSON object holding every fact and
// metric with its sample count. perfbench/run.py builds this binary, runs
// it, and turns the record into the result line BENCHMARK.json describes.
// Exit code 0 on a completed run (correct or not), 1 on a run that could
// not complete, 2 on bad arguments.
#include <sched.h>

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "lcs/kernel.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

bool known_workload(const std::string& name) {
  for (const char* w : workload_names) {
    if (name == w) return true;
  }
  return false;
}

bool parse_args(int argc, char** argv, config& cfg) {
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string key = argv[a];
    const std::string value = argv[a + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--data-dir") {
      cfg.data_dir = value;
    } else if (key == "--trace-out") {
      cfg.trace_out = value;
    } else if (key == "--git-sha") {
      cfg.git_sha = value;
    } else if (key == "--source-digest") {
      cfg.source_digest = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: every flag takes a value\n");
    return false;
  }
  if (!known_workload(cfg.workload)) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 cfg.workload.c_str());
    return false;
  }
  if (!(cfg.seconds > 0.0) || cfg.data_dir.empty()) {
    std::fprintf(stderr, "perfbench: --seconds > 0 and --data-dir required\n");
    return false;
  }
  return true;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

void provenance(const config& cfg, report& out) {
  out.fact("workload", cfg.workload);
  out.fact("seed", std::to_string(cfg.seed));
  out.fact("seconds", std::to_string(cfg.seconds));
  out.fact("trace", cfg.trace ? "1" : "0");
  out.fact("git_sha", cfg.git_sha.empty() ? "unknown" : cfg.git_sha);
  out.fact("source_digest",
           cfg.source_digest.empty() ? "unknown" : cfg.source_digest);
  out.fact("lcs_kernel", std::string(bes::active_lcs_kernel().name));
  out.fact("cpu", cpu_model());
  out.fact("nproc", std::to_string(usable_cpus()));
  out.fact("build_type", PERFBENCH_BUILD_TYPE);
  out.fact("corpus_images", std::to_string(corpus_images));
  out.fact("objects_per_image", std::to_string(objects_per_image));
  out.fact("symbol_pool", std::to_string(symbol_pool));
  out.fact("top_k", std::to_string(top_k));
}

// Digest of the run's corpus and of each request stream it replays, plus
// the reproducibility check: the same seed regenerates the same digests and
// the next seed changes every one of them.
void check_digests(const config& cfg, const corpus& source, report& out) {
  const corpus again(cfg.seed);
  const corpus other(cfg.seed + 1);
  auto check = [&](const std::string& what, std::uint64_t first,
                   std::uint64_t repeat, std::uint64_t next_seed) {
    out.fact(format("digest.%s", what.c_str()), hex64(first));
    if (first != repeat) {
      out.check_failed(format("%s digest differs between two generations",
                              what.c_str()));
    }
    if (first == next_seed) {
      out.check_failed(format("%s digest unchanged by a different seed",
                              what.c_str()));
    }
  };
  check("corpus", source.digest(), again.digest(), other.digest());
  constexpr std::size_t prefix = 2048;
  for (const char* w : workload_names) {
    const std::string name = w;
    if (!cfg.trace && name != cfg.workload) continue;
    if (name == "zipf_ingest") {
      check(format("stream.%s", w), zipf_ingest_stream(source, cfg.seed).digest(),
            zipf_ingest_stream(again, cfg.seed).digest(),
            zipf_ingest_stream(other, cfg.seed + 1).digest());
    } else {
      const bool ti = name == "scan_cold";
      check(format("stream.%s", w),
            distinct_stream(source, cfg.seed, ti).digest(prefix),
            distinct_stream(again, cfg.seed, ti).digest(prefix),
            distinct_stream(other, cfg.seed + 1, ti).digest(prefix));
    }
  }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  config cfg;
  try {
    if (!parse_args(argc, argv, cfg)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument value: %s\n", e.what());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  report out;
  int status = 0;
  try {
    std::filesystem::remove_all(cfg.data_dir);
    std::filesystem::create_directories(cfg.data_dir);
    provenance(cfg, out);
    const corpus source(cfg.seed);
    check_digests(cfg, source, out);
    if (cfg.trace) {
      run_traced(cfg, source, out);
    } else {
      run_end_to_end(cfg, source, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(cfg.data_dir, ignored);
  if (status != 0) return status;
  std::printf("perfbench-record %s\n", out.record_json().c_str());
  return 0;
}

// The retrieval benchmark: shared declarations.
//
// One binary runs one workload per invocation (perfbench/run.py builds it
// and passes the arguments through). A run generates its corpus and request
// stream from --seed, writes the corpus files, then either measures the
// workload end to end with tracing off (end_to_end.cpp) or replays every
// workload's stream through the decomposed layer calls with spans on
// (traced.cpp). Sampled answers are checked against an exhaustive reference
// the benchmark owns (oracle.cpp). The last stdout line is the run's record.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/query.hpp"
#include "db/shard.hpp"
#include "net/loopback.hpp"
#include "symbolic/alphabet.hpp"
#include "symbolic/symbolic_image.hpp"

namespace perfbench {

using clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(clock::time_point a,
                                       clock::time_point b) noexcept {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ workload shape

inline constexpr std::size_t corpus_images = 20000;
inline constexpr std::size_t objects_per_image = 8;
inline constexpr int domain = 256;
inline constexpr std::size_t symbol_pool = 160;
inline constexpr std::size_t top_k = 10;  // besdb query's default
inline constexpr std::size_t fleet_shards = 4;
// Set-up runs setup_warmups times untimed, then at least setup_repeats
// times and for at least setup_span_s; setup_s is the median of the timed
// runs. The first loads in a process run slower while its heap grows, so
// they are left out. Host noise comes in bursts of a second or more; timed
// runs spread over several seconds keep a burst from moving their median.
inline constexpr std::size_t setup_warmups = 3;
inline constexpr std::size_t setup_repeats = 15;
inline constexpr double setup_span_s = 3.0;
// Worker threads for the oracle and other untimed checking work.
inline constexpr unsigned check_threads = 4;

inline constexpr const char* workload_names[] = {"scan_cold", "zipf_ingest",
                                                 "fleet_scatter"};

struct config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path data_dir;   // corpus files; removed at exit
  std::filesystem::path trace_out;  // span dump of a traced run
  std::string git_sha;
  std::string source_digest;
};

// --------------------------------------------------------------- support.cpp

// A timing summary: the median and the tail percentiles p90 and p99, each
// with the number of samples beyond it. A percentile is withheld (reported
// as no number) when fewer than 10 samples lie beyond it. Failed operations
// are recorded as +infinity, so they rank above every successful sample.
struct timing {
  struct tail {
    double percentile = 0.0;
    double value = 0.0;
    std::size_t beyond = 0;
    [[nodiscard]] bool withheld() const noexcept { return beyond < 10; }
  };
  std::size_t n = 0;
  double p50 = 0.0;
  tail p90{0.90};
  tail p99{0.99};
};
[[nodiscard]] timing summarize(std::vector<double> samples);

// Nearest-rank median of a sample (0 when empty).
[[nodiscard]] double median(std::vector<double> samples);

// FNV-1a 64-bit digest.
class fnv64 {
 public:
  void add(std::uint64_t v) noexcept;
  void add(const bes::symbolic_image& image) noexcept;
  void add(const bes::be_string2d& strings) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};
[[nodiscard]] std::string hex64(std::uint64_t v);
// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Everything a run reports: metrics (name, value, unit, sample count), facts
// (provenance and check outcomes), and the operation accounting that feeds
// the final JSON line.
class report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, const std::string& note = "");
  // Prints a timing as median, p90 and p99 with the sample count, and
  // records `<prefix>_p50_ms`, `<prefix>_p90_ms` and `<prefix>_p99_ms`
  // (each tail only when not withheld).
  void timing_metrics(const std::string& prefix, const timing& t);
  void fact(const std::string& key, const std::string& value);
  // A failed correctness check (not an operation): makes `correct` false.
  void check_failed(const std::string& reason);
  void count_operations(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const noexcept {
    return check_failures_.empty() && failed_ == 0 && attempted_ > 0;
  }

  // The full record (correctness, every fact, every metric with its sample
  // count, the operation accounting) as one JSON line.
  [[nodiscard]] std::string record_json() const;

 private:
  struct entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<entry> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<std::string> check_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::string cpu_model();

// Runs `fn(client, i)` on `clients` threads in a closed loop: each client
// claims the next request index, starting at `first`, only after its
// previous request returned, until index `limit` is reached, `deadline`
// passes or `done` (when set) returns true. Joins every thread; an
// exception escaping `fn` is rethrown after the join. Returns one past the
// last index claimed.
[[nodiscard]] std::uint64_t closed_loop(
    unsigned clients, std::uint64_t first, std::uint64_t limit,
    clock::time_point deadline,
    const std::function<void(unsigned, std::uint64_t)>& fn,
    const std::function<bool()>& done = {});

// --------------------------------------------------------------- streams.cpp

// "S0".."S<symbol_pool-1>" interned in order, so symbol ids equal pool
// indices in every copy and in every database built from the corpus.
[[nodiscard]] bes::alphabet pool_alphabet();

// The generated corpus: the benchmark's own copy of every scene and of its
// encoding (the oracle scores these, never the program's stored records).
class corpus {
 public:
  explicit corpus(std::uint64_t seed);
  [[nodiscard]] std::span<const bes::symbolic_image> scenes() const noexcept {
    return scenes_;
  }
  [[nodiscard]] std::span<const bes::be_string2d> strings() const noexcept {
    return strings_;
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] static std::string name_of(std::size_t j);

  // Corpus files the program loads: one BSEG1 segment / one SCRP1 corpus.
  void write_segment(const std::filesystem::path& path) const;
  void write_sharded(const std::filesystem::path& dir) const;

 private:
  std::vector<bes::symbolic_image> scenes_;
  std::vector<bes::be_string2d> strings_;
  std::uint64_t digest_ = 0;
};

struct request {
  enum class kind : std::uint8_t { query, add, remove };
  bes::symbolic_image image;  // the query sketch
  bool transform_invariant = false;
};

// scan_cold / fleet_scatter: distinct queries, request i a pure function of
// (seed, i). A quarter are novel random sketches (i % 4 == 2); the rest
// distort a uniformly drawn corpus scene (keep 0.8, jitter 2). With
// transform-invariant queries enabled, one request in eight (i % 8 == 7) is.
class distinct_stream {
 public:
  distinct_stream(const corpus& source, std::uint64_t seed,
                  bool transform_invariant);
  [[nodiscard]] request at(std::uint64_t i, bes::alphabet& names) const;
  // Digest of the first `prefix` requests.
  [[nodiscard]] std::uint64_t digest(std::size_t prefix) const;

 private:
  const corpus* source_;
  std::uint64_t seed_;
  bool transform_invariant_;
};

// zipf_ingest: a pool of 4 x the cache capacity distinct distorted scenes
// (keep 0.8, jitter 2), requested zipf(s = 1.2) (workload/zipf's sampler,
// rank 0 hottest); request i % 32 == 31 adds a new
// scene and i % 128 == 15 removes the next id of a seeded permutation of
// the initial corpus (so the victim is always live).
class zipf_ingest_stream {
 public:
  static constexpr std::size_t cache_capacity = 4096;
  static constexpr std::size_t pool_size = 4 * cache_capacity;
  static constexpr std::size_t length = std::size_t{1} << 19;
  static constexpr double skew = 1.2;

  zipf_ingest_stream(const corpus& source, std::uint64_t seed);
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] static request::kind kind(std::uint64_t i) noexcept;
  [[nodiscard]] std::size_t pool_index(std::uint64_t i) const {
    return order_.at(i);
  }
  [[nodiscard]] const bes::symbolic_image& query(std::uint64_t i) const {
    return pool_.at(order_.at(i));
  }
  [[nodiscard]] bes::symbolic_image added_scene(std::uint64_t i,
                                                bes::alphabet& names) const;
  [[nodiscard]] static std::string added_name(std::uint64_t i);
  [[nodiscard]] bes::image_id victim(std::uint64_t i) const;
  // Distinct queries in the pool, by encoded strings (what the cache keys).
  [[nodiscard]] std::size_t distinct_pool_queries() const;
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::uint64_t seed_;
  std::vector<bes::symbolic_image> pool_;
  std::vector<std::size_t> order_;
  std::vector<bes::image_id> removals_;
};

// Whether request i is in the seed-derived oracle sample (1 in `rate`).
[[nodiscard]] bool sampled(std::uint64_t seed, std::uint64_t i,
                           std::uint64_t rate) noexcept;

// ---------------------------------------------------------------- oracle.cpp

// One answer kept for checking, with the cut it was computed at.
struct sample {
  std::uint64_t index = 0;
  bes::symbolic_image query;
  bool transform_invariant = false;
  std::vector<bes::query_result> answer;
  // Records [0, visible) existed; alive() says which were not removed.
  std::uint64_t visible = 0;
  std::function<bool(bes::image_id)> alive;  // empty = every record alive
  double* latency = nullptr;  // set to +inf when the answer is wrong
};

// The engine's ranking order: score descending, then id ascending.
[[nodiscard]] bool ranks_before(const bes::query_result& a,
                                const bes::query_result& b);

// Exhaustive reference: scores every record alive at the cut with
// similarity (best_transform_similarity for transform-invariant queries),
// ranks by score descending then id ascending, and keeps the top k.
[[nodiscard]] std::vector<bes::query_result> oracle_top_k(
    std::span<const bes::be_string2d> records, std::uint64_t visible,
    const std::function<bool(bes::image_id)>& alive,
    const bes::be_string2d& query, bool transform_invariant, std::size_t k);

struct verdict {
  bool match = false;  // same ids and scores, in the same order
  double recall = 0.0;  // share of the expected ids the answer returned
};
[[nodiscard]] verdict check_answer(std::span<const bes::query_result> answer,
                                   std::span<const bes::query_result> expected);

struct sample_summary {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  double recall_sum = 0.0;
  // The first sample, carrying the oracle's answer, for the negative control.
  std::optional<sample> control;

  sample_summary& operator+=(const sample_summary& other);
};
// Checks every sample against the oracle (in parallel, untimed); marks the
// latency of each mismatched sample +inf and prints the first three.
[[nodiscard]] sample_summary check_samples(
    std::vector<sample>& samples, std::span<const bes::be_string2d> records,
    bool print_mismatches = true);

// The accuracy figures a run reports: failed operations (those that threw
// or degraded, plus every checked answer that differs from the oracle) and
// the mean recall of the checked answers.
struct accuracy {
  std::uint64_t failed = 0;
  double recall_at_10 = 0.0;
};
[[nodiscard]] accuracy fold_accuracy(const sample_summary& checked,
                                     std::uint64_t failed_operations);

// Negative control: the control sample is checked again with its oracle
// answer, then with one id of it swapped, each as an extra sample beside
// `checked`; folded as a run folds them, the swap must add one failure and
// lower recall_at_10. Records the outcome in `out`.
void negative_control(const sample_summary& checked,
                      std::span<const bes::be_string2d> records, report& out);

// ------------------------------------------------------- workloads and trace

// Opens `segment` with load_segment as the set-up constants above say and
// returns the last database; `seconds` receives each timed duration.
[[nodiscard]] bes::image_database load_flat(
    const std::filesystem::path& segment, std::vector<double>& seconds);

void run_end_to_end(const config& cfg, const corpus& source, report& out);
void run_traced(const config& cfg, const corpus& source, report& out);

// Query options every workload shares (top_k = 10, everything else default).
[[nodiscard]] bes::query_options base_options();
// fleet_scatter's: base_options plus histogram_pruning.
[[nodiscard]] bes::query_options fleet_options();

// A 4-shard loopback fleet over a sharded corpus: one shard server per
// shard on 127.0.0.1 (scan_threads 1), gossip on, coordinator cache off.
struct fleet {
  std::unique_ptr<bes::sharded_database> db;
  std::unique_ptr<bes::net::loopback_cluster> cluster;  // borrows *db
};
// Opens the SCRP1 corpus in `dir` (load_sharded_corpus) and starts the
// fleet as the set-up constants above say, keeping the last; `load_seconds`
// and `start_seconds` receive the two durations of each timed repeat.
[[nodiscard]] fleet open_fleet(const std::filesystem::path& dir,
                               std::vector<double>& load_seconds,
                               std::vector<double>& start_seconds);

}  // namespace perfbench

// End-to-end runs, tracing off: set-up timed as a user pays it, a short
// warm-up, then a closed loop of clients for --seconds, each waiting for its
// reply before sending the next request. Sampled answers are checked against
// the oracle after the window closes.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/encoder.hpp"
#include "db/result_cache.hpp"
#include "db/segment.hpp"
#include "db/shard_storage.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

// Answers checked against the oracle per run, and kept per client.
constexpr std::size_t checked_samples = 96;

// A sampled answer. It lives in storage reserved before the window, so a
// client keeps no allocation of its own past the request: a kept
// allocation pins the client's malloc arena, which then grows with every
// query and inflates peak_rss_mb by tens of MB. The query is regenerated
// from the request index after the window.
struct kept_answer {
  std::uint64_t index = 0;
  std::size_t slot = 0;     // index into the client's query_ms
  bes::db_snapshot cut;     // db == nullptr: the whole initial corpus alive
  bool transform_invariant = false;
  std::size_t count = 0;
  // One slot past top_k, so an answer that is too long still fails.
  std::array<bes::query_result, top_k + 1> results{};
};

// What one client saw. Latencies are in ms; a failed operation is +inf.
struct client_log {
  std::vector<double> query_ms;
  std::vector<double> write_ms;
  std::vector<double> done_s;  // completion time of each query, from start
  std::uint64_t queries_in_window = 0;  // completed before the deadline
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<kept_answer> kept;  // capacity checked_samples, never grown
  std::vector<std::pair<bes::image_id, std::uint64_t>> added;  // id, request
  clock::time_point start = clock::time_point::max();     // window start
  clock::time_point deadline = clock::time_point::max();  // end of window
};

constexpr double failed_ms = std::numeric_limits<double>::infinity();

// Per-workload knobs of the closed loop.
struct loop_shape {
  unsigned clients;
  std::uint64_t sample_rate;  // 1 in this many requests is oracle-checked
  std::uint64_t limit;        // stream length
  // When set, the warm-up goes on past warmup_s until this holds.
  std::function<bool()> warmed = {};
};

// Untimed closed-loop time before every window: the first requests pay for
// lazy set-up, cold caches and clock ramp-up, which no steady user sees.
constexpr double warmup_s = 2.0;

// The aggregated outcome of the timed window.
struct window {
  std::vector<client_log> logs;
  double seconds = 0.0;
  std::uint64_t first_index = 0;
  std::uint64_t end_index = 0;
  bool exhausted = false;
};

// The first checked_samples kept answers by request index, as samples for
// the oracle; `query_of(i)` regenerates request i's query.
std::vector<sample> collect_samples(
    window& w,
    const std::function<bes::symbolic_image(std::uint64_t)>& query_of) {
  std::vector<std::pair<client_log*, const kept_answer*>> kept;
  for (client_log& log : w.logs) {
    for (const kept_answer& k : log.kept) kept.emplace_back(&log, &k);
  }
  std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
    return a.second->index < b.second->index;
  });
  if (kept.size() > checked_samples) kept.resize(checked_samples);
  std::vector<sample> all;
  for (const auto& [log, k] : kept) {
    sample smp;
    smp.index = k->index;
    smp.query = query_of(k->index);
    smp.transform_invariant = k->transform_invariant;
    smp.answer.assign(k->results.begin(), k->results.begin() + k->count);
    if (k->cut.db != nullptr) {
      smp.visible = k->cut.visible;
      smp.alive = [cut = k->cut](bes::image_id id) { return cut.alive(id); };
    } else {
      smp.visible = corpus_images;
    }
    smp.latency = &log->query_ms[k->slot];
    all.push_back(std::move(smp));
  }
  return all;
}

// Runs warm-up then the timed window. `op(client, i, log, timed)` performs
// request i and records into `log` when `timed`.
window run_window(const config& cfg, const loop_shape& shape,
                  const std::function<void(unsigned, std::uint64_t,
                                           client_log&, bool)>& op) {
  window w;
  std::vector<client_log> warm(shape.clients);
  const auto warm_op = [&](unsigned c, std::uint64_t i) {
    op(c, i, warm[c], false);
  };
  const clock::time_point warm_until =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  const std::uint64_t first = closed_loop(
      shape.clients, 0, shape.limit, clock::time_point::max(), warm_op, [&] {
        return clock::now() >= warm_until && (!shape.warmed || shape.warmed());
      });
  if (first >= shape.limit) {
    throw std::runtime_error("the warm-up used up the request stream");
  }

  w.logs.resize(shape.clients);
  for (client_log& log : w.logs) log.kept.reserve(checked_samples);
  const clock::time_point start = clock::now();
  const clock::time_point deadline =
      start + std::chrono::duration_cast<clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  for (client_log& log : w.logs) {
    log.start = start;
    log.deadline = deadline;
  }
  w.first_index = first;
  w.end_index = closed_loop(
      shape.clients, first, shape.limit, deadline,
      [&](unsigned c, std::uint64_t i) { op(c, i, w.logs[c], true); });
  const clock::time_point stop = clock::now();
  w.exhausted = w.end_index >= shape.limit;
  w.seconds = std::min(cfg.seconds, std::chrono::duration<double>(stop - start).count());
  // Adds made during warm-up still need oracle records.
  for (unsigned c = 0; c < shape.clients; ++c) {
    w.logs[c].added.insert(w.logs[c].added.end(), warm[c].added.begin(),
                           warm[c].added.end());
  }
  return w;
}

// Runs one operation; false when it reported failure or threw.
template <typename Fn>
bool attempt(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "operation failed: %s\n", e.what());
    return false;
  }
}

// Times one query and, when `timed`, records it.
template <typename Fn>
void timed_query(client_log& log, bool timed, Fn&& fn) {
  const clock::time_point t0 = clock::now();
  const bool ok = attempt(fn);
  const clock::time_point t1 = clock::now();
  if (!timed) return;
  ++log.attempted;
  log.query_ms.push_back(ok ? ms_between(t0, t1) : failed_ms);
  if (!ok) ++log.failed;
  if (t1 <= log.deadline) ++log.queries_in_window;
  log.done_s.push_back(ms_between(log.start, t1) / 1e3);
}

// Times one write (add or remove) and, when `timed`, records it.
template <typename Fn>
void timed_write(client_log& log, bool timed, Fn&& fn) {
  const clock::time_point t0 = clock::now();
  const bool ok = attempt(fn);
  const clock::time_point t1 = clock::now();
  if (!timed) return;
  ++log.attempted;
  log.write_ms.push_back(ok ? ms_between(t0, t1) : failed_ms);
  if (!ok) ++log.failed;
}

// Keeps the answer of the query just recorded for the oracle, while the
// reserved storage lasts. A default `cut` means the whole initial corpus.
void keep_sample(client_log& log, std::uint64_t i, bool transform_invariant,
                 std::span<const bes::query_result> answer,
                 bes::db_snapshot cut = {}) {
  if (log.kept.size() == log.kept.capacity()) return;
  kept_answer& k = log.kept.emplace_back();
  k.index = i;
  k.slot = log.query_ms.size() - 1;
  k.cut = cut;
  k.transform_invariant = transform_invariant;
  k.count = std::min(answer.size(), k.results.size());
  std::copy_n(answer.begin(), k.count, k.results.begin());
}

// Folds the window and its checked samples into the report.
void report_window(
    const config& cfg, window& w, std::span<const bes::be_string2d> records,
    const std::function<bes::symbolic_image(std::uint64_t)>& query_of,
    const std::vector<double>& setup, report& out) {
  std::vector<sample> samples = collect_samples(w, query_of);
  const sample_summary checked = check_samples(samples, records);

  std::vector<double> query_ms;
  std::vector<double> write_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed_operations = 0;
  std::uint64_t completed = 0;
  for (const client_log& log : w.logs) {
    query_ms.insert(query_ms.end(), log.query_ms.begin(), log.query_ms.end());
    write_ms.insert(write_ms.end(), log.write_ms.begin(), log.write_ms.end());
    attempted += log.attempted;
    failed_operations += log.failed;
    completed += log.queries_in_window;
  }
  const accuracy acc = fold_accuracy(checked, failed_operations);
  out.count_operations(attempted, acc.failed);
  out.fact("window", format("%.3f s, requests [%llu, %llu)%s", w.seconds,
                            static_cast<unsigned long long>(w.first_index),
                            static_cast<unsigned long long>(w.end_index),
                            w.exhausted ? ", stream exhausted" : ""));
  out.metric("qps", static_cast<double>(completed) / w.seconds, "1/s",
             completed, "closed loop, queries completed in the window");
  std::array<std::uint64_t, 4> quarters{};
  for (const client_log& log : w.logs) {
    for (double t : log.done_s) {
      const auto q = static_cast<std::size_t>(4.0 * t / w.seconds);
      if (q < quarters.size()) ++quarters[q];
    }
  }
  const double per_s = 4.0 / w.seconds;
  out.fact("qps_by_quarter",
           format("%.1f %.1f %.1f %.1f", per_s * quarters[0],
                  per_s * quarters[1], per_s * quarters[2],
                  per_s * quarters[3]));
  out.timing_metrics("query", summarize(query_ms));
  if (cfg.workload == "zipf_ingest") {
    out.timing_metrics("write", summarize(write_ms));
  } else {
    std::printf("timing %-30s n/a (this workload has no writes)\n", "write");
  }
  out.metric("error_rate",
             attempted ? static_cast<double>(acc.failed) / attempted : 0.0,
             "ratio", attempted, "failed / attempted operations");
  out.metric("recall_at_10", acc.recall_at_10, "ratio", checked.checked,
             "oracle-checked sampled requests");
  if (checked.checked == 0) out.check_failed("no sampled request was checked");
  out.metric("setup_s", median(setup), "s", setup.size(),
             "median of the set-up repeats");
  negative_control(checked, records, out);
}

// Calls `once(false)` setup_warmups times, then `once(true)` until it has
// run setup_repeats times and setup_span_s has passed.
void repeat_setup(const std::function<void(bool)>& once) {
  for (std::size_t r = 0; r < setup_warmups; ++r) once(false);
  const clock::time_point until =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(setup_span_s));
  for (std::size_t r = 0; r < setup_repeats || clock::now() < until; ++r) {
    once(true);
  }
}

// ---------------------------------------------------------------- scan_cold

void scan_cold(const config& cfg, const corpus& source, report& out) {
  const auto segment = cfg.data_dir / "corpus.bseg";
  source.write_segment(segment);
  std::vector<double> setup;
  const bes::image_database db = load_flat(segment, setup);

  const distinct_stream stream(source, cfg.seed, /*transform_invariant=*/true);
  const loop_shape shape{2, 16, std::numeric_limits<std::uint64_t>::max()};
  std::vector<bes::alphabet> names(shape.clients, pool_alphabet());
  window w = run_window(cfg, shape, [&](unsigned c, std::uint64_t i,
                                        client_log& log, bool timed) {
    request r = stream.at(i, names[c]);
    bes::query_options options = base_options();
    options.transform_invariant = r.transform_invariant;
    std::vector<bes::query_result> answer;
    timed_query(log, timed, [&] {
      answer = bes::search(db, r.image, options);
      return true;
    });
    if (timed && sampled(cfg.seed, i, shape.sample_rate)) {
      keep_sample(log, i, r.transform_invariant, answer);
    }
  });
  out.fact("clients", std::to_string(shape.clients));
  bes::alphabet query_names = pool_alphabet();
  report_window(
      cfg, w, source.strings(),
      [&](std::uint64_t i) { return stream.at(i, query_names).image; }, setup,
      out);
}

// -------------------------------------------------------------- zipf_ingest

void zipf_ingest(const config& cfg, const corpus& source, report& out) {
  const auto segment = cfg.data_dir / "corpus.bseg";
  source.write_segment(segment);
  std::vector<double> setup;
  bes::image_database db = load_flat(segment, setup);

  const zipf_ingest_stream stream(source, cfg.seed);
  bes::result_cache cache;  // the default: 4096 entries
  const std::size_t distinct = stream.distinct_pool_queries();
  out.fact("cache_capacity", std::to_string(cache.options().capacity));
  out.fact("pool_distinct_queries", std::to_string(distinct));
  if (distinct < 4 * cache.options().capacity) {
    out.check_failed("zipf pool has fewer than 4x the cache capacity in "
                     "distinct queries");
  }

  // Warm until the cache is full and evicting, so the window sees the
  // steady state: the working set is larger than the cache.
  std::atomic<std::uint64_t> warmup_evictions{0};
  const loop_shape shape{2, 64, stream.size(), [&] {
                           const std::uint64_t e = cache.stats().evictions;
                           warmup_evictions.store(e);
                           return e > 0;
                         }};
  std::vector<bes::alphabet> names(shape.clients, pool_alphabet());
  std::vector<std::array<std::uint64_t, 3>> outcomes(shape.clients);
  window w = run_window(cfg, shape, [&](unsigned c, std::uint64_t i,
                                        client_log& log, bool timed) {
    switch (zipf_ingest_stream::kind(i)) {
      case request::kind::query: {
        const bes::symbolic_image& query = stream.query(i);
        bes::db_snapshot snap;
        std::vector<bes::query_result> answer;
        bes::search_stats stats;
        timed_query(log, timed, [&] {
          snap = db.snapshot();
          const bes::be_string2d strings = bes::encode(query);
          const std::vector<bes::symbol_id> symbols =
              bes::distinct_symbols(query);
          answer = bes::search_cached(snap, cache, strings, symbols,
                                      base_options(), &stats);
          return true;
        });
        if (!timed) return;
        outcomes[c][0] += stats.cache_hits;
        outcomes[c][1] += stats.cache_delta_refreshes;
        outcomes[c][2] += stats.cache_misses;
        if (sampled(cfg.seed, i, shape.sample_rate)) {
          keep_sample(log, i, false, answer, snap);
        }
        return;
      }
      case request::kind::add: {
        bes::symbolic_image scene = stream.added_scene(i, names[c]);
        timed_write(log, timed, [&] {
          const bes::image_id id =
              db.add(zipf_ingest_stream::added_name(i), std::move(scene));
          log.added.emplace_back(id, i);
          return true;
        });
        return;
      }
      case request::kind::remove:
        timed_write(log, timed, [&] { return db.remove(stream.victim(i)); });
        return;
    }
  });

  // The oracle's records: its own encodings of the initial corpus and of
  // every scene the stream added, at the id the database assigned.
  std::vector<bes::be_string2d> records(db.size());
  std::copy(source.strings().begin(), source.strings().end(), records.begin());
  bes::alphabet oracle_names = pool_alphabet();
  for (const client_log& log : w.logs) {
    for (const auto& [id, i] : log.added) {
      records.at(id) = bes::encode(stream.added_scene(i, oracle_names));
    }
  }

  // Repeat share: window queries whose pool entry the stream (warm-up
  // included) had already requested — the hit ratio no cache can beat.
  std::vector<bool> seen(zipf_ingest_stream::pool_size, false);
  std::uint64_t window_queries = 0;
  std::uint64_t repeats = 0;
  for (std::uint64_t i = 0; i < w.end_index; ++i) {
    if (zipf_ingest_stream::kind(i) != request::kind::query) continue;
    const std::size_t p = stream.pool_index(i);
    if (i >= w.first_index) {
      ++window_queries;
      repeats += seen[p] ? 1 : 0;
    }
    seen[p] = true;
  }
  std::uint64_t hits = 0, refreshes = 0, misses = 0;
  for (const auto& o : outcomes) {
    hits += o[0];
    refreshes += o[1];
    misses += o[2];
  }
  const auto share = [&](std::uint64_t n) {
    return std::to_string(window_queries ? static_cast<double>(n) /
                                               static_cast<double>(window_queries)
                                         : 0.0);
  };
  out.fact("clients", std::to_string(shape.clients));
  out.fact("stream_repeat_share", share(repeats));
  out.fact("cache_hit_ratio", share(hits));
  out.fact("cache_delta_refresh_ratio", share(refreshes));
  out.fact("cache_miss_ratio", share(misses));
  const std::uint64_t warm_evictions = warmup_evictions.load();
  out.fact("cache_evictions",
           format("%llu in the window, %llu in warm-up",
                  static_cast<unsigned long long>(cache.stats().evictions -
                                                  warm_evictions),
                  static_cast<unsigned long long>(warm_evictions)));
  report_window(
      cfg, w, records, [&](std::uint64_t i) { return stream.query(i); }, setup,
      out);
}

// ------------------------------------------------------------ fleet_scatter

void fleet_scatter(const config& cfg, const corpus& source, report& out) {
  const auto dir = cfg.data_dir / "corpus.scrp";
  source.write_sharded(dir);
  std::vector<double> load;
  std::vector<double> start;
  const fleet f = open_fleet(dir, load, start);
  std::vector<double> setup;
  for (std::size_t r = 0; r < load.size(); ++r) {
    setup.push_back(load[r] + start[r]);
  }

  const distinct_stream stream(source, cfg.seed, /*transform_invariant=*/false);
  const loop_shape shape{1, 32, std::numeric_limits<std::uint64_t>::max()};
  bes::alphabet names = pool_alphabet();
  bes::query_options options = fleet_options();
  window w = run_window(cfg, shape, [&](unsigned, std::uint64_t i,
                                        client_log& log, bool timed) {
    request r = stream.at(i, names);
    bes::net::remote_result answer;
    timed_query(log, timed, [&] {
      const bes::be_string2d strings = bes::encode(r.image);
      const std::vector<bes::symbol_id> symbols =
          bes::distinct_symbols(r.image);
      answer = f.cluster->front().search(strings, symbols, options);
      return !answer.stats.degraded;
    });
    if (timed && sampled(cfg.seed, i, shape.sample_rate)) {
      keep_sample(log, i, false, answer.results);
    }
  });
  out.fact("clients", std::to_string(shape.clients));
  out.fact("shards", std::to_string(fleet_shards));
  out.fact("setup_split", format("load_sharded_corpus %.4f s + cluster start "
                                 "%.4f s (medians)",
                                 median(load), median(start)));
  bes::alphabet query_names = pool_alphabet();
  report_window(
      cfg, w, source.strings(),
      [&](std::uint64_t i) { return stream.at(i, query_names).image; }, setup,
      out);
}

}  // namespace

bes::query_options base_options() {
  bes::query_options options;
  options.top_k = top_k;
  return options;
}

bes::image_database load_flat(const std::filesystem::path& segment,
                              std::vector<double>& seconds) {
  bes::image_database db;
  repeat_setup([&](bool timed) {
    db = bes::image_database{};
    const clock::time_point t0 = clock::now();
    db = bes::load_segment(segment);
    if (timed) seconds.push_back(ms_between(t0, clock::now()) / 1e3);
  });
  return db;
}

bes::query_options fleet_options() {
  bes::query_options options = base_options();
  options.histogram_pruning = true;  // what makes gossip engage
  return options;
}

fleet open_fleet(const std::filesystem::path& dir,
                 std::vector<double>& load_seconds,
                 std::vector<double>& start_seconds) {
  fleet f;
  repeat_setup([&](bool timed) {
    f.cluster.reset();
    f.db.reset();
    const clock::time_point t0 = clock::now();
    f.db = std::make_unique<bes::sharded_database>(
        bes::load_sharded_corpus(dir));
    const clock::time_point t1 = clock::now();
    bes::net::server_options server;
    server.scan_threads = 1;
    bes::net::coordinator_options coordinator;
    coordinator.gossip = true;
    coordinator.cache_entries = 0;  // off, as for besdb connect
    f.cluster = std::make_unique<bes::net::loopback_cluster>(*f.db, server,
                                                             coordinator);
    const clock::time_point t2 = clock::now();
    if (timed) {
      load_seconds.push_back(ms_between(t0, t1) / 1e3);
      start_seconds.push_back(ms_between(t1, t2) / 1e3);
    }
  });
  return f;
}

void run_end_to_end(const config& cfg, const corpus& source, report& out) {
  if (cfg.workload == "scan_cold") {
    scan_cold(cfg, source, out);
  } else if (cfg.workload == "zipf_ingest") {
    zipf_ingest(cfg, source, out);
  } else {
    fleet_scatter(cfg, source, out);
  }
  out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "ru_maxrss of this process");
}

}  // namespace perfbench

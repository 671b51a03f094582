// The traced run: one client replays each workload's request stream, a
// third of --seconds each. Every request goes twice through the program:
// once through the real entry point, untraced (its latency is the
// denominator of trace.coverage), and once through the layer functions the
// entry point is made of, called from here in path order with a span around
// each call. The decomposed answer must equal the entry point's. Spans are
// kept in memory and written out when the run ends; each layer is reported
// by its self time (span duration minus the time its child spans cover).
//
// Which stream measures which layer:
//   scan_cold      core encode, access path generation, the LCS scan, and
//                  an off-path planner probe (plan_query + search_planned)
//   zipf_ingest    encode, then search_cached itself (hits, refreshes and
//                  misses from its own search_stats), an off-path probe of
//                  the cache's key and lookup calls, and ingest writes
//   fleet_scatter  the coordinator round trip, with an off-path probe of
//                  the shard-local, in-process sharded and flat searches
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/encoder.hpp"
#include "db/access_path.hpp"
#include "db/hybrid_index.hpp"
#include "db/planner.hpp"
#include "db/result_cache.hpp"
#include "db/segment.hpp"
#include "db/spatial_index.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

// ------------------------------------------------------------------- spans

struct span {
  std::uint32_t request = 0;
  std::uint32_t name = 0;  // index into tracer::names_
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class tracer {
 public:
  class scope {
   public:
    scope(tracer& t, int index) : t_(t), index_(index) {}
    ~scope() { t_.end(index_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;
    [[nodiscard]] int index() const noexcept { return index_; }

   private:
    tracer& t_;
    int index_;
  };

  // A new request id, tagged with the workload whose stream it came from.
  std::uint32_t new_request(const std::string& workload) {
    workloads_.push_back(workload);
    untraced_ms_.push_back(0.0);
    return static_cast<std::uint32_t>(workloads_.size() - 1);
  }
  // The latency of the same request through the real entry point.
  void set_untraced(std::uint32_t request, double ms) {
    untraced_ms_[request] = ms;
  }
  int begin(std::uint32_t request, std::string_view name, int parent) {
    spans_.push_back({request, intern(name), parent, now_ns(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  scope in(std::uint32_t request, std::string_view name, int parent) {
    return scope(*this, begin(request, name, parent));
  }

  // Self time (us) of every span named `name` on requests of `workload`.
  [[nodiscard]] std::vector<double> self_us(const std::string& workload,
                                            std::string_view name) const {
    const std::vector<double> self = self_times_us();
    std::vector<double> out;
    for (std::size_t s = 0; s < spans_.size(); ++s) {
      if (names_[spans_[s].name] == name &&
          workloads_[spans_[s].request] == workload) {
        out.push_back(self[s]);
      }
    }
    return out;
  }
  // Per request of `workload` whose root span is named `root`: the summed
  // duration of the root's child spans over the untraced latency.
  [[nodiscard]] std::vector<double> coverage(const std::string& workload,
                                             std::string_view root) const {
    std::vector<double> covered(workloads_.size(), 0.0);
    std::vector<bool> has_root(workloads_.size(), false);
    for (const span& s : spans_) {
      if (s.parent < 0) {
        if (names_[s.name] == root) has_root[s.request] = true;
        continue;
      }
      const span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (p.parent < 0 && names_[p.name] == root) {
        covered[s.request] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    std::vector<double> out;
    for (std::size_t r = 0; r < workloads_.size(); ++r) {
      if (has_root[r] && workloads_[r] == workload && untraced_ms_[r] > 0.0) {
        out.push_back(covered[r] / untraced_ms_[r]);
      }
    }
    return out;
  }
  // Root-span durations (ms) of `workload`'s requests named `root`.
  [[nodiscard]] std::vector<double> root_ms(const std::string& workload,
                                            std::string_view root) const {
    std::vector<double> out;
    for (const span& s : spans_) {
      if (s.parent < 0 && names_[s.name] == root &&
          workloads_[s.request] == workload) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    return out;
  }
  [[nodiscard]] std::vector<double> untraced_ms(
      const std::string& workload) const {
    std::vector<double> out;
    for (std::size_t r = 0; r < workloads_.size(); ++r) {
      if (workloads_[r] == workload && untraced_ms_[r] > 0.0) {
        out.push_back(untraced_ms_[r]);
      }
    }
    return out;
  }

  // request,workload,span,name,parent,start_ns,end_ns — one line per span.
  void write(const std::filesystem::path& path) const {
    std::ofstream out(path);
    out << "request,workload,span,name,parent,start_ns,end_ns\n";
    for (std::size_t s = 0; s < spans_.size(); ++s) {
      const span& sp = spans_[s];
      out << sp.request << ',' << workloads_[sp.request] << ',' << s << ','
          << names_[sp.name] << ',' << sp.parent << ',' << sp.start_ns << ','
          << sp.end_ns << '\n';
    }
  }
  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.size(); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                origin_)
        .count();
  }
  std::uint32_t intern(std::string_view name) {
    for (std::size_t n = 0; n < names_.size(); ++n) {
      if (names_[n] == name) return static_cast<std::uint32_t>(n);
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  std::vector<double> self_times_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t s = 0; s < spans_.size(); ++s) {
      self[s] = static_cast<double>(spans_[s].end_ns - spans_[s].start_ns) / 1e3;
    }
    for (const span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -=
            static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    return self;
  }

  clock::time_point origin_ = clock::now();
  std::vector<span> spans_;
  std::vector<std::string> names_;
  std::vector<std::string> workloads_;  // by request id
  std::vector<double> untraced_ms_;     // by request id
};

// ----------------------------------------------------------------- helpers

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<bes::query_result> rank_top_k(std::vector<bes::query_result> hits) {
  std::sort(hits.begin(), hits.end(), ranks_before);
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

// Answers the decomposed path gave that differ from the entry point's, out
// of the requests replayed, per workload; plus the oracle samples.
struct replay_tally {
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  std::vector<sample> samples;

  void compare(bool same, std::uint64_t i, const char* workload) {
    ++requests;
    if (same) return;
    ++mismatches;
    if (mismatches <= 3) {
      std::printf("trace: %s request %llu: decomposed answer differs from "
                  "the entry point's\n",
                  workload, static_cast<unsigned long long>(i));
    }
  }
};

clock::time_point after(double seconds) {
  return clock::now() + std::chrono::duration_cast<clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::uintmax_t bytes_under(const std::filesystem::path& path) {
  if (std::filesystem::is_regular_file(path)) {
    return std::filesystem::file_size(path);
  }
  std::uintmax_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(path)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// --------------------------------------------------------------- scan_cold

struct scan_counts {
  std::vector<double> candidates;
  std::vector<double> scored;
  std::vector<double> estimate_ratio;
  std::vector<double> planned_recall;
};

void replay_scan_cold(const config& cfg, const corpus& source,
                      const bes::image_database& db,
                      const bes::planner_context& planner, tracer& tr,
                      replay_tally& tally, scan_counts& counts,
                      double seconds) {
  const std::string w = "scan_cold";
  const distinct_stream stream(source, cfg.seed, /*transform_invariant=*/true);
  bes::alphabet names = pool_alphabet();
  const bes::access_path_context paths{planner.db, planner.spatial,
                                       planner.hybrid};
  const clock::time_point deadline = after(seconds);
  for (std::uint64_t i = 0; clock::now() < deadline; ++i) {
    request r = stream.at(i, names);
    bes::query_options options = base_options();
    options.transform_invariant = r.transform_invariant;

    std::vector<bes::query_result> entry;
    auto run_entry = [&] {
      const clock::time_point t0 = clock::now();
      entry = bes::search(db, r.image, options);
      return ms_between(t0, clock::now());
    };
    // The passes alternate which runs first: the second of two identical
    // back-to-back queries finds the records it scans already in cache.
    const std::uint32_t req = tr.new_request(w);
    if (i % 2 == 0) tr.set_untraced(req, run_entry());
    const int root = tr.begin(req, "request", -1);
    bes::be_string2d strings;
    std::vector<bes::symbol_id> symbols;
    {
      auto s = tr.in(req, "encode", root);
      strings = bes::encode(r.image);
      symbols = bes::distinct_symbols(r.image);
    }
    std::vector<bes::image_id> ids;
    {
      auto s = tr.in(req, "generate", root);
      ids = db.candidates(symbols);
    }
    bes::search_stats stats;
    std::vector<bes::query_result> decomposed;
    const int scan = tr.begin(req, "scan", root);
    decomposed = bes::search_candidates(db, strings, ids, options, &stats);
    tr.end(scan);
    tr.end(root);
    if (i % 2 == 1) tr.set_untraced(req, run_entry());
    tally.compare(decomposed == entry, i, "scan_cold");

    counts.candidates.push_back(static_cast<double>(ids.size()));
    counts.scored.push_back(static_cast<double>(stats.scored));

    // Off-path probe: the planner, which no default path calls yet.
    const int probe = tr.begin(req, "probe", -1);
    bes::access_plan plan;
    {
      auto s = tr.in(req, "plan", probe);
      plan = bes::plan_query(planner, r.image, symbols, options);
    }
    tr.end(probe);
    const std::size_t actual =
        bes::make_access_path(plan.path, paths)
            ->generate(bes::path_probe{&r.image, symbols, plan.pad})
            .size();
    counts.estimate_ratio.push_back(
        ratio(static_cast<double>(plan.estimated_candidates),
              static_cast<double>(std::max<std::size_t>(actual, 1))));
    const std::vector<bes::query_result> planned =
        bes::search_planned(planner, r.image, strings, symbols, options);
    counts.planned_recall.push_back(check_answer(planned, entry).recall);

    if (sampled(cfg.seed, i, 16)) {
      sample smp;
      smp.index = i;
      smp.query = std::move(r.image);
      smp.transform_invariant = r.transform_invariant;
      smp.answer = entry;
      smp.visible = corpus_images;
      tally.samples.push_back(std::move(smp));
    }
  }
}

// ------------------------------------------------------------- zipf_ingest

struct zipf_counts {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t rescored = 0;
  std::uint64_t evictions = 0;
  std::uint64_t repeats = 0;
  std::vector<double> refresh_us;  // search_cached latency of each refresh
};

// One twin of the zipf state: a database and its result cache.
struct twin {
  bes::image_database db;
  bes::result_cache cache;
};

// Applies request i through the real entry points (warm-up of both twins);
// appends (id, i) of an add to `added` when set.
void apply_entry(twin& t, const zipf_ingest_stream& stream, std::uint64_t i,
                 bes::alphabet& names,
                 std::vector<std::pair<bes::image_id, std::uint64_t>>* added) {
  switch (zipf_ingest_stream::kind(i)) {
    case request::kind::query: {
      const bes::symbolic_image& q = stream.query(i);
      (void)bes::search_cached(t.db.snapshot(), t.cache, bes::encode(q),
                               bes::distinct_symbols(q), base_options());
      return;
    }
    case request::kind::add: {
      const bes::image_id id = t.db.add(zipf_ingest_stream::added_name(i),
                                        stream.added_scene(i, names));
      if (added != nullptr) added->emplace_back(id, i);
      return;
    }
    case request::kind::remove:
      (void)t.db.remove(stream.victim(i));
      return;
  }
}

// Each query runs through search_cached on both twins: untraced on the real
// one, and on the traced one after an encode span, inside a span of its
// own. Hits, refreshes, misses and the rescored count come from the real
// call's search_stats, so they are the library's own accounting. Before the
// traced call an off-path probe times the cache's public key and lookup
// calls. A lookup promotes an entry the way the lookup inside search_cached
// then repeats, so the probe leaves both twins in the same state.
void replay_zipf_ingest(const config& cfg, const zipf_ingest_stream& stream,
                        twin& real, twin& traced, std::uint64_t warmup,
                        tracer& tr, replay_tally& tally, zipf_counts& counts,
                        std::vector<std::pair<bes::image_id, std::uint64_t>>& added,
                        double seconds) {
  const std::string w = "zipf_ingest";
  const bes::query_options options = base_options();
  bes::alphabet names = pool_alphabet();
  std::vector<bool> seen(zipf_ingest_stream::pool_size, false);
  for (std::uint64_t i = 0; i < warmup; ++i) {
    if (zipf_ingest_stream::kind(i) == request::kind::query) {
      seen[stream.pool_index(i)] = true;
    }
  }
  const std::uint64_t evictions_before = real.cache.stats().evictions;
  const clock::time_point deadline = after(seconds);
  for (std::uint64_t i = warmup; i < stream.size() && clock::now() < deadline;
       ++i) {
    switch (zipf_ingest_stream::kind(i)) {
      case request::kind::query: {
        const bes::symbolic_image& q = stream.query(i);
        bes::search_stats stats;
        const clock::time_point t0 = clock::now();
        const bes::be_string2d encoded = bes::encode(q);
        const std::vector<bes::symbol_id> distinct = bes::distinct_symbols(q);
        const clock::time_point t1 = clock::now();
        const bes::db_snapshot snap = real.db.snapshot();
        const std::vector<bes::query_result> entry = bes::search_cached(
            snap, real.cache, encoded, distinct, options, &stats);
        const clock::time_point t2 = clock::now();

        const std::uint32_t req = tr.new_request(w);
        tr.set_untraced(req, ms_between(t0, t2));
        const int probe = tr.begin(req, "probe", -1);
        bes::cache_key key;
        {
          auto sp = tr.in(req, "cache.key", probe);
          key = bes::make_cache_key(encoded, distinct, options,
                                    bes::cache_scope::flat,
                                    /*shard_count=*/1, /*ring_replicas=*/0);
        }
        bool found = false;
        {
          auto sp = tr.in(req, "cache.find", probe);
          found = traced.cache.find(key).has_value();
        }
        tr.end(probe);

        const int root = tr.begin(req, "request", -1);
        bes::be_string2d strings;
        std::vector<bes::symbol_id> symbols;
        {
          auto sp = tr.in(req, "encode", root);
          strings = bes::encode(q);
          symbols = bes::distinct_symbols(q);
        }
        bes::search_stats traced_stats;
        std::vector<bes::query_result> answer;
        {
          auto sp = tr.in(req, "search_cached", root);
          answer = bes::search_cached(traced.db.snapshot(), traced.cache,
                                      strings, symbols, options,
                                      &traced_stats);
        }
        tr.end(root);
        // Same answer and outcome on both twins, and the probe's key finds
        // every entry search_cached served from the cache.
        const bool same_outcome =
            stats.cache_hits == traced_stats.cache_hits &&
            stats.cache_delta_refreshes == traced_stats.cache_delta_refreshes &&
            stats.cache_misses == traced_stats.cache_misses;
        const bool key_agrees = found || traced_stats.cache_misses == 1;
        tally.compare(answer == entry && same_outcome && key_agrees, i,
                      "zipf_ingest");

        ++counts.queries;
        counts.hits += stats.cache_hits;
        counts.refreshes += stats.cache_delta_refreshes;
        counts.rescored += stats.cache_delta_rescored;
        if (stats.cache_delta_refreshes == 1) {
          counts.refresh_us.push_back(ms_between(t1, t2) * 1e3);
        }
        counts.repeats += seen[stream.pool_index(i)] ? 1 : 0;
        seen[stream.pool_index(i)] = true;
        if (sampled(cfg.seed, i, 64)) {
          sample smp;
          smp.index = i;
          smp.query = q;
          smp.answer = entry;
          smp.visible = snap.visible;
          smp.alive = [snap](bes::image_id id) { return snap.alive(id); };
          tally.samples.push_back(std::move(smp));
        }
        break;
      }
      case request::kind::add: {
        const std::string name = zipf_ingest_stream::added_name(i);
        bes::symbolic_image scene = stream.added_scene(i, names);
        const clock::time_point t0 = clock::now();
        const bes::image_id id = real.db.add(name, scene);
        const double untraced = ms_between(t0, clock::now());
        added.emplace_back(id, i);

        const std::uint32_t req = tr.new_request(w);
        tr.set_untraced(req, untraced);
        const int root = tr.begin(req, "write", -1);
        bes::be_string2d strings;
        {
          auto s = tr.in(req, "ingest.encode", root);
          strings = bes::encode(scene);
        }
        bes::image_id traced_id = 0;
        {
          auto s = tr.in(req, "ingest.add_encoded", root);
          traced_id = traced.db.add_encoded(name, std::move(scene),
                                            std::move(strings));
        }
        tr.end(root);
        tally.compare(traced_id == id, i, "zipf_ingest");
        break;
      }
      case request::kind::remove: {
        const bes::image_id victim = stream.victim(i);
        const clock::time_point t0 = clock::now();
        const bool removed = real.db.remove(victim);
        const double untraced = ms_between(t0, clock::now());

        const std::uint32_t req = tr.new_request(w);
        tr.set_untraced(req, untraced);
        const int root = tr.begin(req, "write", -1);
        bool traced_removed = false;
        {
          auto s = tr.in(req, "ingest.remove", root);
          traced_removed = traced.db.remove(victim);
        }
        tr.end(root);
        tally.compare(removed && traced_removed, i, "zipf_ingest");
        break;
      }
    }
  }
  counts.evictions = real.cache.stats().evictions - evictions_before;
}

// ----------------------------------------------------------- fleet_scatter

struct fleet_counts {
  std::vector<double> slowest_us;
  std::vector<double> skew;
  std::vector<double> scored_ratio;
  std::vector<double> overhead_us;
  std::vector<double> gossip_ratio;
  std::uint64_t scanned = 0;
  std::uint64_t pruned = 0;
  std::uint64_t scored = 0;
  std::uint64_t band_rejected = 0;
};

void replay_fleet_scatter(const config& cfg, const corpus& source,
                          const fleet& f, const bes::image_database& flat,
                          tracer& tr, replay_tally& tally,
                          fleet_counts& counts, double seconds) {
  const std::string w = "fleet_scatter";
  const distinct_stream stream(source, cfg.seed, /*transform_invariant=*/false);
  bes::alphabet names = pool_alphabet();
  const bes::query_options options = fleet_options();
  bes::net::coordinator& coordinator = f.cluster->front();
  const clock::time_point deadline = after(seconds);
  for (std::uint64_t i = 0; clock::now() < deadline; ++i) {
    request r = stream.at(i, names);

    bes::net::remote_result entry;
    auto run_entry = [&] {
      const clock::time_point t0 = clock::now();
      entry = coordinator.search(bes::encode(r.image),
                                 bes::distinct_symbols(r.image), options);
      return ms_between(t0, clock::now());
    };
    // Alternating pass order, as in the scan_cold replay.
    const std::uint32_t req = tr.new_request(w);
    if (i % 2 == 0) tr.set_untraced(req, run_entry());
    const int root = tr.begin(req, "request", -1);
    bes::be_string2d strings;
    std::vector<bes::symbol_id> symbols;
    {
      auto s = tr.in(req, "encode", root);
      strings = bes::encode(r.image);
      symbols = bes::distinct_symbols(r.image);
    }
    const int net = tr.begin(req, "net.search", root);
    const bes::net::remote_result remote =
        coordinator.search(strings, symbols, options);
    tr.end(net);
    tr.end(root);
    if (i % 2 == 1) tr.set_untraced(req, run_entry());

    // Off-path probe: each shard's own search, as a shard server runs it
    // (minus the gossiped floor), merged by global id.
    const int probe = tr.begin(req, "probe", -1);
    std::vector<bes::query_result> merged;
    std::vector<double> shard_us;
    std::uint64_t shard_scored = 0;
    for (std::size_t s = 0; s < f.db->shard_count(); ++s) {
      bes::search_stats stats;
      const clock::time_point s0 = clock::now();
      std::vector<bes::query_result> local;
      {
        auto sp = tr.in(req, "shard.search", probe);
        local = bes::search(f.db->shard_db(s), strings, symbols, options,
                            &stats);
      }
      shard_us.push_back(ms_between(s0, clock::now()) * 1e3);
      shard_scored += stats.scored;
      const auto& globals = f.db->shard_global_ids(s);
      for (bes::query_result& hit : local) {
        hit.id = globals[hit.id];
        merged.push_back(hit);
      }
    }
    tr.end(probe);
    merged = rank_top_k(std::move(merged));
    tally.compare(!entry.stats.degraded && !remote.stats.degraded &&
                      remote.results == entry.results &&
                      merged == remote.results,
                  i, "fleet_scatter");

    bes::search_stats flat_stats;
    (void)bes::search(flat, strings, symbols, options, &flat_stats);
    bes::search_stats sharded_stats;
    (void)bes::search(*f.db, strings, symbols, options, &sharded_stats);

    const double slowest = *std::max_element(shard_us.begin(), shard_us.end());
    double mean = 0.0;
    for (double us : shard_us) mean += us / static_cast<double>(shard_us.size());
    counts.slowest_us.push_back(slowest);
    counts.skew.push_back(ratio(slowest, mean));
    counts.scored_ratio.push_back(ratio(static_cast<double>(shard_scored),
                                        static_cast<double>(flat_stats.scored)));
    counts.gossip_ratio.push_back(
        ratio(static_cast<double>(remote.stats.scored),
              static_cast<double>(sharded_stats.scored)));
    counts.scanned += remote.stats.scanned;
    counts.pruned += remote.stats.pruned;
    counts.scored += remote.stats.scored;
    counts.band_rejected += remote.stats.band_rejected;

    if (sampled(cfg.seed, i, 32)) {
      sample smp;
      smp.index = i;
      smp.query = std::move(r.image);
      smp.answer = entry.results;
      smp.visible = corpus_images;
      tally.samples.push_back(std::move(smp));
    }
  }
  // net.overhead_us pairs each request's net.search span with its slowest
  // shard-local search.
  const std::vector<double> net_us = tr.self_us(w, "net.search");
  for (std::size_t k = 0; k < net_us.size() && k < counts.slowest_us.size();
       ++k) {
    counts.overhead_us.push_back(net_us[k] - counts.slowest_us[k]);
  }
}

void layer_metric(report& out, const std::string& name,
                  const std::vector<double>& values, const std::string& unit,
                  const std::string& note) {
  out.metric(name, median(values), unit, values.size(), note);
}

}  // namespace

void run_traced(const config& cfg, const corpus& source, report& out) {
  // ---- set-up: every workload's store, opened as its end-to-end run does.
  const auto segment = cfg.data_dir / "corpus.bseg";
  const auto sharded = cfg.data_dir / "corpus.scrp";
  source.write_segment(segment);
  source.write_sharded(sharded);

  std::vector<double> flat_load;
  const bes::image_database flat = load_flat(segment, flat_load);
  std::vector<double> fleet_load;
  std::vector<double> fleet_start;
  const fleet f = open_fleet(sharded, fleet_load, fleet_start);
  const bes::spatial_index spatial(flat);
  const bes::hybrid_index hybrid(flat);
  const bes::planner_context planner{&flat, &spatial, &hybrid};

  const bool is_fleet = cfg.workload == "fleet_scatter";
  layer_metric(out, "load.s", is_fleet ? fleet_load : flat_load, "s",
               is_fleet ? "load_sharded_corpus" : "load_segment");
  layer_metric(out, "fleet.start_s", fleet_start, "s",
               "loopback_cluster construction");
  out.metric("store.bytes_per_image",
             static_cast<double>(bytes_under(is_fleet ? sharded : segment)) /
                 static_cast<double>(corpus_images),
             "B", corpus_images, is_fleet ? "SCRP1 corpus" : "BSEG1 segment");

  // Two identical zipf states, the real twin and the traced one, each
  // warmed by one thread replaying the stream in order until its cache is
  // full and evicting, so the replay sees the steady state. Replayed alike,
  // the twins stop at the same request in the same state.
  const zipf_ingest_stream zipf(source, cfg.seed);
  twin real{bes::load_segment(segment), bes::result_cache{}};
  twin traced{bes::load_segment(segment), bes::result_cache{}};
  // Every record the real twin adds, warm-up included, for the oracle.
  std::vector<std::pair<bes::image_id, std::uint64_t>> added;
  std::uint64_t zipf_warmup[2] = {0, 0};
  {
    twin* twins[2] = {&real, &traced};
    (void)closed_loop(2, 0, 2, clock::time_point::max(),
                      [&](unsigned, std::uint64_t k) {
                        twin& t = *twins[k];
                        bes::alphabet names = pool_alphabet();
                        std::uint64_t i = 0;
                        while (i < zipf.size() &&
                               t.cache.stats().evictions == 0) {
                          apply_entry(t, zipf, i++, names,
                                      k == 0 ? &added : nullptr);
                        }
                        zipf_warmup[k] = i;
                      });
  }
  if (zipf_warmup[0] != zipf_warmup[1] || zipf_warmup[0] >= zipf.size()) {
    throw std::runtime_error("zipf twins did not warm up alike");
  }
  out.fact("trace.zipf_warmup_requests", std::to_string(zipf_warmup[0]));

  // ---- replays, a third of the window each.
  tracer tr;
  replay_tally scan_tally, zipf_tally, fleet_tally;
  scan_counts scan;
  zipf_counts cache;
  fleet_counts shards;
  const double slice = cfg.seconds / 3.0;
  replay_scan_cold(cfg, source, flat, planner, tr, scan_tally, scan, slice);
  replay_fleet_scatter(cfg, source, f, flat, tr, fleet_tally, shards, slice);
  replay_zipf_ingest(cfg, zipf, real, traced, zipf_warmup[0], tr, zipf_tally,
                     cache, added, slice);
  if (!cfg.trace_out.empty()) tr.write(cfg.trace_out);

  // ---- answers: decomposed vs entry point, and entry point vs oracle.
  std::vector<bes::be_string2d> zipf_records(real.db.size());
  std::copy(source.strings().begin(), source.strings().end(),
            zipf_records.begin());
  bes::alphabet oracle_names = pool_alphabet();
  for (const auto& [id, i] : added) {
    zipf_records.at(id) = bes::encode(zipf.added_scene(i, oracle_names));
  }
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  sample_summary checked;
  std::span<const bes::be_string2d> control_records;  // of checked.control
  for (auto* t : {&scan_tally, &zipf_tally, &fleet_tally}) {
    const std::span<const bes::be_string2d> records =
        t == &zipf_tally ? std::span<const bes::be_string2d>(zipf_records)
                         : source.strings();
    const sample_summary part = check_samples(t->samples, records);
    if (!checked.control && part.control) control_records = records;
    checked += part;
    requests += t->requests;
    mismatches += t->mismatches;
  }
  negative_control(checked, control_records, out);
  const std::uint64_t oracle_failures = checked.mismatched;
  out.count_operations(requests, fold_accuracy(checked, mismatches).failed);
  out.fact("trace.requests",
           format("%llu (scan_cold %llu, zipf_ingest %llu, fleet_scatter %llu)",
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(scan_tally.requests),
                  static_cast<unsigned long long>(zipf_tally.requests),
                  static_cast<unsigned long long>(fleet_tally.requests)));
  out.fact("trace.spans", format("%zu written to %s", tr.span_count(),
                                 cfg.trace_out.c_str()));
  out.metric("trace.identical_ratio",
             ratio(static_cast<double>(requests - mismatches),
                   static_cast<double>(requests)),
             "ratio", requests,
             "decomposed answers equal to the entry point's");
  if (oracle_failures > 0) {
    out.fact("trace.oracle_failures", std::to_string(oracle_failures));
  }

  // ---- coverage and tracing overhead, per workload.
  for (const char* w : workload_names) {
    std::vector<double> cov = tr.coverage(w, "request");
    const std::vector<double> writes = tr.coverage(w, "write");
    cov.insert(cov.end(), writes.begin(), writes.end());
    out.fact(format("trace.%s", w),
             format("coverage median %.3f (n=%zu); traced request median "
                    "%.4f ms vs untraced %.4f ms",
                    median(cov), cov.size(), median(tr.root_ms(w, "request")),
                    median(tr.untraced_ms(w))));
    if (cfg.workload == w) {
      out.metric("trace.coverage", median(cov), "ratio", cov.size(),
                 "layer spans / untraced latency, this workload's stream");
    }
  }

  // ---- per-layer metrics, each on the stream whose path exercises it.
  const std::string sc = "scan_cold";
  const std::string zi = "zipf_ingest";
  const std::string fs = "fleet_scatter";
  layer_metric(out, "encode.us", tr.self_us(zi, "encode"), "us",
               "encode + distinct_symbols, zipf_ingest");
  layer_metric(out, "cache.key_us", tr.self_us(zi, "cache.key"), "us",
               "make_cache_key");
  layer_metric(out, "cache.find_us", tr.self_us(zi, "cache.find"), "us",
               "result_cache::find");
  const double q = static_cast<double>(cache.queries);
  out.metric("cache.hit_ratio", ratio(static_cast<double>(cache.hits), q),
             "ratio", cache.queries,
             format("stream repeat share %.4f",
                    ratio(static_cast<double>(cache.repeats), q)));
  out.metric("cache.delta_refresh_ratio",
             ratio(static_cast<double>(cache.refreshes), q), "ratio",
             cache.queries);
  out.metric("cache.evictions_per_1k",
             ratio(1000.0 * static_cast<double>(cache.evictions), q), "count",
             cache.queries);
  layer_metric(out, "cache.refresh_us", cache.refresh_us, "us",
               "search_cached latency of the requests it delta-refreshed");
  out.metric("cache.delta_rescored_per_refresh",
             ratio(static_cast<double>(cache.rescored),
                   static_cast<double>(cache.refreshes)),
             "count", cache.refreshes);
  layer_metric(out, "ingest.encode_us", tr.self_us(zi, "ingest.encode"), "us",
               "encode of an added scene");
  layer_metric(out, "ingest.add_encoded_us",
               tr.self_us(zi, "ingest.add_encoded"), "us",
               "image_database::add_encoded");
  layer_metric(out, "ingest.remove_us", tr.self_us(zi, "ingest.remove"), "us",
               "image_database::remove");

  layer_metric(out, "generate.us", tr.self_us(sc, "generate"), "us",
               "image_database::candidates, scan_cold");
  layer_metric(out, "generate.candidates", scan.candidates, "count", "");
  std::vector<double> selectivity = scan.candidates;
  for (double& c : selectivity) c /= static_cast<double>(corpus_images);
  layer_metric(out, "generate.selectivity", selectivity, "ratio",
               "candidates / corpus");
  layer_metric(out, "plan.us", tr.self_us(sc, "plan"), "us",
               "plan_query (off the default path)");
  layer_metric(out, "plan.estimate_ratio", scan.estimate_ratio, "ratio",
               "estimated / generated candidates of the chosen path");
  std::vector<double> planned_recall = scan.planned_recall;
  double recall_sum = 0.0;
  for (double r : planned_recall) recall_sum += r;
  out.metric("plan.recall_at_10",
             ratio(recall_sum, static_cast<double>(planned_recall.size())),
             "ratio", planned_recall.size(),
             "search_planned top-10 vs search() top-10");
  const std::vector<double> scan_us = tr.self_us(sc, "scan");
  layer_metric(out, "scan.us", scan_us, "us", "search_candidates, scan_cold");
  layer_metric(out, "scan.scored", scan.scored, "count", "LCS evaluations");
  std::vector<double> ns_per_scored;
  for (std::size_t k = 0; k < scan_us.size() && k < scan.scored.size(); ++k) {
    if (scan.scored[k] > 0) ns_per_scored.push_back(1e3 * scan_us[k] / scan.scored[k]);
  }
  layer_metric(out, "scan.ns_per_scored", ns_per_scored, "ns", "");
  out.metric("scan.pruned_ratio",
             ratio(static_cast<double>(shards.pruned),
                   static_cast<double>(shards.scanned)),
             "ratio", fleet_tally.requests, "fleet: pruned / scanned");
  out.metric("scan.band_rejected_ratio",
             ratio(static_cast<double>(shards.band_rejected),
                   static_cast<double>(shards.scored)),
             "ratio", fleet_tally.requests, "fleet: band_rejected / scored");

  layer_metric(out, "shard.slowest_us", shards.slowest_us, "us",
               "slowest of the shard-local searches");
  layer_metric(out, "shard.skew", shards.skew, "ratio", "slowest / mean shard");
  layer_metric(out, "shard.scored_ratio", shards.scored_ratio, "ratio",
               "summed shard scored / flat scored");
  layer_metric(out, "net.search_us", tr.self_us(fs, "net.search"), "us",
               "coordinator::search");
  layer_metric(out, "net.overhead_us", shards.overhead_us, "us",
               "net.search - shard.slowest");
  layer_metric(out, "net.gossip_scored_ratio", shards.gossip_ratio, "ratio",
               "fleet scored / in-process sharded scored");
}

}  // namespace perfbench

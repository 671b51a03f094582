// Seeded corpus and request streams. Every input is a pure function of
// --seed: each consumer draws from its own derive_seed stream, so the same
// seed reproduces the same corpus and requests in any process, and request i
// never depends on which client issued it or when.
#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "core/encoder.hpp"
#include "db/segment.hpp"
#include "db/shard_storage.hpp"
#include "lcs/token_histogram.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

namespace {

// derive_seed stream numbers, one per consumer of the master seed.
enum purpose : std::uint64_t {
  corpus_scenes = 1,
  scan_requests = 2,
  fleet_requests = 3,
  zipf_pool = 4,
  zipf_adds = 5,
  zipf_removals = 6,
  oracle_sample = 7,
};

std::uint64_t stream_seed(std::uint64_t seed, purpose p) noexcept {
  return bes::derive_seed(seed, p);
}

bes::scene_params scene_shape() {
  bes::scene_params p;
  p.width = domain;
  p.height = domain;
  p.object_count = objects_per_image;
  p.symbol_pool = symbol_pool;
  return p;
}

bes::symbolic_image scene_from(std::uint64_t seed, bes::alphabet& names) {
  bes::rng r(seed);
  return bes::random_scene(scene_shape(), r, names);
}

bes::distortion_params query_distortion(std::uint64_t seed) {
  bes::distortion_params d;
  d.keep_fraction = 0.8;
  d.jitter = 2;
  d.seed = seed;
  return d;
}

}  // namespace

bes::alphabet pool_alphabet() {
  bes::alphabet names;
  for (std::size_t k = 0; k < symbol_pool; ++k) {
    names.intern(format("S%zu", k));
  }
  return names;
}

bool sampled(std::uint64_t seed, std::uint64_t i, std::uint64_t rate) noexcept {
  return bes::derive_seed(stream_seed(seed, oracle_sample), i) % rate == 0;
}

// ------------------------------------------------------------------ corpus

corpus::corpus(std::uint64_t seed) {
  bes::alphabet names = pool_alphabet();
  const std::uint64_t base = stream_seed(seed, corpus_scenes);
  scenes_.reserve(corpus_images);
  strings_.reserve(corpus_images);
  fnv64 h;
  for (std::size_t j = 0; j < corpus_images; ++j) {
    scenes_.push_back(scene_from(bes::derive_seed(base, j), names));
    strings_.push_back(bes::encode(scenes_.back()));
    h.add(scenes_.back());
  }
  digest_ = h.value();
}

std::string corpus::name_of(std::size_t j) { return format("img%zu", j); }

void corpus::write_segment(const std::filesystem::path& path) const {
  const bes::alphabet names = pool_alphabet();
  bes::segment_writer writer(path);
  bes::db_record rec;
  for (std::size_t j = 0; j < scenes_.size(); ++j) {
    rec.id = static_cast<bes::image_id>(j);
    rec.name = name_of(j);
    rec.image = scenes_[j];
    rec.strings = strings_[j];
    rec.histograms = bes::make_histograms(rec.strings);
    writer.append(rec, names);
  }
  writer.finish();
}

void corpus::write_sharded(const std::filesystem::path& dir) const {
  const bes::alphabet names = pool_alphabet();
  bes::shard_writer writer(dir, fleet_shards);
  for (std::size_t j = 0; j < scenes_.size(); ++j) {
    writer.append(name_of(j), scenes_[j], names);
  }
  writer.finish();
}

// --------------------------------------------------------- distinct stream

distinct_stream::distinct_stream(const corpus& source, std::uint64_t seed,
                                 bool transform_invariant)
    : source_(&source),
      seed_(stream_seed(seed, transform_invariant ? scan_requests
                                                  : fleet_requests)),
      transform_invariant_(transform_invariant) {}

request distinct_stream::at(std::uint64_t i, bes::alphabet& names) const {
  bes::rng r(bes::derive_seed(seed_, i));
  request out;
  if (i % 4 == 2) {
    out.image = bes::random_scene(scene_shape(), r, names);
  } else {
    const auto scenes = source_->scenes();
    const std::size_t target = r.next_u64() % scenes.size();
    out.image = bes::distort(scenes[target], query_distortion(r.next_u64()),
                             names);
  }
  out.transform_invariant = transform_invariant_ && i % 8 == 7;
  return out;
}

std::uint64_t distinct_stream::digest(std::size_t prefix) const {
  bes::alphabet names = pool_alphabet();
  fnv64 h;
  for (std::uint64_t i = 0; i < prefix; ++i) {
    const request r = at(i, names);
    h.add(r.image);
    h.add(r.transform_invariant ? 1 : 0);
  }
  return h.value();
}

// ------------------------------------------------------ zipf ingest stream

zipf_ingest_stream::zipf_ingest_stream(const corpus& source,
                                       std::uint64_t seed)
    : seed_(seed) {
  // The pool: distorted corpus scenes (one target draw and one distortion
  // seed per slot, as workload/zipf's make_query_stream does), keeping only
  // queries whose encoding is new, until pool_size distinct ones exist.
  bes::alphabet names = pool_alphabet();
  const std::uint64_t base = stream_seed(seed, zipf_pool);
  const auto scenes = source.scenes();
  bes::rng pick(bes::derive_seed(base, 0));
  std::unordered_set<std::uint64_t> keys;
  pool_.reserve(pool_size);
  for (std::uint64_t slot = 0; pool_.size() < pool_size; ++slot) {
    const bes::symbolic_image& target = scenes[pick.next_u64() % scenes.size()];
    bes::symbolic_image q = bes::distort(
        target, query_distortion(bes::derive_seed(base, 1 + slot)), names);
    fnv64 key;
    key.add(bes::encode(q));
    if (keys.insert(key.value()).second) pool_.push_back(std::move(q));
  }
  // Rank r requested with probability proportional to 1/(r+1)^s.
  bes::zipf_sampler ranks(pool_size, skew,
                          bes::derive_seed(base, ~std::uint64_t{0}));
  order_.resize(length);
  for (std::size_t& rank : order_) rank = ranks.next();

  removals_.resize(source.scenes().size());
  std::iota(removals_.begin(), removals_.end(), bes::image_id{0});
  bes::rng r(stream_seed(seed, zipf_removals));
  for (std::size_t k = removals_.size(); k > 1; --k) {
    std::swap(removals_[k - 1], removals_[r.next_u64() % k]);
  }
}

request::kind zipf_ingest_stream::kind(std::uint64_t i) noexcept {
  if (i % 32 == 31) return request::kind::add;
  if (i % 128 == 15) return request::kind::remove;
  return request::kind::query;
}

bes::symbolic_image zipf_ingest_stream::added_scene(std::uint64_t i,
                                                    bes::alphabet& names) const {
  return scene_from(bes::derive_seed(stream_seed(seed_, zipf_adds), i), names);
}

std::string zipf_ingest_stream::added_name(std::uint64_t i) {
  return format("add%llu", static_cast<unsigned long long>(i));
}

bes::image_id zipf_ingest_stream::victim(std::uint64_t i) const {
  return removals_.at(i / 128);
}

std::size_t zipf_ingest_stream::distinct_pool_queries() const {
  std::unordered_set<std::uint64_t> seen;
  for (const bes::symbolic_image& q : pool_) {
    fnv64 h;
    h.add(bes::encode(q));
    seen.insert(h.value());
  }
  return seen.size();
}

std::uint64_t zipf_ingest_stream::digest() const {
  bes::alphabet names = pool_alphabet();
  fnv64 h;
  for (const bes::symbolic_image& q : pool_) h.add(q);
  for (std::uint64_t i = 0; i < order_.size(); ++i) {
    switch (kind(i)) {
      case request::kind::query: h.add(order_[i]); break;
      case request::kind::add: h.add(added_scene(i, names)); break;
      case request::kind::remove: h.add(victim(i)); break;
    }
  }
  return h.value();
}

}  // namespace perfbench

// The benchmark's reference answers: an exhaustive, index-free, cache-free
// scan of its own copy of the records with the library's similarity
// function. Whatever the engine does to get there (inverted index, pruning,
// cache, shards, the wire), its top-k must equal this one.
#include <algorithm>
#include <limits>
#include <unordered_set>

#include "core/encoder.hpp"
#include "lcs/similarity.hpp"
#include "perfbench.hpp"
#include "util/parallel.hpp"

namespace perfbench {

bool ranks_before(const bes::query_result& a, const bes::query_result& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

std::vector<bes::query_result> oracle_top_k(
    std::span<const bes::be_string2d> records, std::uint64_t visible,
    const std::function<bool(bes::image_id)>& alive,
    const bes::be_string2d& query, bool transform_invariant, std::size_t k) {
  const std::size_t n = std::min<std::uint64_t>(visible, records.size());
  bes::query_transforms transforms;
  if (transform_invariant) transforms = bes::precompute_transforms(query);
  std::vector<bes::query_result> all;
  all.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    const auto rid = static_cast<bes::image_id>(id);
    if (alive && !alive(rid)) continue;
    bes::query_result r;
    r.id = rid;
    r.score = transform_invariant
                  ? bes::best_transform_similarity(transforms, records[id]).score
                  : bes::similarity(query, records[id]);
    all.push_back(r);
  }
  const std::size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end(), ranks_before);
  all.resize(keep);
  return all;
}

verdict check_answer(std::span<const bes::query_result> answer,
                     std::span<const bes::query_result> expected) {
  verdict v;
  v.match = answer.size() == expected.size() &&
            std::equal(answer.begin(), answer.end(), expected.begin(),
                       [](const bes::query_result& a,
                          const bes::query_result& b) {
                         return a.id == b.id && a.score == b.score;
                       });
  if (expected.empty()) {
    v.recall = 1.0;
    return v;
  }
  std::unordered_set<bes::image_id> returned;
  for (const bes::query_result& r : answer) returned.insert(r.id);
  std::size_t found = 0;
  for (const bes::query_result& r : expected) found += returned.count(r.id);
  v.recall = static_cast<double>(found) / static_cast<double>(expected.size());
  return v;
}

sample_summary& sample_summary::operator+=(const sample_summary& other) {
  checked += other.checked;
  mismatched += other.mismatched;
  recall_sum += other.recall_sum;
  if (!control) control = other.control;
  return *this;
}

sample_summary check_samples(std::vector<sample>& samples,
                             std::span<const bes::be_string2d> records,
                             bool print_mismatches) {
  std::vector<std::vector<bes::query_result>> expected(samples.size());
  bes::parallel_for(
      samples.size(), check_threads,
      [&](std::size_t s) {
        const sample& smp = samples[s];
        expected[s] = oracle_top_k(records, smp.visible, smp.alive,
                                   bes::encode(smp.query),
                                   smp.transform_invariant, top_k);
      },
      /*chunk=*/1);
  sample_summary out;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const verdict v = check_answer(samples[s].answer, expected[s]);
    ++out.checked;
    out.recall_sum += v.recall;
    if (!v.match) {
      ++out.mismatched;
      if (samples[s].latency != nullptr) {
        *samples[s].latency = std::numeric_limits<double>::infinity();
      }
      if (print_mismatches && out.mismatched <= 3) {
        std::printf("oracle mismatch at request %llu: recall %.2f\n",
                    static_cast<unsigned long long>(samples[s].index),
                    v.recall);
      }
    }
    if (!out.control && !expected[s].empty()) {
      out.control = samples[s];
      out.control->answer = expected[s];
      out.control->latency = nullptr;
    }
  }
  return out;
}

accuracy fold_accuracy(const sample_summary& checked,
                       std::uint64_t failed_operations) {
  accuracy a;
  a.failed = failed_operations + checked.mismatched;
  a.recall_at_10 = checked.checked ? checked.recall_sum /
                                         static_cast<double>(checked.checked)
                                   : 0.0;
  return a;
}

void negative_control(const sample_summary& checked,
                      std::span<const bes::be_string2d> records, report& out) {
  if (!checked.control) {
    out.check_failed("negative control: no oracle answer to perturb");
    return;
  }
  // The control sample as an extra answer, once as the oracle gave it and
  // once with its last id swapped for one the oracle did not return.
  std::vector<sample> clean{*checked.control};
  std::vector<sample> perturbed{*checked.control};
  std::unordered_set<bes::image_id> used;
  for (const bes::query_result& r : clean[0].answer) used.insert(r.id);
  bes::image_id other = 0;
  while (used.count(other) != 0) ++other;
  perturbed[0].answer.back().id = other;

  sample_summary with_clean = checked;
  with_clean += check_samples(clean, records, /*print_mismatches=*/false);
  sample_summary with_perturbed = checked;
  with_perturbed +=
      check_samples(perturbed, records, /*print_mismatches=*/false);
  const accuracy a = fold_accuracy(with_clean, 0);
  const accuracy b = fold_accuracy(with_perturbed, 0);
  const bool detected =
      b.failed == a.failed + 1 && b.recall_at_10 < a.recall_at_10;
  out.fact("negative_control",
           detected ? format("one swapped id: failed %llu -> %llu, "
                             "recall_at_10 %.6f -> %.6f",
                             static_cast<unsigned long long>(a.failed),
                             static_cast<unsigned long long>(b.failed),
                             a.recall_at_10, b.recall_at_10)
                    : std::string("NOT DETECTED"));
  if (!detected) out.check_failed("negative control: perturbed answer passed");
}

}  // namespace perfbench

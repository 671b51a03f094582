// Statistics, digests, the run report, and the closed-loop client loop.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <thread>

#include "perfbench.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

// JSON has no infinity: a failure-dominated value is written as the largest
// finite double, which still ranks above every real sample.
double json_finite(double v) {
  const double top = std::numeric_limits<double>::max();
  return std::clamp(v, -top, top);
}

std::string fmt(double v) {
  char buf[32];
  if (std::isinf(v)) return "inf";
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Nearest-rank index of percentile p over n sorted samples (n > 0).
std::size_t rank_of(double p, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n) - 1;
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(0.5, samples.size())];
}

timing summarize(std::vector<double> samples) {
  timing t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = samples[rank_of(0.5, t.n)];
  for (timing::tail* tail : {&t.p90, &t.p99}) {
    const std::size_t r = rank_of(tail->percentile, t.n);
    tail->value = samples[r];
    tail->beyond = t.n - 1 - r;
  }
  return t;
}

void fnv64::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void fnv64::add(const bes::symbolic_image& image) noexcept {
  add(static_cast<std::uint64_t>(image.width()));
  add(static_cast<std::uint64_t>(image.height()));
  add(image.size());
  for (const bes::icon& ic : image.icons()) {
    add(ic.symbol);
    add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(ic.mbr.x.lo)) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(ic.mbr.x.hi))
            << 32);
    add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(ic.mbr.y.lo)) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(ic.mbr.y.hi))
            << 32);
  }
}

void fnv64::add(const bes::be_string2d& strings) noexcept {
  for (const auto* axis : {&strings.x, &strings.y}) {
    add(axis->size());
    for (const bes::token& t : axis->tokens()) {
      add(t.is_dummy() ? 0xffffffffull
                       : (static_cast<std::uint64_t>(t.symbol()) << 1) |
                             static_cast<std::uint64_t>(t.kind()));
    }
  }
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

void report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    const std::string& note) {
  metrics_.push_back({name, value, unit, samples});
  std::printf("metric %-30s %14s %-6s n=%zu%s%s\n", name.c_str(),
              fmt(value).c_str(), unit.c_str(), samples,
              note.empty() ? "" : "  ", note.c_str());
}

void report::timing_metrics(const std::string& prefix, const timing& t) {
  auto tail = [](const timing::tail& p) {
    return p.withheld() ? format("withheld (%zu beyond it)", p.beyond)
                        : format("%s ms (%zu beyond it)", fmt(p.value).c_str(),
                                 p.beyond);
  };
  std::printf("timing %-30s n=%zu, p50 %s ms, p90 %s, p99 %s\n",
              prefix.c_str(), t.n, t.n == 0 ? "n/a" : fmt(t.p50).c_str(),
              tail(t.p90).c_str(), tail(t.p99).c_str());
  if (t.n == 0) return;
  metric(format("%s_p50_ms", prefix.c_str()), t.p50, "ms", t.n);
  if (!t.p90.withheld()) {
    metric(format("%s_p90_ms", prefix.c_str()), t.p90.value, "ms", t.n);
  }
  if (!t.p99.withheld()) {
    metric(format("%s_p99_ms", prefix.c_str()), t.p99.value, "ms", t.n);
  }
}

void report::fact(const std::string& key, const std::string& value) {
  facts_.emplace_back(key, value);
  std::printf("fact   %-30s %s\n", key.c_str(), value.c_str());
}

void report::check_failed(const std::string& reason) {
  check_failures_.push_back(reason);
  std::printf("CHECK FAILED: %s\n", reason.c_str());
}

void report::count_operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string report::record_json() const {
  bes::json_value facts{bes::json_value::object{}};
  for (const auto& [key, value] : facts_) facts.set(key, value);
  bes::json_value metrics{bes::json_value::object{}};
  for (const entry& e : metrics_) {
    bes::json_value m{bes::json_value::object{}};
    m.set("value", json_finite(e.value));
    m.set("unit", e.unit);
    m.set("samples", e.samples);
    metrics.set(e.name, std::move(m));
  }
  bes::json_value::array failures(check_failures_.begin(),
                                  check_failures_.end());
  bes::json_value record{bes::json_value::object{}};
  record.set("correct", correct());
  record.set("facts", std::move(facts));
  record.set("metrics", std::move(metrics));
  record.set("check_failures", std::move(failures));
  record.set("attempted", attempted_);
  record.set("failed", failed_);
  return record.dump();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

std::uint64_t closed_loop(
    unsigned clients, std::uint64_t first, std::uint64_t limit,
    clock::time_point deadline,
    const std::function<void(unsigned, std::uint64_t)>& fn,
    const std::function<bool()>& done) {
  std::atomic<std::uint64_t> next{first};
  std::atomic<bool> stop{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        while (!stop.load(std::memory_order_relaxed) &&
               clock::now() < deadline && !(done && done())) {
          const std::uint64_t i = next.fetch_add(1);
          if (i >= limit) break;
          fn(c, i);
        }
      } catch (...) {
        stop.store(true);
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return std::min(next.load(), limit);
}

}  // namespace perfbench

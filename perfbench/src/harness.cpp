#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr int kSortRounds = 12;
constexpr std::size_t kSortKeys = 512;

}  // namespace

double HostReference::slice_us() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t state = 20060704;
  std::uint64_t acc = 0;
  for (int r = 0; r < kSortRounds; ++r) {
    std::array<std::uint64_t, kSortKeys> keys;
    for (std::uint64_t& k : keys) {
      k = splitmix64(state);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::uint64_t k : keys) {
      acc += k >> 13;
    }
  }
  sink_ += acc;
  return us_between(t0, Clock::now());
}

void BlockRecorder::close() {
  if (slices_us_.empty()) {
    slices_us_.push_back(reference_.slice_us());
  }
  open_.slice_us = median(slices_us_);
  blocks_.push_back(std::move(open_));
  open_ = Block{};
  slices_us_.clear();
}

void BlockRecorder::add(const OpTime& op) {
  const double s = op.busy_us * 1e-6;
  open_.busy_s += s;
  since_slice_s_ += s;
  if (op.query_us >= 0.0) {
    open_.query_us.push_back(op.query_us);
  }
  if (since_slice_s_ >= slice_every_seconds_) {
    slices_us_.push_back(reference_.slice_us());
    since_slice_s_ = 0.0;
  }
  if (open_.busy_s >= block_seconds_) {
    close();
  }
}

std::vector<Block> BlockRecorder::finish() {
  if (blocks_.empty() && open_.busy_s > 0.0) {
    close();
  }
  return std::move(blocks_);
}

WallSummary summarize_wall(const std::vector<Block>& blocks) {
  std::vector<double> rates;
  std::vector<double> raw_rates;
  std::vector<double> slowness;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const Block& b : blocks) {
    const double slow = HostReference::slowness(b.slice_us);
    const double rate = static_cast<double>(b.query_us.size()) / b.busy_s;
    raw_rates.push_back(rate);
    rates.push_back(rate * slow);
    slowness.push_back(slow);
    if (!b.query_us.empty()) {
      p50s.push_back(quantile(b.query_us, 0.5) / slow);
      p99s.push_back(quantile(b.query_us, 0.99) / slow);
    }
  }
  WallSummary s;
  s.queries_per_s = median(rates);
  s.query_us_p50 = median(p50s);
  s.query_us_p99 = median(p99s);
  s.raw_queries_per_s = median(raw_rates);
  s.slowness = median(slowness);
  s.blocks = blocks.size();
  return s;
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) {
    return;
  }
  if (++check_failures_ <= 8) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit of the measured double; a non-finite value
    // is written as null (invalid for the reader, which then rejects it).
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += i == 0 ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t query,
                             std::uint64_t parent) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, query, name, now_us(), -1.0});
  return id;
}

double SpanLog::end(std::uint64_t id) {
  Span& s = spans_[id - 1];
  s.end_us = now_us();
  return s.end_us - s.start_us;
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t query,
                           std::uint64_t parent, Clock::time_point start,
                           Clock::time_point end) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, query, name, us_between(origin_, start),
                        us_between(origin_, end)});
  return id;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"query\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.name, s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench

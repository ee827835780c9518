#include "ledger.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace servebench {

double HostNow() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(tracer_->spans_.size());
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = span.id;
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  // Stamp last so the bookkeeping above is not charged to the span.
  tracer_->spans_[index_].start = HostNow();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end = HostNow();
  tracer_->open_.pop_back();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double epoch = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"host\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld}}%s\n",
                 s.name.c_str(), (s.start - epoch) * 1e6,
                 (s.end - s.start) * 1e6, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Fingerprint::Fold(const std::string& text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(const std::string& label, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "=%.17g;", value);
  Fold(label + buf);
}

void Fingerprint::Add(const std::string& label, uint64_t value) {
  Fold(label + "=" + std::to_string(value) + ";");
}

std::string Fingerprint::Hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

namespace {
constexpr uint32_t kGaugeKeys = 200000;
constexpr int kGaugeUpdates = 200000;
}  // namespace

HostScale::HostScale() {
  table_.reserve(kGaugeKeys);
  for (uint32_t k = 0; k < kGaugeKeys; ++k) table_[k] = k;
  Sample();  // first walk over the fresh nodes: not a speed sample
  samples_.clear();
  Sample();
}

double HostScale::Sample() {
  // One untimed pass over every entry first, so that the timed walk starts
  // from the same cache state whatever the measured work left behind.
  uint32_t sum = 0;
  for (const auto& entry : table_) sum += entry.second;
  sink_ += sum;
  const double start = HostNow();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kGaugeUpdates; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ++table_[static_cast<uint32_t>(x % kGaugeKeys)];
  }
  const double seconds = HostNow() - start;
  samples_.push_back(seconds);
  return seconds;
}

double HostScale::Next() {
  const double before = samples_.back();
  const double after = Sample();
  return std::pow(kReferenceSeconds / (0.5 * (before + after)), kElasticity);
}

}  // namespace servebench

#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <unordered_map>

namespace perfbench {

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = Nanos(Clock::now());
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  if (span < 0) return;
  const int64_t now = Nanos(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

int64_t Tracer::Record(const char* name, Clock::time_point start,
                       Clock::time_point end, int64_t parent,
                       uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = Nanos(start);
  span.end_ns = Nanos(end);
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

// Children of one parent never overlap (the benchmark calls layers one
// after another), so a span's self time is its duration minus the sum of
// its children's durations.
std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double seconds = 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    self[i] += seconds;
    if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= seconds;
  }
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

SpeedProbe::SpeedProbe() {
  // Fixed linear-congruential data: identical on every run and commit.
  uint64_t x = 0x2545f4914f6cdd1dull;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  rows_.resize(2048 * 32);
  for (float& v : rows_) v = static_cast<float>(next() % 1000) / 1000.0f;
  ids_.resize(512);
  for (uint32_t& id : ids_) id = static_cast<uint32_t>(next() % 2048);
  keys_.resize(1024);
  for (uint64_t& k : keys_) k = next();
  sort_.resize(512);
  // Sattolo's shuffle: one cycle through every slot.
  chase_.resize(kChaseBytes / sizeof(uint32_t));
  for (uint32_t i = 0; i < chase_.size(); ++i) chase_[i] = i;
  for (size_t i = chase_.size() - 1; i > 0; --i) {
    std::swap(chase_[i], chase_[next() % i]);
  }
}

double SpeedProbe::Run() {
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (size_t q = 0; q < 4; ++q) {
    const float* probe = &rows_[(q * 97 % 2048) * 32];
    for (uint32_t id : ids_) {
      const float* row = &rows_[static_cast<size_t>(id) * 32];
      float dot = 0.0f;
      for (size_t d = 0; d < 32; ++d) dot += probe[d] * row[d];
      acc += dot;
    }
  }
  std::unordered_map<uint64_t, double> memo;
  memo.reserve(2048);
  for (uint64_t k : keys_) memo[k % 3001] += 1.0;
  acc += static_cast<double>(memo.size());
  for (size_t i = 0; i < sort_.size(); ++i) {
    sort_[i] = static_cast<double>((keys_[i] * 2654435761u) % 100003);
  }
  std::sort(sort_.begin(), sort_.end());
  acc += sort_[sort_.size() / 2];
  uint32_t at = chase_at_;
  for (int i = 0; i < 384; ++i) at = chase_[at];
  chase_at_ = at;
  acc += at;
  sink_ += acc;  // keeps the work observable
  return Seconds(t0, Clock::now());
}

void MedianScaledSetup(int reps, const std::function<void()>& reset,
                       const std::vector<SetupStage>& stages, Tracer* tracer,
                       RunResult* result) {
  SpeedProbe probe;
  std::vector<double> totals;
  std::vector<std::vector<double>> stage_seconds(stages.size());
  for (int rep = 0; rep < reps; ++rep) {
    reset();
    const double probe_before = probe.Warm();
    const auto t0 = Clock::now();
    for (size_t i = 0; i < stages.size(); ++i) {
      const int64_t span =
          stages[i].span != nullptr ? tracer->Begin(stages[i].span) : -1;
      const auto s0 = Clock::now();
      stages[i].run();
      stage_seconds[i].push_back(Seconds(s0, Clock::now()));
      tracer->End(span);
    }
    const double total = Seconds(t0, Clock::now());
    totals.push_back(total * ProbeScale(probe_before, probe.Warm()));
  }
  result->Set("setup_s", Median(totals));
  for (size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].metric != nullptr) {
      result->Set(stages[i].metric, Median(stage_seconds[i]));
    }
  }
}

namespace {
double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ProcessCpuSeconds() { return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -
         static_cast<double>(kChaseBytes) / (1024.0 * 1024.0);
}

}  // namespace perfbench

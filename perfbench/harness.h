// Shared pieces of the benchmark binary: run configuration, the metric
// sink, the in-memory span recorder, and the small statistics and clock
// helpers every workload uses. Nothing here calls into the library.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Multiplies the lake size and query counts; the self-test runs at a
  // tiny scale, the benchmark at 1.
  double scale = 1.0;
  // Test hook: corrupts one recorded ranking before verification, so the
  // self-test can check that a wrong answer is counted as a failure.
  bool corrupt = false;
  // Directory for the span file and the serve snapshot (inside the
  // checkout).
  std::string out_dir = ".";
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Every metric the run computed; main prints the end-to-end set
  // for untraced runs and the per-layer set for traced runs.
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
};

// One span: a timed call the benchmark made into a library layer. Spans
// of one request share `request`; `parent` is the index of the enclosing
// span (or -1).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

// Keeps spans in memory while the run measures; main writes them out
// after the run. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (-1 when disabled); End closes it.
  int64_t Begin(const char* name, int64_t parent = -1, uint64_t request = 0);
  void End(int64_t span);
  // Records a span whose start and end are already known and returns its
  // index (-1 when disabled).
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent, uint64_t request);

  // Per layer (the span name up to its first '.'): total self time in
  // seconds, i.e. span time not covered by child spans.
  std::map<std::string, double> SelfSeconds() const;
  size_t size() const;
  // Writes the spans as Chrome trace-event JSON.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Times a scope as one span of an enabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = -1,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// A fixed unit of benchmark-owned work that reads how fast this machine
// runs the program's kind of code right now. On shared hosts neighbours
// slow cache-resident code by 20-40 % for seconds at a time (sibling
// hardware threads) and evict the shared L3, while a pure ALU loop barely
// moves. The unit has two halves of about equal time: a cache-resident
// half (gathered dots, hash map, sort) and a pointer chase through an
// 8 MiB buffer, larger than L2 and far smaller than L3, that reads lines
// it has not read for thousands of runs. Times are scaled by
// kProbeReferenceSeconds / p, where p is a median of warm readings taken
// around the measured work (see README.md): a slow period slows both sides
// and the ratio cancels it. The probe is the same code for every commit,
// so a change to the program moves only the measured side.
class SpeedProbe {
 public:
  SpeedProbe();
  // Runs the unit once and returns its wall time in seconds.
  double Run();
  // Runs the unit twice and returns the second time: the first run refills
  // the caches and allocator state the measured code left behind, so the
  // reading does not depend on how much memory that code touched. (The
  // chase half reads new lines on every run, so it is never warm.)
  double Warm() {
    Run();
    return Run();
  }

 private:
  std::vector<float> rows_;     // 2048 x 32 floats, like an embedding arena
  std::vector<uint32_t> ids_;   // gather order
  std::vector<uint64_t> keys_;  // hash-map workload
  std::vector<double> sort_;    // branchy sort workload
  std::vector<uint32_t> chase_; // one random cycle over kChaseBytes
  uint32_t chase_at_ = 0;       // where the next chase starts
  double sink_ = 0.0;
};

// Size of the probe's pointer-chase buffer; resident while a probe lives.
constexpr size_t kChaseBytes = 8u << 20;

// The warm probe's time on the reference host (4 vCPUs, AVX2) when quiet.
// Scaled times are reported in seconds of that host.
constexpr double kProbeReferenceSeconds = 200e-6;

// Factor that scales a time measured between two probe readings.
inline double ProbeScale(double probe_before, double probe_after) {
  return 2.0 * kProbeReferenceSeconds / (probe_before + probe_after);
}

// One stage of a set-up. A stage without `span` records no span; one
// without `metric` counts toward the total only.
struct SetupStage {
  const char* span = nullptr;
  const char* metric = nullptr;
  std::function<void()> run;
};

// Builds `reps` times. Each build calls `reset` (untimed) to drop the
// previous one, then runs the stages in order between two warm probe
// readings. Sets `setup_s` to the median probe-scaled total and each
// stage's metric to the median of its unscaled times.
void MedianScaledSetup(int reps, const std::function<void()>& reset,
                       const std::vector<SetupStage>& stages, Tracer* tracer,
                       RunResult* result);

// CPU seconds of the whole process / the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
// Peak resident set size of the process so far, in MiB, less the one
// speed probe's chase buffer that is resident at any time.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

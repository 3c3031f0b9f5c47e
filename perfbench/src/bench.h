// Shared pieces of the user-facing benchmark: clocks, sample statistics,
// the run report, set-up helpers and the entry points of each workload.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "xpc/core/session.h"
#include "xpc/edtd/edtd.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Settings shared by every workload (parsed from the command line).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Where the traced run writes its spans.
};

/// Quantile of `v` by nearest rank; 0 when empty.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (k > 0) --k;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  return Quantile(v, 0.5);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  double sum = 0;
  for (T x : v) sum += static_cast<double>(x);
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Untraced set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 15;

/// The untraced loop's clock. Work run through Paused() (set-up repetitions,
/// on-demand input generation, answer checks) is excluded from it. The
/// set-up is repeated at even intervals through the loop, so setup_s samples
/// the same stretch of time as the other metrics.
class LoopClock {
 public:
  /// `first_setup_s` is the time of the set-up that ran just before;
  /// `setup_rep` repeats it. The loop's clock starts now.
  LoopClock(int seconds, double first_setup_s, std::function<void()> setup_rep)
      : duration_ns_(static_cast<int64_t>(seconds) * 1000000000),
        every_ns_(duration_ns_ / kSetupReps),
        setup_rep_(std::move(setup_rep)),
        setup_s_{first_setup_s},
        start_ns_(NowNs()),
        next_rep_ns_(start_ns_ + every_ns_) {}

  /// Runs a set-up repetition if one is due; false once the loop has run
  /// for its duration.
  bool Running(int64_t now) {
    if (static_cast<int>(setup_s_.size()) < kSetupReps && now >= next_rep_ns_) {
      Paused([this] { RepeatSetup(); });
      next_rep_ns_ += every_ns_;
    }
    return now - start_ns_ - paused_ns_ < duration_ns_;
  }

  template <typename F>
  void Paused(F&& work) {
    const int64_t t0 = NowNs();
    work();
    paused_ns_ += NowNs() - t0;
  }

  /// Loop time so far, pauses excluded.
  double Seconds() const { return (NowNs() - start_ns_ - paused_ns_) / 1e9; }

  /// Median set-up time, after running the repetitions the loop left out.
  double MedianSetupSeconds() {
    while (static_cast<int>(setup_s_.size()) < kSetupReps) RepeatSetup();
    return Median(setup_s_);
  }

 private:
  void RepeatSetup() {
    const int64_t t0 = NowNs();
    setup_rep_();
    setup_s_.push_back((NowNs() - t0) / 1e9);
  }

  int64_t duration_ns_;
  int64_t every_ns_;
  std::function<void()> setup_rep_;
  std::vector<double> setup_s_;
  int64_t start_ns_;
  int64_t next_rep_ns_;
  int64_t paused_ns_ = 0;
};

/// What a run prints: the correctness verdict, request counts and metrics
/// by name (perfbench/run.py adds the units from BENCHMARK.json).
/// Human-readable notes go to stdout before the JSON.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> wrong;  ///< One line per wrong answer (capped).
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Wrong(const std::string& what) {
    correct = false;
    if (wrong.size() < 20) wrong.push_back(what);
  }
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// FNV-1a style running digest of answers, printed so two runs on one seed
/// can be compared.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  int64_t items = 0;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
    ++items;
  }
};

/// Samples with a fixed memory bound: exact count and sum, plus a uniform
/// reservoir of values for quantiles (exact while the count fits it).
class Samples {
 public:
  void Add(double v);
  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Quantile(double q) const;

 private:
  static constexpr size_t kReservoir = 1 << 19;
  std::vector<float> reservoir_;
  int64_t count_ = 0;
  double sum_ = 0;
  uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

/// End-to-end metrics shared by the workloads: per-request latencies (µs)
/// and the loop's wall time (s).
void SetRequestMetrics(Report* report, const Samples& latencies_us, double wall_s);

/// Session options of every workload: schema indexes build on one thread,
/// so the run keeps to one core.
xpc::SessionOptions MakeSessionOptions();

class Tracer;

/// Builds (or finds) the schema index of `edtd` in the process registry, so
/// a later SetEdtd or deploy finds it there. With a tracer, the build gets
/// a span of its own.
void AcquireIndex(const xpc::Edtd& edtd, Tracer* tracer);

/// The chain schema t0 := t1 ... t{depth-1} := epsilon; with `star`, each
/// type has any number of children of the next type (t0 := t1*, ...).
xpc::Edtd ChainEdtd(int depth, bool star);

/// The two runs of each workload: the untraced run reports the end-to-end
/// metrics, the traced run the per-layer ones.
void ContainColdUntraced(const RunConfig& config, Report* report);
void ContainColdTraced(const RunConfig& config, Report* report);
void SatWarmUntraced(const RunConfig& config, Report* report);
void SatWarmTraced(const RunConfig& config, Report* report);
void StreamRouteUntraced(const RunConfig& config, Report* report);
void StreamRouteTraced(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

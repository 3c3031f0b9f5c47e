#include "bench.h"

#include <sys/resource.h>

#include "trace.h"
#include "xpc/schemaindex/schema_index.h"

namespace perfbench {

void Samples::Add(double v) {
  ++count_;
  sum_ += v;
  if (reservoir_.size() < kReservoir) {
    reservoir_.push_back(static_cast<float>(v));
    return;
  }
  // Algorithm R with a splitmix64 stream: every value is kept with
  // probability kReservoir / count.
  rng_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = rng_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const uint64_t slot = z % static_cast<uint64_t>(count_);
  if (slot < kReservoir) reservoir_[slot] = static_cast<float>(v);
}

double Samples::Quantile(double q) const {
  std::vector<double> v(reservoir_.begin(), reservoir_.end());
  return perfbench::Quantile(std::move(v), q);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void SetRequestMetrics(Report* report, const Samples& latencies_us, double wall_s) {
  report->Set("latency_p50_us", latencies_us.Quantile(0.50));
  report->Set("latency_p99_us", latencies_us.Quantile(0.99));
  report->Set("throughput_qps", static_cast<double>(latencies_us.count()) / wall_s);
}

xpc::SessionOptions MakeSessionOptions() {
  xpc::SessionOptions options;
  options.schema_index.build_threads = 1;
  return options;
}

void AcquireIndex(const xpc::Edtd& edtd, Tracer* tracer) {
  if (tracer == nullptr) {
    xpc::SchemaIndex::Acquire(edtd, MakeSessionOptions().schema_index);
    return;
  }
  tracer->BeginRequest(-1);
  {
    Tracer::Scope span(tracer, Layer::kSchemaIndexBuild);
    xpc::SchemaIndex::Acquire(edtd, MakeSessionOptions().schema_index);
  }
  tracer->EndRequest();
}

xpc::Edtd ChainEdtd(int depth, bool star) {
  std::string text;
  for (int i = 0; i < depth; ++i) {
    text += "t" + std::to_string(i) + " := " +
            (i + 1 < depth ? "t" + std::to_string(i + 1) + (star ? "*" : "") : "epsilon") + "\n";
  }
  return xpc::Edtd::Parse(text).value();
}

}  // namespace perfbench

#include "trace.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kParse: return "xpath.parse";
    case Layer::kIntern: return "xpath.intern";
    case Layer::kSessionHit: return "core.session_hit";
    case Layer::kSolve: return "core.solve";
    case Layer::kProp4: return "reduction.prop4";
    case Layer::kProfile: return "classify.profile";
    case Layer::kFastpath: return "classify.fastpath";
    case Layer::kDownward: return "sat.downward";
    case Layer::kEdtdEncode: return "edtd.encode";
    case Layer::kNormalForm: return "pathauto.normal_form";
    case Layer::kProduct: return "translate.product";
    case Layer::kLoop: return "sat.loop";
    case Layer::kVerify: return "eval.verify";
    case Layer::kSchemaIndexBuild: return "schemaindex.build";
    case Layer::kDeploy: return "stream.deploy";
    case Layer::kOptimize: return "stream.optimize";
    case Layer::kCompile: return "stream.compile";
    case Layer::kMatcherNew: return "stream.matcher_new";
    case Layer::kMatch: return "stream.match";
    case Layer::kNumLayers: break;
  }
  return "?";
}

void Tracer::BeginRequest(int64_t id) {
  request_ = id;
  current_.clear();
  open_.clear();
  child_ns_.clear();
  Open(Layer::kRequest);
}

int32_t Tracer::Open(Layer layer) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t index = static_cast<int32_t>(current_.size());
  current_.push_back({layer, parent, request_, NowNs(), 0});
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  current_[index].end_ns = NowNs();
  open_.pop_back();
}

int64_t Tracer::EndRequest() {
  Close(0);
  const int64_t base = spans_recorded_;
  child_ns_.assign(current_.size(), 0);
  for (const Span& s : current_) {
    if (s.parent >= 0) child_ns_[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < current_.size(); ++i) {
    const Span& s = current_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    self_[static_cast<int>(s.layer)].Add(static_cast<double>(dur - child_ns_[i]));
    total_[static_cast<int>(s.layer)].Add(static_cast<double>(dur));
    if (kept_.size() < kMaxKept) {
      kept_.push_back(s);
      kept_.back().id = base + static_cast<int64_t>(i);
      kept_.back().parent_id = s.parent < 0 ? -1 : base + s.parent;
    }
  }
  spans_recorded_ += static_cast<int64_t>(current_.size());
  return current_[0].end_ns - current_[0].start_ns;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : kept_) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"request\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent_id),
                 static_cast<long long>(s.request), LayerName(s.layer),
                 static_cast<long long>(s.start_ns - origin_ns_),
                 static_cast<long long>(s.end_ns - origin_ns_));
  }
  return std::fclose(f) == 0;
}

double Overhead::Ratio() const {
  if (untraced_ns[0] == 0 || untraced_ns[1] == 0) {
    return static_cast<double>(traced_ns[0] + traced_ns[1]) / (untraced_ns[0] + untraced_ns[1]);
  }
  return std::sqrt(static_cast<double>(traced_ns[0]) / untraced_ns[0] *
                   (static_cast<double>(traced_ns[1]) / untraced_ns[1]));
}

void FinishTrace(const RunConfig& config, const Tracer& tracer, const Overhead& overhead,
                 int64_t requests, Report* report) {
  const double ratio = overhead.Ratio();
  report->Set("trace.overhead_ratio", ratio);
  if (ratio < 1) {
    // Tracing only adds work, so this is timing noise outweighing it.
    std::printf("measurement fault: trace.overhead_ratio %.3f is below 1\n", ratio);
  }
  std::printf("traced %lld requests, %lld spans\n", static_cast<long long>(requests),
              static_cast<long long>(tracer.spans_recorded()));
  if (!config.trace_out.empty() && !tracer.Write(config.trace_out)) {
    throw std::runtime_error("cannot write " + config.trace_out);
  }
}

}  // namespace perfbench

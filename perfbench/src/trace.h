// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark around its own calls into each layer's public functions;
// nothing inside the library is instrumented. Each span has a layer name,
// start, end, parent span and request id. When a request ends, the self
// time of each of its spans (duration minus the time its direct children
// cover) is folded into per-layer samples, and the spans are kept for the
// trace file up to a cap.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

enum class Layer : int {
  kRequest,           // One request (or deploy, or document): the root span.
  kParse,             // xpath: ParsePath / ParseNode.
  kIntern,            // xpath: Session::Intern.
  kSessionHit,        // core: a Session call answered from the verdict cache.
  kSolve,             // core: an uncached solve (Solver's order of layers).
  kProp4,             // reduction: ContainmentToUnsat[WithEdtd].
  kProfile,           // classify: ClassifyNode / ClassifySchema / SelectFastPath.
  kFastpath,          // classify: a PTIME fast-path procedure.
  kDownward,          // sat: DownwardSatisfiable[WithEdtd].
  kEdtdEncode,        // edtd: EncodeEdtdSatisfiability (Prop. 6).
  kNormalForm,        // pathauto: ToLoopNormalForm.
  kProduct,           // translate: IntersectToLoopNormalForm.
  kLoop,              // sat: LoopSatisfiable.
  kVerify,            // eval: witness / counterexample re-check.
  kSchemaIndexBuild,  // schemaindex: SchemaIndex::Acquire at set-up.
  kDeploy,            // stream: one bundle deployment.
  kOptimize,          // stream: BundleOptimizer::Optimize.
  kCompile,           // stream: CompileBundle.
  kMatcherNew,        // stream: a fresh StreamMatcher.
  kMatch,             // stream: one document through the matcher.
  kNumLayers,
};

const char* LayerName(Layer layer);

class Tracer {
 public:
  Tracer() : origin_ns_(NowNs()) {}

  /// Opens the root span of request `id`.
  void BeginRequest(int64_t id);
  /// Closes the root span; returns its duration in ns.
  int64_t EndRequest();

  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer) : tracer_(tracer), index_(tracer->Open(layer)) {}
    ~Scope() { tracer_->Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
  };

  const Samples& self(Layer layer) const { return self_[static_cast<int>(layer)]; }
  const Samples& total(Layer layer) const { return total_[static_cast<int>(layer)]; }

  /// Writes the kept spans as JSON lines; returns false on I/O failure.
  bool Write(const std::string& path) const;
  int64_t spans_recorded() const { return spans_recorded_; }

 private:
  struct Span {
    Layer layer;
    int32_t parent;  // Index within the request's spans; -1 for the root.
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
    int64_t id = 0;          // Run-wide span id (set when kept).
    int64_t parent_id = -1;  // Run-wide id of the parent span.
  };
  static constexpr size_t kMaxKept = 200000;

  int32_t Open(Layer layer);
  void Close(int32_t index);

  int64_t origin_ns_;
  int64_t request_ = -1;
  std::vector<Span> current_;
  std::vector<int32_t> open_;
  std::vector<int64_t> child_ns_;
  std::vector<Span> kept_;
  int64_t spans_recorded_ = 0;
  std::array<Samples, static_cast<int>(Layer::kNumLayers)> self_;
  std::array<Samples, static_cast<int>(Layer::kNumLayers)> total_;
};

/// Whether request `id` runs its traced path before its untraced
/// reference. Alternating the order keeps either side from always running
/// on the caches the other just warmed.
inline bool TracedFirst(int64_t id) { return (id & 1) != 0; }

/// Wall time of the traced requests and of their untraced references, by
/// order: index 1 holds the requests that ran traced first.
struct Overhead {
  int64_t traced_ns[2] = {0, 0};
  int64_t untraced_ns[2] = {0, 0};

  /// Geometric mean of the two orders' traced ÷ untraced ratios. A cost of
  /// running first (or second) multiplies one order's ratio and divides the
  /// other's, so it cancels.
  double Ratio() const;
};

/// Ends a traced run: sets trace.overhead_ratio, prints the span count and
/// writes the span file, if one was asked for.
void FinishTrace(const RunConfig& config, const Tracer& tracer, const Overhead& overhead,
                 int64_t requests, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

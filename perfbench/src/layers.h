// The traced request path: an uncached request driven through the layers'
// public functions in the order `Solver::DispatchImpl` calls them, with a
// span around each call. The answer and engine stamp must equal what the
// untraced `Session` call returns (the trace-fidelity check).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "trace.h"
#include "xpc/core/solver.h"
#include "xpc/pathauto/lexpr.h"

namespace perfbench {

/// Work counts of the traced uncached solves, from the `StatsSnapshot`
/// each solve carries plus the route each one took.
struct LayerCounts {
  int64_t solves = 0;
  int64_t dispatches = 0;       ///< Classifier front-end decisions.
  int64_t fastpath_routes = 0;  ///< Of those, routed to a PTIME procedure.
  int64_t fallbacks = 0;        ///< Downward engine gave up; loop engine ran.
  int64_t downward_summaries = 0;
  int64_t loop_items = 0;
  int64_t explored_states = 0;
  int64_t schemaindex_hits = 0;
  int64_t schemaindex_cold_misses = 0;
  std::vector<double> blowup;    ///< ops(ψ) / (ops(α) + ops(β)) per containment.
  std::vector<double> dag_size;  ///< DagSizeOf of each loop-engine input.
};

class TracedSolver {
 public:
  TracedSolver(const xpc::SolverOptions& options, Tracer* tracer)
      : options_(options), tracer_(tracer) {}

  xpc::SatResult NodeSatisfiable(const xpc::NodePtr& phi, const xpc::Edtd* edtd);
  xpc::ContainmentResult Contains(const xpc::PathPtr& alpha, const xpc::PathPtr& beta,
                                  const xpc::Edtd* edtd);

  /// Records the observables of the last solve that are not timed (sizes),
  /// after its request span closed. `alpha`/`beta` are null for sat.
  void FinishRequest(const xpc::PathPtr& alpha, const xpc::PathPtr& beta);

  const LayerCounts& counts() const { return counts_; }

 private:
  xpc::SatResult Dispatch(const xpc::NodePtr& phi, const xpc::Edtd* edtd);
  xpc::SatResult DispatchImpl(const xpc::NodePtr& phi, const xpc::Edtd* edtd);
  void Account(const xpc::StatsSnapshot& stats, int64_t explored);

  xpc::SolverOptions options_;
  Tracer* tracer_;
  LayerCounts counts_;
  int last_psi_ops_ = -1;    // Classifier size of the last dispatched formula.
  xpc::LExprPtr last_lexpr_;  // Loop-engine input of the last solve, if any.
};

/// Sets the per-layer metrics that come from spans and solve counts.
void ReportLayers(const Tracer& tracer, const LayerCounts& counts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

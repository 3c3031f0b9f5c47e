#include "layers.h"

#include <stdexcept>

#include "xpc/classify/fastpath.h"
#include "xpc/classify/profile.h"
#include "xpc/edtd/encode.h"
#include "xpc/eval/evaluator.h"
#include "xpc/pathauto/normal_form.h"
#include "xpc/reduction/reductions.h"
#include "xpc/translate/intersect_product.h"

namespace perfbench {

using namespace xpc;

// Mirrors Solver::DispatchImpl call for call under the default options (fast
// paths on); only the spans are added.
SatResult TracedSolver::DispatchImpl(const NodePtr& phi, const Edtd* edtd) {
  Fragment f;
  FastPathRoute route;
  {
    Tracer::Scope span(tracer_, Layer::kProfile);
    FragmentProfile profile = ClassifyNode(phi);
    f = profile.fragment;
    last_psi_ops_ = profile.ops;
    if (edtd != nullptr) {
      SchemaClass schema = ClassifySchema(*edtd);
      route = SelectFastPath(profile, &schema);
    } else {
      route = SelectFastPath(profile, nullptr);
    }
  }
  ++counts_.dispatches;
  switch (route) {
    case FastPathRoute::kDownwardChain: {
      ++counts_.fastpath_routes;
      Tracer::Scope span(tracer_, Layer::kFastpath);
      return DownwardChainSatisfiable(phi, edtd);
    }
    case FastPathRoute::kVerticalConjunctive: {
      ++counts_.fastpath_routes;
      Tracer::Scope span(tracer_, Layer::kFastpath);
      return VerticalConjunctiveSatisfiable(phi, edtd);
    }
    case FastPathRoute::kNone:
      break;
  }

  if (f.uses_complement || f.uses_for) {
    // The bounded-search route has no layer of its own to trace; no
    // workload generates − or for.
    throw std::logic_error("traced dispatch: − / for are outside every workload");
  }

  if (options_.prefer_downward_engine && f.IsDownward() && !f.uses_star) {
    SatResult r;
    {
      Tracer::Scope span(tracer_, Layer::kDownward);
      r = edtd != nullptr ? DownwardSatisfiableWithEdtd(phi, *edtd, options_.downward)
                          : DownwardSatisfiable(phi, options_.downward);
    }
    if (r.status != SolveStatus::kResourceLimit) return r;
    ++counts_.fallbacks;
  }

  NodePtr target = phi;
  if (edtd != nullptr) {
    Tracer::Scope span(tracer_, Layer::kEdtdEncode);
    target = EncodeEdtdSatisfiability(phi, *edtd);
  }
  LExprPtr e;
  if (f.uses_intersect) {
    Tracer::Scope span(tracer_, Layer::kProduct);
    e = IntersectToLoopNormalForm(target);
  } else {
    Tracer::Scope span(tracer_, Layer::kNormalForm);
    e = ToLoopNormalForm(target);
  }
  if (!e) {
    SatResult r;
    r.engine = "dispatch:no-translation";
    r.status = SolveStatus::kResourceLimit;
    return r;
  }
  last_lexpr_ = e;
  SatResult r;
  {
    Tracer::Scope span(tracer_, Layer::kLoop);
    r = LoopSatisfiable(e, options_.loop);
  }
  if (edtd != nullptr) {
    r.engine += "+edtd-encoding";
    if (r.status == SolveStatus::kSat && r.witness.has_value()) {
      XmlTree decoded = StripWitnessLabels(*r.witness, *edtd);
      r.witness = std::move(decoded);
    }
  }
  return r;
}

SatResult TracedSolver::Dispatch(const NodePtr& phi, const Edtd* edtd) {
  last_psi_ops_ = -1;
  last_lexpr_ = nullptr;
  SatResult r = DispatchImpl(phi, edtd);
  if (r.engine.empty()) r.engine = "dispatch:unstamped";
  return r;
}

void TracedSolver::Account(const StatsSnapshot& stats, int64_t explored) {
  ++counts_.solves;
  counts_.downward_summaries += stats.value(Metric::kSatDownwardSummaries);
  counts_.loop_items += stats.value(Metric::kSatLoopItems);
  counts_.schemaindex_hits += stats.value(Metric::kSchemaIndexHits);
  counts_.schemaindex_cold_misses += stats.value(Metric::kSchemaIndexColdMisses);
  counts_.explored_states += explored;
}

// Solver::NodeSatisfiable: dispatch, then the witness re-check.
SatResult TracedSolver::NodeSatisfiable(const NodePtr& phi, const Edtd* edtd) {
  Stats collector;
  SatResult r;
  {
    ScopedStatsSink sink(&collector);
    Tracer::Scope solve(tracer_, Layer::kSolve);
    r = Dispatch(phi, edtd);
    if (options_.verify_witnesses && r.status == SolveStatus::kSat && r.witness.has_value()) {
      Tracer::Scope span(tracer_, Layer::kVerify);
      Evaluator ev(*r.witness);
      if (!ev.SatisfiedSomewhere(phi)) {
        r.status = SolveStatus::kResourceLimit;
        r.engine += ":witness-verification-failed";
        r.witness.reset();
      }
    }
  }
  r.stats = collector.Snapshot();
  Account(r.stats, r.explored_states);
  return r;
}

// Solver::Contains: the Prop. 4 reduction, dispatch, then decoding and the
// counterexample re-check of Solver::ToContainment.
ContainmentResult TracedSolver::Contains(const PathPtr& alpha, const PathPtr& beta,
                                         const Edtd* edtd) {
  Stats collector;
  ContainmentResult out;
  {
    ScopedStatsSink sink(&collector);
    Tracer::Scope solve(tracer_, Layer::kSolve);
    NodePtr psi;
    std::optional<Edtd> decorated;
    {
      Tracer::Scope span(tracer_, Layer::kProp4);
      if (edtd != nullptr) {
        auto [p, d] = ContainmentToUnsatWithEdtd(alpha, beta, *edtd);
        psi = std::move(p);
        decorated.emplace(std::move(d));
      } else {
        psi = ContainmentToUnsat(alpha, beta);
      }
    }
    SatResult sat = Dispatch(psi, decorated ? &*decorated : nullptr);
    const std::string super_root = decorated ? decorated->root_type() : "";
    out.engine = sat.engine;
    out.explored_states = sat.explored_states;
    switch (sat.status) {
      case SolveStatus::kUnsat:
        out.verdict = ContainmentVerdict::kContained;
        break;
      case SolveStatus::kResourceLimit:
        out.verdict = ContainmentVerdict::kUnknown;
        break;
      case SolveStatus::kSat:
        out.verdict = ContainmentVerdict::kNotContained;
        if (sat.witness.has_value()) {
          XmlTree counterexample = StripDecoration(*sat.witness, super_root);
          bool verified = true;
          if (options_.verify_witnesses) {
            Tracer::Scope span(tracer_, Layer::kVerify);
            Evaluator ev(counterexample);
            Relation a = ev.EvalPath(alpha);
            verified = a.SubtractWithAny(ev.EvalPath(beta));
          }
          if (verified) {
            out.counterexample = std::move(counterexample);
          } else {
            out.verdict = ContainmentVerdict::kUnknown;
            out.engine += ":counterexample-verification-failed";
          }
        }
        break;
    }
  }
  out.stats = collector.Snapshot();
  Account(out.stats, out.explored_states);
  return out;
}

void TracedSolver::FinishRequest(const PathPtr& alpha, const PathPtr& beta) {
  if (alpha != nullptr && beta != nullptr && last_psi_ops_ >= 0) {
    const int input_ops = ClassifyPath(alpha).ops + ClassifyPath(beta).ops;
    if (input_ops > 0) counts_.blowup.push_back(static_cast<double>(last_psi_ops_) / input_ops);
  }
  if (last_lexpr_ != nullptr) {
    counts_.dag_size.push_back(static_cast<double>(DagSizeOf(last_lexpr_)));
  }
  last_psi_ops_ = -1;
  last_lexpr_ = nullptr;
}

void ReportLayers(const Tracer& tracer, const LayerCounts& counts, Report* report) {
  auto self_median = [&](Layer layer) { return tracer.self(layer).Quantile(0.5); };
  auto ratio = [](int64_t part, int64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
  };
  report->Set("xpath.parse_ns", self_median(Layer::kParse));
  report->Set("xpath.intern_ns", self_median(Layer::kIntern));
  report->Set("core.session_hit_ns", self_median(Layer::kSessionHit));
  report->Set("core.solve_ns", tracer.total(Layer::kSolve).Quantile(0.5));
  report->Set("classify.profile_ns", self_median(Layer::kProfile));
  report->Set("classify.fastpath_ns", self_median(Layer::kFastpath));
  report->Set("classify.fastpath_ratio", ratio(counts.fastpath_routes, counts.dispatches));
  report->Set("reduction.prop4_ns", self_median(Layer::kProp4));
  report->Set("reduction.blowup", Median(counts.blowup));
  report->Set("schemaindex.build_s", tracer.total(Layer::kSchemaIndexBuild).sum() / 1e9);
  report->Set("schemaindex.hit_ratio",
              ratio(counts.schemaindex_hits,
                    counts.schemaindex_hits + counts.schemaindex_cold_misses));
  report->Set("pathauto.normal_form_ns", self_median(Layer::kNormalForm));
  report->Set("translate.product_ns", self_median(Layer::kProduct));
  report->Set("translate.dag_size", Median(counts.dag_size));
  report->Set("sat.downward_ns_p50", tracer.self(Layer::kDownward).Quantile(0.5));
  report->Set("sat.downward_ns_p99", tracer.self(Layer::kDownward).Quantile(0.99));
  report->Set("sat.loop_ns_p50", tracer.self(Layer::kLoop).Quantile(0.5));
  report->Set("sat.loop_ns_p99", tracer.self(Layer::kLoop).Quantile(0.99));
  const double solves = counts.solves == 0 ? 1.0 : static_cast<double>(counts.solves);
  report->Set("sat.downward_summaries", counts.downward_summaries / solves);
  report->Set("sat.loop_items", counts.loop_items / solves);
  report->Set("sat.explored_states", counts.explored_states / solves);
  report->Set("sat.fallbacks", static_cast<double>(counts.fallbacks));
  report->Set("eval.verify_ns", self_median(Layer::kVerify));
}

}  // namespace perfbench

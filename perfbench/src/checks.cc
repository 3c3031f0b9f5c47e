#include "checks.h"

#include <set>
#include <vector>

#include "xpc/edtd/conformance.h"
#include "xpc/eval/evaluator.h"
#include "xpc/tree/tree_generator.h"
#include "xpc/xpath/metrics.h"

namespace perfbench {

using namespace xpc;

namespace {

constexpr int kRefutationTrees = 24;
constexpr int kMaxTreeNodes = 9;

// Seeded small trees over the query's labels plus one it never mentions,
// or conforming samples when an EDTD is bound.
std::vector<XmlTree> RandomTrees(std::set<std::string> labels, const Edtd* edtd, uint64_t seed) {
  std::vector<XmlTree> trees;
  if (edtd != nullptr) {
    for (int i = 0; i < kRefutationTrees; ++i) {
      auto [ok, tree] = SampleConformingTree(*edtd, 4 * kMaxTreeNodes, seed + i);
      if (ok) trees.push_back(std::move(tree));
    }
    return trees;
  }
  labels.insert(FreshLabel(labels, "z"));
  TreeGenOptions options;
  options.alphabet.assign(labels.begin(), labels.end());
  TreeGenerator gen(seed);
  for (int i = 0; i < kRefutationTrees; ++i) {
    options.num_nodes = 1 + static_cast<int>(gen.NextBelow(kMaxTreeNodes));
    trees.push_back(gen.Generate(options));
  }
  return trees;
}

}  // namespace

std::string CheckContainment(const PathPtr& alpha, const PathPtr& beta, const Edtd* edtd,
                             ContainmentVerdict verdict,
                             const std::optional<XmlTree>& counterexample, uint64_t seed) {
  switch (verdict) {
    case ContainmentVerdict::kUnknown:
      return "";
    case ContainmentVerdict::kNotContained: {
      if (!counterexample.has_value()) return "not-contained without a counterexample";
      const XmlTree& tree = *counterexample;
      if (edtd != nullptr && !Conforms(tree, *edtd)) return "counterexample does not conform";
      Evaluator ev(tree);
      Relation a = ev.EvalPath(alpha);
      if (!a.SubtractWithAny(ev.EvalPath(beta))) return "counterexample is not one";
      return "";
    }
    case ContainmentVerdict::kContained: {
      std::set<std::string> labels = Labels(alpha);
      for (const std::string& l : Labels(beta)) labels.insert(l);
      for (const XmlTree& tree : RandomTrees(std::move(labels), edtd, seed)) {
        if (!Evaluator(tree).ContainedIn(alpha, beta)) return "contained, but a tree refutes it";
      }
      return "";
    }
  }
  return "unknown verdict value";
}

std::string CheckSat(const NodePtr& phi, const Edtd* edtd, SolveStatus status,
                     const std::optional<XmlTree>& witness, uint64_t seed) {
  switch (status) {
    case SolveStatus::kResourceLimit:
      return "";
    case SolveStatus::kSat:
      if (!witness.has_value()) return "sat without a witness";
      if (edtd != nullptr && !Conforms(*witness, *edtd)) return "witness does not conform";
      if (!Evaluator(*witness).SatisfiedSomewhere(phi)) return "witness does not satisfy";
      return "";
    case SolveStatus::kUnsat:
      for (const XmlTree& tree : RandomTrees(Labels(phi), edtd, seed)) {
        if (Evaluator(tree).SatisfiedSomewhere(phi)) return "unsat, but a tree satisfies it";
      }
      return "";
  }
  return "unknown status value";
}

}  // namespace perfbench

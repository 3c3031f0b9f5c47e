// Answer checks that do not trust the engines: every witness and
// counterexample is re-evaluated with the reference `Evaluator`, and every
// "contained" / "unsatisfiable" answer is attacked with seeded random small
// trees (trees sampled from the EDTD when one is bound).
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "xpc/core/solver.h"
#include "xpc/edtd/edtd.h"

namespace perfbench {

/// Returns "" when the answer survives every check, else what failed.
/// kUnknown answers are not checked (they count as failed, not wrong).
std::string CheckContainment(const xpc::PathPtr& alpha, const xpc::PathPtr& beta,
                             const xpc::Edtd* edtd, xpc::ContainmentVerdict verdict,
                             const std::optional<xpc::XmlTree>& counterexample, uint64_t seed);
std::string CheckSat(const xpc::NodePtr& phi, const xpc::Edtd* edtd, xpc::SolveStatus status,
                     const std::optional<xpc::XmlTree>& witness, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

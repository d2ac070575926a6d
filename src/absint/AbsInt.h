//===--- AbsInt.h - Flow-sensitive interval abstract interpretation -*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static pre-pass over ir::Module: a flow-sensitive interval abstract
/// interpreter (widening/narrowing at loop heads via ir::Dominators,
/// branch-condition refinement on both condbr successors, call inlining
/// with a depth cap) whose per-instruction facts are sound under all four
/// runtime rounding modes. Three consumers:
///
///  - site pruning: classifySites() proves instrumented sites Unreachable
///    or ProvedSafe so the task adapters drop them from the search
///    objective (api/tasks/, Report's "static" section);
///  - start-box shrinking: shrinkStartBox() probes per-dimension segments
///    of the start box and keeps only those from which a target site is
///    still feasible. No task adapter uses it (the start box is the
///    spec's); only e2ebench's layer replay still times it;
///  - bytecode verification: vm::verifyBytecode (vm/Verify.h) reuses the
///    same "static facts as certificates" discipline on lowered code.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_ABSINT_ABSINT_H
#define WDM_ABSINT_ABSINT_H

#include "absint/Interval.h"
#include "instrument/Sites.h"
#include "ir/Module.h"

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace wdm::absint {

struct AnalysisOptions {
  /// Call-inlining depth cap; beyond it calls havoc globals and return
  /// top, and the callee's facts are invalidated.
  unsigned MaxCallDepth = 8;
  /// Joins at a loop head before widening kicks in.
  unsigned WidenDelay = 3;
  /// Total block-transfer budget across the whole analysis (including
  /// inlined callees); exceeding it abandons the analysis as incomplete.
  unsigned MaxBlockVisits = 50000;
  /// Decreasing (narrowing) passes after stabilization.
  unsigned NarrowPasses = 2;
  /// Optional entry restriction per *double* argument, indexed by the
  /// argument's double-ordinal (the search dimension). Shorter than the
  /// dimension count or empty means top for the missing dimensions.
  std::vector<FPInterval> ArgRanges;
};

/// Result of analyzing one function (the analysis entry point; callees
/// are inlined into it). Facts are joins over every context in which an
/// instruction may execute, so they are certificates for any input.
class FunctionAnalysis {
public:
  explicit FunctionAnalysis(const ir::Function &F,
                            AnalysisOptions Opts = {});
  ~FunctionAnalysis();
  FunctionAnalysis(FunctionAnalysis &&) noexcept;
  FunctionAnalysis &operator=(FunctionAnalysis &&) noexcept;

  const ir::Function &function() const;

  /// False when a budget or recursion forced the analysis to give up; all
  /// queries then degrade to "don't know" answers.
  bool complete() const;

  /// The abstract value of a non-void instruction, joined over every
  /// context that reaches it. Top when the analysis is incomplete or the
  /// instruction's function had its facts invalidated; bottom when the
  /// instruction was never reached.
  AbstractValue factFor(const ir::Instruction *I) const;

  /// True if \p I may execute (fact or feasibility was recorded for it).
  bool instReached(const ir::Instruction *I) const;

  /// True if entry-function block \p BB may be entered.
  bool blockReachable(const ir::BasicBlock *BB) const;

  /// May condbr \p Branch take the \p TakenTrue direction? Conservative
  /// "yes" when incomplete.
  bool edgeFeasible(const ir::Instruction *Branch, bool TakenTrue) const;

  /// May the operands of comparison \p Cmp be equal (the boundary-hit
  /// condition, which NaN operands can never satisfy)? Conservative "yes"
  /// when incomplete.
  bool cmpEqualityPossible(const ir::Instruction *Cmp) const;

  struct Impl;

private:
  std::unique_ptr<Impl> P;
};

enum class SiteVerdict { Unknown, ProvedSafe, Unreachable };

const char *siteVerdictName(SiteVerdict V);

/// Classifies one instrumented site against the analysis facts:
///  - any kind is Unreachable when its instruction cannot execute (for
///    branch sites: when that direction cannot be taken);
///  - an FPOp site is ProvedSafe when its result is proved finite, below
///    the overflow threshold |r| < MaxDouble, and never NaN;
///  - a Comparison site is ProvedSafe when its operands can never be
///    equal (no boundary to hit).
SiteVerdict classifySite(const FunctionAnalysis &FA, const instr::Site &S);

struct SiteReport {
  int Id = -1;
  instr::SiteKind Kind = instr::SiteKind::Comparison;
  SiteVerdict Verdict = SiteVerdict::Unknown;
  std::string Reason;
};

/// Classifies every site in \p Sites; order follows the table.
std::vector<SiteReport> classifySites(const FunctionAnalysis &FA,
                                      const instr::SiteTable &Sites);

/// True if any site in \p Active still classifies Unknown under \p FA —
/// the feasibility predicate for start-box probing.
bool anySiteMaybeTriggers(const FunctionAnalysis &FA,
                          const instr::SiteTable &Sites,
                          const std::unordered_set<int> &Active);

struct BoxShrinkResult {
  double Lo = 0;
  double Hi = 0;
  bool Changed = false;
};

/// Start-box concentration: splits [Lo, Hi] into \p Segments slices per
/// input dimension, re-analyzes with that dimension restricted to each
/// slice (other dimensions unrestricted), and keeps slices where
/// \p Feasible still holds. Returns the scalar hull of kept slices across
/// dimensions intersected with the original box; unchanged when nothing
/// can be excluded (or everything can — an empty box would be useless to
/// a searcher whose wild starts roam anyway).
BoxShrinkResult shrinkStartBox(
    const ir::Function &F, double Lo, double Hi,
    const AnalysisOptions &Base,
    const std::function<bool(const FunctionAnalysis &)> &Feasible,
    unsigned Segments = 16);

} // namespace wdm::absint

#endif // WDM_ABSINT_ABSINT_H

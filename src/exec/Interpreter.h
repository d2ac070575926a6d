//===--- Interpreter.h - Mini-IR interpreter -------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine behind every weak-distance evaluation. Key design
/// points mirroring the paper:
///  - arithmetic is genuine IEEE-754 binary64 machine arithmetic (the
///    approach "explores a program's input space guided by runtime
///    computation", Section 1);
///  - the rounding mode is switchable (the Fig. 1 example behaves
///    differently under round-to-nearest and round-toward-zero);
///  - observers watch instructions and branches without perturbing
///    semantics (used for soundness validation and trace forensics);
///  - execution is bounded by a step budget so optimizer-driven sampling
///    can never hang on a diverging loop.
///
/// An Engine precomputes per-function value numbering; the module must not
/// be structurally modified afterwards (instrument first, then build the
/// Engine).
///
//===----------------------------------------------------------------------===//

#ifndef WDM_EXEC_INTERPRETER_H
#define WDM_EXEC_INTERPRETER_H

#include "exec/ExecContext.h"
#include "exec/RuntimeValue.h"
#include "ir/Module.h"

#include <cfenv>
#include <string>
#include <unordered_map>
#include <vector>

namespace wdm::exec {

/// Watches execution; default implementations do nothing.
class ExecObserver {
public:
  virtual ~ExecObserver();

  /// Called after each value-producing instruction with its evaluated
  /// operands and result.
  virtual void onInstruction(const ir::Instruction *I, const RTValue *Ops,
                             unsigned NumOps, const RTValue &Result) {
    (void)I;
    (void)Ops;
    (void)NumOps;
    (void)Result;
  }

  /// Called at each conditional branch with the taken direction.
  virtual void onBranch(const ir::Instruction *CondBr, bool TakenTrue) {
    (void)CondBr;
    (void)TakenTrue;
  }
};

/// IEEE-754 rounding modes (paper Section 1 discusses both of the first
/// two on the motivating example).
enum class RoundingMode : uint8_t {
  NearestEven,
  TowardZero,
  Upward,
  Downward,
};

/// RAII: installs a rounding mode for the duration of one run. The
/// interpreter, the VM and the JIT each wrap every evaluation in one (the
/// JIT's emitted SSE2 code honors MXCSR, which fesetround also drives).
/// It only reads and writes the FP environment and does no arithmetic,
/// so inlining it into a TU built without -frounding-math is safe.
class RoundingScope {
public:
  explicit RoundingScope(RoundingMode RM) : Saved(std::fegetround()) {
    // fesetround rewrites both the x87 control word and MXCSR — tens of
    // ns per eval. In the dominant case (ambient and requested mode are
    // both to-nearest) both writes are skippable.
    if (Saved != feMode(RM))
      std::fesetround(feMode(RM));
    else
      Saved = -1;
  }
  ~RoundingScope() {
    if (Saved != -1)
      std::fesetround(Saved);
  }
  RoundingScope(const RoundingScope &) = delete;
  RoundingScope &operator=(const RoundingScope &) = delete;

private:
  static int feMode(RoundingMode RM) {
    switch (RM) {
    case RoundingMode::NearestEven:
      return FE_TONEAREST;
    case RoundingMode::TowardZero:
      return FE_TOWARDZERO;
    case RoundingMode::Upward:
      return FE_UPWARD;
    case RoundingMode::Downward:
      return FE_DOWNWARD;
    }
    return FE_TONEAREST;
  }

  int Saved;
};

struct ExecOptions {
  uint64_t MaxSteps = 2'000'000;
  unsigned MaxCallDepth = 64;
  RoundingMode Rounding = RoundingMode::NearestEven;
};

struct ExecResult {
  enum class Outcome : uint8_t {
    Ok,                ///< Normal return.
    Trapped,           ///< A trap instruction executed (assertion failure).
    StepLimitExceeded, ///< The step budget ran out.
  };

  Outcome Kind = Outcome::Ok;
  RTValue ReturnValue;
  uint64_t Steps = 0;
  int TrapId = -1;
  std::string TrapMessage;

  bool ok() const { return Kind == Outcome::Ok; }
  bool trapped() const { return Kind == Outcome::Trapped; }
};

class Engine {
public:
  /// Precomputes value numbering for every function of \p M. \p M must
  /// outlive the engine and must not change structurally afterwards.
  explicit Engine(const ir::Module &M);

  const ir::Module &module() const { return M; }

  /// Runs \p F on \p Args within the cross-call state \p Ctx.
  ExecResult run(const ir::Function *F, const std::vector<RTValue> &Args,
                 ExecContext &Ctx, const ExecOptions &Opts = {}) const;

private:
  struct FunctionLayout {
    std::unordered_map<const ir::Value *, unsigned> ValueIndex;
    std::unordered_map<const ir::Instruction *, unsigned> SlotIndex;
    unsigned NumValues = 0;
    unsigned NumSlots = 0;
  };

  const FunctionLayout &layoutOf(const ir::Function *F) const;

  ExecResult runFrame(const ir::Function *F,
                      const std::vector<RTValue> &Args, ExecContext &Ctx,
                      const ExecOptions &Opts, uint64_t &Steps,
                      unsigned Depth) const;

  const ir::Module &M;
  std::unordered_map<const ir::Function *, FunctionLayout> Layouts;
};

} // namespace wdm::exec

#endif // WDM_EXEC_INTERPRETER_H

//===--- Machine.h - Threaded-code VM for the compiled tier ----*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine of the compiled tier: runs Bytecode.h programs
/// with computed-goto threaded dispatch (a GNU extension, so GCC or
/// Clang only) over untyped 64-bit registers. Semantics are bit-for-bit
/// the interpreter's — genuine IEEE-754 binary64 machine arithmetic,
/// the same fesetround rounding-mode switching (this TU is compiled
/// with -frounding-math), the same step-budget and call-depth
/// accounting (one step per executed instruction, checked before
/// execution), and the same ExecContext global/site state.
///
/// Differences from exec::Engine, by design:
///  - no per-instruction virtual calls or hash lookups — operands were
///    pre-resolved by the lowering;
///  - ExecObserver::onBranch is delivered (one predictable null check per
///    conditional branch), but onInstruction is NOT: the VM is the
///    no-observer fast tier, and every instruction-observing caller
///    (probe replay, root-cause forensics) runs on the interpreter.
///
/// A Machine owns a reusable frame stack and is therefore stateful but
/// cheap; SearchEngine workers each mint their own (one Machine per
/// minted vm::VMWeakDistance).
///
//===----------------------------------------------------------------------===//

#ifndef WDM_VM_MACHINE_H
#define WDM_VM_MACHINE_H

#include "exec/ExecContext.h"
#include "exec/Interpreter.h"
#include "vm/Bytecode.h"

#include <vector>

namespace wdm::vm {

class Machine {
public:
  /// \p CM must outlive the machine (the factory owns it).
  explicit Machine(const CompiledModule &CM) : CM(CM) {}

  const CompiledModule &compiled() const { return CM; }

  /// Runs \p F (which must be Ok) on \p Args within \p Ctx. Mirrors
  /// exec::Engine::run, including the returned ExecResult's Steps.
  exec::ExecResult run(const CompiledFunction &F,
                       const std::vector<exec::RTValue> &Args,
                       exec::ExecContext &Ctx,
                       const exec::ExecOptions &Opts = {});

  /// All-double fast path: the weak-distance evaluation signature.
  exec::ExecResult run(const CompiledFunction &F, const double *Args,
                       size_t NumArgs, exec::ExecContext &Ctx,
                       const exec::ExecOptions &Opts = {});

private:
  /// One untyped 64-bit frame register.
  union Reg {
    double D;
    int64_t I;
    uint64_t U;
  };

  exec::ExecResult runFrame(const CompiledFunction &F, size_t Base,
                            exec::ExecContext &Ctx,
                            const exec::ExecOptions &Opts, uint64_t &Steps,
                            unsigned Depth);

  /// Loads constants and zeroes slot registers of a freshly carved frame.
  void initFrame(const CompiledFunction &F, size_t Base);

  const CompiledModule &CM;
  std::vector<Reg> Stack;
};

} // namespace wdm::vm

#endif // WDM_VM_MACHINE_H

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

/// One lane's outcome of a batched run (Machine::runBatch): the result
/// kind, the lane's exact step count (bit-for-bit the scalar run's), and
/// the value of the watched global slot at lane end (meaningful for Ok
/// and Trapped lanes — the weak-distance policy; unspecified on step
/// limit, where the caller substitutes +inf anyway).
struct LaneOutcome {
  exec::ExecResult::Outcome Kind = exec::ExecResult::Outcome::Ok;
  uint64_t Steps = 0;
  double Watched = 0;
};

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

  /// Batched weak-distance driver: executes \p F once per lane over the
  /// K packed input rows (row-major K x NumArgs doubles), each lane
  /// observationally identical to
  ///   Ctx.resetGlobals();
  ///   Ctx.globalSlots()[WatchSlot] = WatchInit;
  ///   run(F, row l);
  ///   Out[l].Watched = globalSlots()[WatchSlot];
  /// but executed in lockstep: one struct-of-arrays frame holds all K
  /// lanes (per-lane register and global columns), and each straight-line
  /// opcode dispatches once and iterates the lanes of the current group.
  /// Lanes fall out of lockstep only where they must — a step-limited
  /// lane retires in place, a call runs per lane on the scalar stack,
  /// and a *divergent* conditional branch splits the group in two: the
  /// taken lanes continue in lockstep immediately, the others are queued
  /// and resume in lockstep from their own target (degrading, in the
  /// worst case, to per-lane stepping through the same engine). Requires
  /// Ctx.observer() == null (callers fall back to scalar evaluation for
  /// observed runs — batch lane interleaving would reorder observer
  /// events); leaves Ctx's global values unspecified (some lane's end
  /// state).
  void runBatch(const CompiledFunction &F, const double *Xs, size_t K,
                unsigned WatchSlot, double WatchInit,
                exec::ExecContext &Ctx, const exec::ExecOptions &Opts,
                LaneOutcome *Out);

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

  // Batch-mode state, member-owned so repeated runBatch calls reuse the
  // allocations. BStack/BGlob are column-major over lanes:
  // BStack[reg * K + lane], BGlob[slot * K + lane]. BLanes holds the
  // lane ids of every in-flight group as disjoint contiguous spans
  // (groups split in place at divergent branches, via BScratch).
  std::vector<Reg> BStack;
  std::vector<Reg> BGlob;
  std::vector<ir::Type> BGlobType;
  std::vector<uint64_t> BSteps;
  std::vector<uint32_t> BLanes;
  std::vector<uint32_t> BScratch;
};

} // namespace wdm::vm

#endif // WDM_VM_MACHINE_H

//===--- JITWeakDistance.h - Native-tier weak distance ---------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native counterpart of vm::VMWeakDistance — the paper's W driver
/// (reset globals, seed w, run Prog_w, read w back) executed as
/// JIT-compiled machine code. The factory is a drop-in above
/// vm::VMWeakDistanceFactory with the same graceful-degradation
/// contract the VM has over the interpreter: when the JIT cannot take
/// the subject (or one of its callees, or the host at all), minted
/// evaluators come from the embedded VM factory instead — which itself
/// still degrades to the interpreter — and fallbackReason() says why.
/// Results are bit-for-bit identical on every tier; only throughput
/// changes.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_JIT_JITWEAKDISTANCE_H
#define WDM_JIT_JITWEAKDISTANCE_H

#include "jit/JITCompile.h"
#include "vm/VMWeakDistance.h"

#include <memory>
#include <string>
#include <vector>

namespace wdm::jit {

/// "'interp', 'vm', 'jit'" with an availability annotation when the
/// JIT cannot run on this host — for strict engine-name errors (CLI
/// flags and spec validation), so users see what they can ask for.
std::string engineNamesForErrors();

/// Runs one JIT-compiled function against \p Ctx the way
/// vm::Machine::run does — same argument conversion, same rounding
/// scope, same ExecResult shape. The differential tests drive the
/// native tier through this.
exec::ExecResult run(const CompiledModule &JM, const CompiledFunction &JF,
                     const std::vector<exec::RTValue> &Args,
                     exec::ExecContext &Ctx,
                     const exec::ExecOptions &Opts = {});

/// Persistent-state native executor — the jit tier's analogue of
/// vm::Machine. Binds a module and context once, then serves repeated
/// runs without re-deriving per-call state: the JitRT invariants, the
/// callee arena, and a per-function frame image (zeros + consts, ready
/// to memcpy) are built once and reused. Observable semantics are
/// exactly jit::run's — typed globals are mirrored in before and
/// written back after every run, the rounding scope wraps each call,
/// and results are bit-for-bit identical.
class Runner {
public:
  Runner(const CompiledModule &JM, exec::ExecContext &Ctx,
         exec::ExecOptions Opts = {});

  exec::ExecResult run(const CompiledFunction &JF,
                       const std::vector<exec::RTValue> &Args);

private:
  const CompiledModule &JM;
  exec::ExecContext &Ctx;
  exec::ExecOptions Opts;
  JitRT RT;                      ///< Invariant fields filled once.
  std::vector<uint64_t> RawGlob; ///< 8-byte payload per global slot.
  std::vector<Reg> Frame;        ///< Subject frame (arena serves callees).
  std::vector<Reg> Arena;        ///< Callee frames, pre-sized.
  std::vector<std::vector<Reg>> FrameImages; ///< Lazy, per function.
};

/// One native weak-distance evaluator: owns its ExecContext, raw global
/// mirror, frame, and callee arena, so SearchEngine workers never share
/// mutable state.
class JITWeakDistance : public core::WeakDistance {
public:
  /// \p JM (and the vm module it was emitted from) must outlive the
  /// evaluator; \p WIdx is the dense slot of the accumulator global.
  JITWeakDistance(const CompiledModule &JM, const CompiledFunction &JF,
                  unsigned WIdx, double WInit,
                  const exec::ExecContext &Parent, exec::ExecOptions Opts);

  unsigned dim() const override { return JF.VF->NumArgs; }
  double operator()(const std::vector<double> &X) override;

  std::string name() const override { return JF.VF->Source->name(); }

  /// State of the most recent evaluation (same contract as the VM's).
  const exec::ExecResult &lastResult() const { return Last; }
  exec::ExecContext &context() { return Ctx; }

private:
  /// One native run over the staged raw-global mirror; fills Last.
  void runNative(const double *Args);

  const CompiledModule &JM;
  const CompiledFunction &JF;
  unsigned WIdx;
  double WInit;
  exec::ExecContext Ctx;
  exec::ExecOptions Opts;
  exec::ExecResult Last;
  NativeFn Entry;                ///< Resolved once in the constructor.
  JitRT RT;                      ///< Invariant fields filled once.
  std::vector<uint64_t> RawGlob; ///< 8-byte payload per global slot.
  std::vector<Reg> Frame;        ///< Subject frame (arena serves callees).
  std::vector<Reg> Arena;        ///< Callee frames, pre-sized — never grows.
  /// The subject frame's initial contents (zeros + consts): memcpy'd
  /// into Frame per evaluation, then the args are poked on top.
  std::vector<Reg> FrameImage;
  /// Raw mirror of the evaluation precondition — globals reset to their
  /// initializers with w seeded to WInit. resetGlobals() is
  /// deterministic, so one pull at construction replaces the per-call
  /// reset+seed+pull sequence bit-for-bit.
  std::vector<uint64_t> ResetRawImage;
};

/// Drop-in above vm::VMWeakDistanceFactory that mints native
/// evaluators, falling back to the embedded VM factory (and through it
/// to the interpreter) when the JIT rejected the subject, a callee, or
/// the host.
class JITWeakDistanceFactory : public core::WeakDistanceFactory {
public:
  JITWeakDistanceFactory(const exec::Engine &E, const ir::Function *F,
                         const ir::GlobalVar *WVar, double WInit,
                         const exec::ExecContext &Parent,
                         exec::ExecOptions Opts = {},
                         const vm::Limits &VL = {}, const Limits &JL = {});

  unsigned dim() const override { return F->numArgs(); }
  std::unique_ptr<core::WeakDistance> make() override;

  /// True when minted evaluators execute native code.
  bool usingJIT() const { return Target != nullptr; }
  /// Why the JIT refused (empty when usingJIT()).
  const std::string &fallbackReason() const { return Reason; }
  /// The embedded VM factory serving the fallback path (it reports its
  /// own, further, interpreter fallback).
  vm::VMWeakDistanceFactory &vmFallback() { return VMFallback; }
  const CompiledModule &compiled() const { return JITCompiled; }

private:
  const ir::Function *F;
  const ir::GlobalVar *WVar;
  double WInit;
  const exec::ExecContext &Parent;
  exec::ExecOptions Opts;

  /// Owns the one lowering of the module. The native code is compiled
  /// from it and points into its pools, so it is declared (and built)
  /// before JITCompiled and outlives it.
  vm::VMWeakDistanceFactory VMFallback;
  CompiledModule JITCompiled;
  const CompiledFunction *Target = nullptr; ///< Null => fallback.
  unsigned WIdx = 0;
  std::string Reason;
};

} // namespace wdm::jit

#endif // WDM_JIT_JITWEAKDISTANCE_H

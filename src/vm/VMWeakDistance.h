//===--- VMWeakDistance.h - Compiled-tier weak distance --------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled counterpart of instr::IRWeakDistance — the paper's W
/// driver (reset globals, seed w, run Prog_w, read w back) executed on
/// the vm::Machine instead of the tree-walking interpreter. The factory
/// is a drop-in for instr::IRWeakDistanceFactory: same constructor shape,
/// same thread-local minting contract (each make() owns a private
/// ExecContext snapshotting the parent's site state, plus its own
/// Machine), and **automatic interpreter fallback** — when the lowering
/// rejects the subject (or one of its callees), minted evaluators run on
/// the interpreter instead and fallbackReason() says why. Results are
/// bit-for-bit identical either way; only throughput changes.
///
/// EngineKind names the two execution tiers; api::SearchConfig's `engine`
/// field and every analysis constructor select by it (VM is the default
/// tier everywhere).
///
//===----------------------------------------------------------------------===//

#ifndef WDM_VM_VMWEAKDISTANCE_H
#define WDM_VM_VMWEAKDISTANCE_H

#include "instrument/IRWeakDistance.h"
#include "vm/Lowering.h"
#include "vm/Machine.h"

#include <memory>
#include <string>

namespace wdm::vm {

/// The execution tiers behind every weak-distance evaluation.
enum class EngineKind : uint8_t {
  Interp, ///< exec::Engine, the tree-walking interpreter.
  VM,     ///< vm::Machine over lowered bytecode (the default).
  JIT,    ///< jit:: native code compiled from the lowered bytecode.
};

const char *engineKindName(EngineKind K);
/// Parses "interp" / "vm" / "jit"; false on anything else. "jit" parses
/// on every platform — availability is a factory concern (unavailable
/// hosts fall back to the VM and report it via FactoryBundle).
bool engineKindByName(const std::string &Name, EngineKind &Out);

/// One compiled weak-distance evaluator: owns its ExecContext and its
/// Machine, so SearchEngine workers never share mutable state.
class VMWeakDistance : public core::WeakDistance {
public:
  /// \p CM/\p F must outlive the evaluator (the factory owns them).
  /// \p WIdx is the dense slot of the accumulator global `w`.
  VMWeakDistance(const CompiledModule &CM, const CompiledFunction &F,
                 unsigned WIdx, double WInit,
                 const exec::ExecContext &Parent, exec::ExecOptions Opts);

  unsigned dim() const override { return F.NumArgs; }
  double operator()(const std::vector<double> &X) override;

  std::string name() const override { return F.Source->name(); }

  /// State of the most recent evaluation.
  const exec::ExecResult &lastResult() const { return Last; }
  exec::ExecContext &context() { return Ctx; }

private:
  const CompiledFunction &F;
  unsigned WIdx;
  double WInit;
  exec::ExecContext Ctx;
  Machine Mach;
  exec::ExecOptions Opts;
  exec::ExecResult Last;
};

/// Drop-in replacement for instr::IRWeakDistanceFactory that mints
/// compiled evaluators, falling back to interpreter-backed ones when the
/// lowering rejected the subject function (or a callee).
class VMWeakDistanceFactory : public core::WeakDistanceFactory {
public:
  VMWeakDistanceFactory(const exec::Engine &E, const ir::Function *F,
                        const ir::GlobalVar *WVar, double WInit,
                        const exec::ExecContext &Parent,
                        exec::ExecOptions Opts = {},
                        const Limits &L = {});

  unsigned dim() const override { return F->numArgs(); }
  std::unique_ptr<core::WeakDistance> make() override;

  /// True when minted evaluators execute compiled code.
  bool usingVM() const { return Target != nullptr; }
  /// Why the lowering refused (empty when usingVM()).
  const std::string &fallbackReason() const { return Reason; }
  const CompiledModule &compiled() const { return Compiled; }

private:
  const ir::Function *F;
  const ir::GlobalVar *WVar;
  double WInit;
  const exec::ExecContext &Parent;
  exec::ExecOptions Opts;

  CompiledModule Compiled;
  const CompiledFunction *Target = nullptr; ///< Null => fallback.
  unsigned WIdx = 0;
  instr::IRWeakDistanceFactory InterpFallback;
  std::string Reason;
};

/// An engine-selected factory plus what actually got used — the unit the
/// analyses store and the Report's `engine` / `engine_fallback` fields
/// are filled from.
struct FactoryBundle {
  std::unique_ptr<core::WeakDistanceFactory> Factory;
  EngineKind Requested = EngineKind::VM;
  EngineKind Effective = EngineKind::Interp;
  /// Set when the effective tier is below the requested one (the
  /// lowering rejected the subject, or the JIT is unavailable / refused
  /// and fell through to the VM or further).
  std::string FallbackReason;

  const char *effectiveName() const { return engineKindName(Effective); }
  core::WeakDistanceFactory &operator*() const { return *Factory; }
};

/// Builds the factory for \p Requested: the interpreter factory as-is,
/// a VMWeakDistanceFactory whose effective tier reflects lowering
/// success, or a jit::JITWeakDistanceFactory degrading through the full
/// jit -> vm -> interp chain. Argument shape matches
/// instr::IRWeakDistanceFactory. (Defined in src/jit/ so the JIT tier
/// can be selected without the vm layer depending on it.)
FactoryBundle makeWeakDistanceFactory(EngineKind Requested,
                                      const exec::Engine &E,
                                      const ir::Function *F,
                                      const ir::GlobalVar *WVar,
                                      double WInit,
                                      const exec::ExecContext &Parent,
                                      exec::ExecOptions Opts = {},
                                      const Limits &L = {});

} // namespace wdm::vm

#endif // WDM_VM_VMWEAKDISTANCE_H

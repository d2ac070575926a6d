//===--- IRWeakDistance.h - Weak distance over instrumented IR -*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The W driver program of the paper (e.g. Fig. 3's
/// `double W(double x) { w = 1; Prog_w(x); return w; }`) realized over
/// the interpreter: each evaluation resets globals, seeds `w`, runs the
/// instrumented clone on the candidate input, and reads `w` back.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_INSTRUMENT_IRWEAKDISTANCE_H
#define WDM_INSTRUMENT_IRWEAKDISTANCE_H

#include "core/SearchEngine.h"
#include "core/WeakDistance.h"
#include "exec/Interpreter.h"

#include <memory>

namespace wdm::instr {

class IRWeakDistance : public core::WeakDistance {
public:
  /// \p F must take only double arguments. \p Ctx carries globals and the
  /// site-enabled table between evaluations (Algorithm 3 mutates it).
  IRWeakDistance(const exec::Engine &E, const ir::Function *F,
                 const ir::GlobalVar *WVar, double WInit,
                 exec::ExecContext &Ctx, exec::ExecOptions Opts = {});

  unsigned dim() const override { return F->numArgs(); }

  /// Runs the instrumented program; diverging runs (step limit) yield
  /// +inf, which the objective layer treats as "worst".
  double operator()(const std::vector<double> &X) override;

  std::string name() const override { return F->name(); }

  /// State of the most recent evaluation.
  const exec::ExecResult &lastResult() const { return Last; }
  int64_t readIntGlobal(const ir::GlobalVar *G) const;
  double readDoubleGlobal(const ir::GlobalVar *G) const;

  exec::ExecContext &context() { return Ctx; }
  const exec::ExecOptions &options() const { return Opts; }

private:
  const exec::Engine &E;
  const ir::Function *F;
  const ir::GlobalVar *WVar;
  double WInit;
  exec::ExecContext &Ctx;
  exec::ExecOptions Opts;
  exec::ExecResult Last;
  std::vector<exec::RTValue> ArgBuf; ///< Reused across evaluations.
};

/// Mints independent IRWeakDistance evaluators for the SearchEngine's
/// worker threads. Each minted evaluator owns a private ExecContext whose
/// site-enabled table is snapshotted from \p Parent at make() time, so
/// workers see the same evolving set L / covered set B as the driver
/// without sharing any mutable interpreter state. The Engine itself is
/// immutable after construction and safely shared.
class IRWeakDistanceFactory : public core::WeakDistanceFactory {
public:
  IRWeakDistanceFactory(const exec::Engine &E, const ir::Function *F,
                        const ir::GlobalVar *WVar, double WInit,
                        const exec::ExecContext &Parent,
                        exec::ExecOptions Opts = {})
      : E(E), F(F), WVar(WVar), WInit(WInit), Parent(Parent), Opts(Opts) {}

  unsigned dim() const override { return F->numArgs(); }

  std::unique_ptr<core::WeakDistance> make() override;

private:
  const exec::Engine &E;
  const ir::Function *F;
  const ir::GlobalVar *WVar;
  double WInit;
  const exec::ExecContext &Parent;
  exec::ExecOptions Opts;
};

} // namespace wdm::instr

#endif // WDM_INSTRUMENT_IRWEAKDISTANCE_H

//===--- VMWeakDistance.cpp - Compiled-tier weak distance ------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "vm/VMWeakDistance.h"

#include <cassert>
#include <limits>

using namespace wdm;
using namespace wdm::vm;
using namespace wdm::exec;
using namespace wdm::ir;

const char *wdm::vm::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Interp:
    return "interp";
  case EngineKind::VM:
    return "vm";
  case EngineKind::JIT:
    return "jit";
  }
  return "?";
}

bool wdm::vm::engineKindByName(const std::string &Name, EngineKind &Out) {
  if (Name == "interp") {
    Out = EngineKind::Interp;
    return true;
  }
  if (Name == "vm") {
    Out = EngineKind::VM;
    return true;
  }
  if (Name == "jit") {
    Out = EngineKind::JIT;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// VMWeakDistance
//===----------------------------------------------------------------------===//

VMWeakDistance::VMWeakDistance(const CompiledModule &CM,
                               const CompiledFunction &F, unsigned WIdx,
                               double WInit, const ExecContext &Parent,
                               ExecOptions Opts)
    : F(F), WIdx(WIdx), WInit(WInit), Ctx(*CM.M), Mach(CM), Opts(Opts) {
  assert(F.Ok && "minting a VM evaluator for a rejected function");
  Ctx.adoptSiteState(Parent);
}

double VMWeakDistance::operator()(const std::vector<double> &X) {
  assert(X.size() == F.NumArgs && "input dimension mismatch");
  Ctx.resetGlobals();
  Ctx.globalSlots()[WIdx] = RTValue::ofDouble(WInit);

  Last = Mach.run(F, X.data(), X.size(), Ctx, Opts);
  if (Last.Kind == ExecResult::Outcome::StepLimitExceeded)
    return std::numeric_limits<double>::infinity();
  // Normal returns and traps both leave w meaningful (same policy as
  // instr::IRWeakDistance).
  return Ctx.globalSlots()[WIdx].asDouble();
}

//===----------------------------------------------------------------------===//
// VMWeakDistanceFactory
//===----------------------------------------------------------------------===//

VMWeakDistanceFactory::VMWeakDistanceFactory(
    const Engine &E, const Function *F, const GlobalVar *WVar,
    double WInit, const ExecContext &Parent, ExecOptions Opts,
    const Limits &L)
    : F(F), WVar(WVar), WInit(WInit), Parent(Parent), Opts(Opts),
      Compiled(compile(E.module(), L)),
      InterpFallback(E, F, WVar, WInit, Parent, Opts) {
  const CompiledFunction *CF = Compiled.lookup(F);
  assert(CF && "subject function outside the engine's module");
  if (CF->Ok) {
    Target = CF;
    WIdx = Parent.globalIndexOf(WVar);
  } else {
    Reason = CF->RejectReason;
  }
}

std::unique_ptr<core::WeakDistance> VMWeakDistanceFactory::make() {
  if (!Target)
    return InterpFallback.make();
  return std::make_unique<VMWeakDistance>(Compiled, *Target, WIdx, WInit,
                                          Parent, Opts);
}

// makeWeakDistanceFactory is defined in src/jit/JITWeakDistance.cpp so
// the EngineKind::JIT case can mint jit factories without this layer
// depending on the jit one.

//===--- IRWeakDistance.cpp - Weak distance over instrumented IR -----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "instrument/IRWeakDistance.h"

#include <cassert>
#include <limits>

using namespace wdm;
using namespace wdm::exec;
using namespace wdm::instr;
using namespace wdm::ir;

IRWeakDistance::IRWeakDistance(const Engine &E, const Function *F,
                               const GlobalVar *WVar, double WInit,
                               ExecContext &Ctx, ExecOptions Opts)
    : E(E), F(F), WVar(WVar), WInit(WInit), Ctx(Ctx), Opts(Opts) {
  for (unsigned I = 0; I < F->numArgs(); ++I)
    assert(F->arg(I)->type() == Type::Double &&
           "weak distances require dom(Prog) = F^N (Definition 2.1)");
}

double IRWeakDistance::operator()(const std::vector<double> &X) {
  assert(X.size() == F->numArgs() && "input dimension mismatch");
  ArgBuf.resize(X.size());
  for (size_t I = 0; I < X.size(); ++I)
    ArgBuf[I] = RTValue::ofDouble(X[I]);
  Ctx.resetGlobals();
  Ctx.setGlobal(WVar, RTValue::ofDouble(WInit));
  Last = E.run(F, ArgBuf, Ctx, Opts);
  if (Last.Kind == ExecResult::Outcome::StepLimitExceeded)
    return std::numeric_limits<double>::infinity();
  // Normal returns and traps both leave w meaningful: traps are program
  // behavior (e.g. assertion failures), not evaluation failures.
  return Ctx.getGlobal(WVar).asDouble();
}

int64_t IRWeakDistance::readIntGlobal(const GlobalVar *G) const {
  return Ctx.getGlobal(G).asInt();
}

double IRWeakDistance::readDoubleGlobal(const GlobalVar *G) const {
  return Ctx.getGlobal(G).asDouble();
}

namespace {

/// An IRWeakDistance bundled with the ExecContext it evaluates in — the
/// thread-local unit the factory mints.
class OwningIRWeakDistance : public core::WeakDistance {
public:
  OwningIRWeakDistance(const Engine &E, const Function *F,
                       const GlobalVar *WVar, double WInit,
                       const ExecContext &Parent, ExecOptions Opts)
      : Ctx(E.module()), W(E, F, WVar, WInit, Ctx, Opts) {
    Ctx.adoptSiteState(Parent);
  }

  unsigned dim() const override { return W.dim(); }
  double operator()(const std::vector<double> &X) override { return W(X); }
  std::string name() const override { return W.name(); }

private:
  ExecContext Ctx;
  IRWeakDistance W;
};

} // namespace

std::unique_ptr<core::WeakDistance> IRWeakDistanceFactory::make() {
  return std::make_unique<OwningIRWeakDistance>(E, F, WVar, WInit, Parent,
                                                Opts);
}

//===--- BoundaryAnalysis.cpp - Instance 1 driver -----------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"

using namespace wdm;
using namespace wdm::analyses;
using namespace wdm::exec;

class BoundaryAnalysis::MembershipOracle : public core::AnalysisProblem {
public:
  explicit MembershipOracle(BoundaryAnalysis &Parent) : Parent(Parent) {}

  unsigned dim() const override { return Parent.Orig.numArgs(); }

  bool contains(const std::vector<double> &X) override {
    return !Parent.hitsFor(X).empty();
  }

  std::string name() const override {
    return "boundary(" + Parent.Orig.name() + ")";
  }

private:
  BoundaryAnalysis &Parent;
};

BoundaryAnalysis::BoundaryAnalysis(
    ir::Module &M, ir::Function &F, instr::BoundaryForm Form,
    vm::EngineKind Engine,
    const std::function<bool(const instr::Site &)> &SkipSite)
    : M(M), Orig(F) {
  Instr = instr::instrumentBoundary(F, Form, SkipSite);
  Eng = std::make_unique<exec::Engine>(M);
  WeakCtx = std::make_unique<ExecContext>(M);
  ProbeCtx = std::make_unique<ExecContext>(M);
  Weak = std::make_unique<instr::IRWeakDistance>(
      *Eng, Instr.Wrapped, Instr.W, Instr.WInit, *WeakCtx);
  Factory = vm::makeWeakDistanceFactory(Engine, *Eng, Instr.Wrapped,
                                        Instr.W, Instr.WInit, *WeakCtx);
  Oracle = std::make_unique<MembershipOracle>(*this);
}

BoundaryAnalysis::~BoundaryAnalysis() = default;

core::AnalysisProblem &BoundaryAnalysis::problem() { return *Oracle; }

std::set<int> BoundaryAnalysis::hitsFor(const std::vector<double> &X) {
  instr::BoundaryHitObserver Obs;
  ProbeCtx->resetGlobals();
  ProbeCtx->setObserver(&Obs);
  std::vector<RTValue> Args;
  for (double V : X)
    Args.push_back(RTValue::ofDouble(V));
  Eng->run(&Orig, Args, *ProbeCtx);
  ProbeCtx->setObserver(nullptr);
  return Obs.hits();
}

core::SearchResult
BoundaryAnalysis::findOne(opt::Optimizer &Backend,
                          const core::SearchOptions &Opts,
                          opt::SampleRecorder *Recorder) {
  core::SearchEngine Engine(*Factory.Factory, Oracle.get());
  return Engine.solve(Backend, Opts, Recorder);
}

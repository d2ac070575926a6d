//===--- CoverageTask.cpp - Instance 4 adapter -------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BranchCoverage.h"
#include "api/TaskRegistry.h"
#include "api/tasks/Common.h"
#include "api/tasks/Prune.h"

#include <thread>

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

namespace {

Expected<Report> runCoverage(TaskContext &Ctx) {
  analyses::BranchCoverage Cov(*Ctx.M, *Ctx.F, Ctx.engineKind());
  analyses::BranchCoverage::Options Opts;
  Opts.Reduce = Ctx.searchOptions(Opts.Reduce);
  if (Ctx.Spec.MaxStall)
    Opts.MaxStall = *Ctx.Spec.MaxStall;
  tasks::PrunePlan Plan = tasks::planPrune(Ctx);
  tasks::classifySites(Plan, Cov.sites());
  Opts.ExcludedDirs = tasks::droppedSorted(Plan);

  analyses::CoverageReport R = Cov.run(Ctx.primaryBackend(), Opts);

  Report Rep;
  tasks::fillStatic(Rep, Plan);
  Rep.Success = R.Total == R.Covered;
  Rep.Evals = R.Evals;
  tasks::fillEngine(Rep, Cov.executionTier());
  Rep.ThreadsUsed =
      Opts.Reduce.Threads
          ? Opts.Reduce.Threads
          : std::max(1u, std::thread::hardware_concurrency());
  for (const std::vector<double> &Input : R.TestInputs) {
    Finding F;
    F.Kind = "coverage-test";
    F.Input = Input;
    Value Dirs = Value::array();
    for (int Id : Cov.directionsTaken(Input))
      Dirs.push(Value::number(static_cast<int64_t>(Id)));
    F.Details = Value::object().set("directions", Dirs);
    Rep.Findings.push_back(std::move(F));
  }
  Rep.Extra = Value::object()
                  .set("covered", Value::number(R.Covered))
                  .set("total", Value::number(R.Total))
                  .set("ratio", Value::number(R.ratio()));
  return Rep;
}

} // namespace

void wdm::api::registerCoverageTask() {
  registerTask(TaskKind::Coverage, runCoverage);
}

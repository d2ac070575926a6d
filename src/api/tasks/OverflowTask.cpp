//===--- OverflowTask.cpp - Instance 3 (fpod) adapter ------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/TaskRegistry.h"
#include "api/tasks/Common.h"
#include "api/tasks/Prune.h"

#include <thread>

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

namespace {

Expected<Report> runOverflow(TaskContext &Ctx) {
  analyses::OverflowDetector Detector =
      tasks::makeOverflowDetector(Ctx, instr::OverflowMetric::UlpGap);
  analyses::OverflowDetector::Options Opts = tasks::overflowOptions(Ctx);
  tasks::PrunePlan Plan = tasks::planPrune(Ctx);
  tasks::classifySites(Plan, Detector.sites());
  Opts.PrunedSites = tasks::droppedSorted(Plan);
  analyses::OverflowReport R = Detector.run(Opts);

  Report Rep;
  tasks::fillStatic(Rep, Plan);
  Rep.Success = R.numOverflows() > 0;
  Rep.Evals = R.Evals;
  tasks::fillEngine(Rep, Detector.executionTier());
  Rep.ThreadsUsed = Opts.Threads
                        ? Opts.Threads
                        : std::max(1u, std::thread::hardware_concurrency());
  tasks::appendOverflowFindings(Rep, R);
  Rep.Extra = Value::object()
                  .set("num_ops", Value::number(R.NumOps))
                  .set("num_overflows", Value::number(R.numOverflows()))
                  .set("evals_to_first_finding",
                       Value::number(R.EvalsToFirstFinding));
  return Rep;
}

} // namespace

void wdm::api::registerOverflowTask() {
  registerTask(TaskKind::Overflow, runOverflow);
}

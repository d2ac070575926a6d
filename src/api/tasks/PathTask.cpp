//===--- PathTask.cpp - Instance 2 adapter -----------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/PathReachability.h"
#include "api/TaskRegistry.h"
#include "api/Warm.h"
#include "api/tasks/Common.h"
#include "api/tasks/Prune.h"
#include "ir/Instruction.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

namespace {

/// Warm-entry state: the instrumented reachability analysis (which owns
/// lowered bytecode/JIT code and its copy of the resolved legs) and the
/// pre-pass plan.
struct WarmPath {
  tasks::PrunePlan Plan;
  std::unique_ptr<analyses::PathReachability> PR;
};

Expected<Report> runPath(TaskContext &Ctx) {
  using E = Expected<Report>;

  std::shared_ptr<WarmPath> W;
  if (Ctx.Warm && Ctx.Warm->State) {
    // The legs were validated, the pre-pass ran, and the statically-
    // infeasible early-out did not fire on the first run (a dead path
    // parks no state). A warm run reports no pre-pass cost.
    W = std::static_pointer_cast<WarmPath>(Ctx.Warm->State);
    W->Plan.Seconds = 0;
  } else {
    // Spec legs name branches by condbr index in layout order.
    std::vector<const ir::Instruction *> Branches;
    Ctx.F->forEachInst([&](const ir::Instruction *I) {
      if (I->opcode() == ir::Opcode::CondBr)
        Branches.push_back(I);
    });

    instr::PathSpec PS;
    for (const PathLegSpec &Leg : Ctx.Spec.Path) {
      if (Leg.Branch >= Branches.size())
        return E::error("spec: path leg names branch #" +
                        std::to_string(Leg.Branch) + " but '" +
                        Ctx.F->name() + "' has " +
                        std::to_string(Branches.size()) +
                        " conditional branches");
      PS.Legs.push_back({Branches[Leg.Branch], Leg.Taken});
    }

    // Static pre-pass: a required direction proved infeasible means no
    // input follows the path — skip the search outright.
    tasks::PrunePlan Plan = tasks::planPrune(Ctx);
    std::vector<size_t> DeadLegs;
    if (Plan.ran() && Plan.FA->complete()) {
      Plan.SitesTotal = static_cast<unsigned>(PS.Legs.size());
      for (size_t K = 0; K < PS.Legs.size(); ++K)
        if (!Plan.FA->edgeFeasible(PS.Legs[K].Branch,
                                   PS.Legs[K].DesiredTaken))
          DeadLegs.push_back(K);
    }
    if (!DeadLegs.empty()) {
      Report Rep;
      Rep.Success = false;
      tasks::fillStatic(Rep, Plan);
      for (size_t K : DeadLegs) {
        StaticItem It;
        It.Kind = "unreachable";
        It.SiteId = static_cast<int>(Ctx.Spec.Path[K].Branch);
        It.Description = "path leg #" + std::to_string(K) + " (branch " +
                         std::to_string(Ctx.Spec.Path[K].Branch) + ", " +
                         (Ctx.Spec.Path[K].Taken ? "true" : "false") +
                         ") is statically infeasible";
        Rep.Static.Items.push_back(std::move(It));
        ++Rep.Static.SitesPruned;
      }
      Rep.Engine = "static";
      return Rep;
    }

    W = std::make_shared<WarmPath>();
    W->Plan = std::move(Plan);
    W->PR = std::make_unique<analyses::PathReachability>(*Ctx.M, *Ctx.F, PS,
                                                         Ctx.engineKind());
    if (Ctx.Warm)
      Ctx.Warm->State = W;
  }
  analyses::PathReachability &PR = *W->PR;

  core::SearchResult R =
      PR.findOne(Ctx.primaryBackend(), Ctx.searchOptions({}));

  Report Rep;
  Rep.Success = R.Found;
  tasks::fillStatic(Rep, W->Plan);
  tasks::fillAggregates(Rep, R);
  tasks::fillEngine(Rep, PR.executionTier());
  if (R.Found) {
    Finding F;
    F.Kind = "path";
    F.Input = R.Witness;
    Value Legs = Value::array();
    for (const PathLegSpec &Leg : Ctx.Spec.Path)
      Legs.push(Value::object()
                    .set("branch", Value::number(Leg.Branch))
                    .set("taken", Value::boolean(Leg.Taken)));
    F.Details = Value::object().set("legs", Legs);
    Rep.Findings.push_back(std::move(F));
  }
  return Rep;
}

} // namespace

void wdm::api::registerPathTask() { registerTask(TaskKind::Path, runPath); }

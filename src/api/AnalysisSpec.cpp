//===--- AnalysisSpec.cpp - Declarative unit of analysis work ---------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSpec.h"

#include "core/SearchEngine.h"
#include "support/StringUtils.h"
#include "jit/JITWeakDistance.h"
#include "vm/VMWeakDistance.h"

#include <cerrno>
#include <cstdlib>

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

const char *wdm::api::taskKindName(TaskKind K) {
  switch (K) {
  case TaskKind::Boundary:
    return "boundary";
  case TaskKind::Path:
    return "path";
  case TaskKind::Coverage:
    return "coverage";
  case TaskKind::Overflow:
    return "overflow";
  case TaskKind::Inconsistency:
    return "inconsistency";
  case TaskKind::FpSat:
    return "fpsat";
  }
  return "?";
}

bool wdm::api::taskKindByName(const std::string &Name, TaskKind &Out) {
  for (TaskKind K :
       {TaskKind::Boundary, TaskKind::Path, TaskKind::Coverage,
        TaskKind::Overflow, TaskKind::Inconsistency, TaskKind::FpSat}) {
    if (Name == taskKindName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

const char *wdm::api::pruneModeName(PruneMode M) {
  switch (M) {
  case PruneMode::Off:
    return "off";
  case PruneMode::Sites:
    return "sites";
  case PruneMode::SitesBox:
    return "sites+box";
  }
  return "?";
}

bool wdm::api::pruneModeByName(const std::string &Name, PruneMode &Out) {
  for (PruneMode M : {PruneMode::Off, PruneMode::Sites, PruneMode::SitesBox}) {
    if (Name == pruneModeName(M)) {
      // "sites+box" once also shrank the start box. Old specs and logs
      // still say it, and it now means "sites".
      Out = M == PruneMode::SitesBox ? PruneMode::Sites : M;
      return true;
    }
  }
  return false;
}

ModuleSource ModuleSource::file(std::string Path) {
  return {Kind::File, std::move(Path)};
}
ModuleSource ModuleSource::inlineText(std::string Ir) {
  return {Kind::Inline, std::move(Ir)};
}
ModuleSource ModuleSource::builtin(std::string Name) {
  return {Kind::Builtin, std::move(Name)};
}

//===----------------------------------------------------------------------===//
// SearchConfig
//===----------------------------------------------------------------------===//

SearchConfig SearchConfig::fromEnv() {
  SearchConfig C;
  C.applyEnv();
  return C;
}

void SearchConfig::applyEnv() {
  // envUnsigned's sentinel-default trick: ask with two different
  // defaults; the variable is set (and valid) iff both calls agree.
  auto Lookup = [](const char *Name, std::optional<unsigned> &Slot) {
    unsigned A = envUnsigned(Name, 0);
    unsigned B = envUnsigned(Name, 1);
    if (A == B)
      Slot = A;
  };
  std::optional<unsigned> S, T;
  Lookup("WDM_STARTS", S);
  Lookup("WDM_THREADS", T);
  if (S)
    Starts = std::max(1u, *S);
  if (T)
    Threads = *T;
  // Seeds span the full uint64 range (and are often written in hex), so
  // WDM_SEED gets its own parse instead of envUnsigned's small-count
  // policy.
  if (const char *Env = std::getenv("WDM_SEED")) {
    errno = 0;
    char *End = nullptr;
    unsigned long long V = std::strtoull(Env, &End, 0);
    if (errno == 0 && End && End != Env && !*End)
      Seed = static_cast<uint64_t>(V);
  }
}

vm::EngineKind SearchConfig::engineKind() const {
  vm::EngineKind K = vm::EngineKind::VM;
  if (!Engine.empty())
    vm::engineKindByName(Engine, K); // Validated at parse time.
  return K;
}

PruneMode SearchConfig::pruneMode() const {
  PruneMode M = PruneMode::Off;
  if (!Prune.empty())
    pruneModeByName(Prune, M); // Validated at parse time.
  return M;
}

void SearchConfig::applyTo(core::SearchOptions &Opts) const {
  if (MaxEvals)
    Opts.MaxEvals = *MaxEvals;
  if (Starts)
    Opts.Starts = *Starts;
  if (Seed)
    Opts.Seed = *Seed;
  if (StartLo)
    Opts.StartLo = *StartLo;
  if (StartHi)
    Opts.StartHi = *StartHi;
  if (WildStartProb)
    Opts.WildStartProb = *WildStartProb;
  if (Threads)
    Opts.Threads = *Threads;
}

//===----------------------------------------------------------------------===//
// JSON serialization
//===----------------------------------------------------------------------===//

json::Value AnalysisSpec::toJson() const {
  Value Doc = Value::object();
  Doc.set("task", Value::string(taskKindName(Task)));

  switch (Module.K) {
  case ModuleSource::Kind::None:
    break;
  case ModuleSource::Kind::File:
    Doc.set("module", Value::object().set("file", Value::string(Module.Text)));
    break;
  case ModuleSource::Kind::Inline:
    Doc.set("module", Value::object().set("ir", Value::string(Module.Text)));
    break;
  case ModuleSource::Kind::Builtin:
    Doc.set("module",
            Value::object().set("builtin", Value::string(Module.Text)));
    break;
  }
  if (!Function.empty())
    Doc.set("function", Value::string(Function));
  if (!Constraint.empty())
    Doc.set("constraint", Value::string(Constraint));
  if (!SatMetric.empty())
    Doc.set("sat_metric", Value::string(SatMetric));
  if (!Path.empty()) {
    Value Legs = Value::array();
    for (const PathLegSpec &L : Path)
      Legs.push(Value::object()
                    .set("branch", Value::number(L.Branch))
                    .set("taken", Value::boolean(L.Taken)));
    Doc.set("path", Legs);
  }
  if (!BoundaryForm.empty())
    Doc.set("boundary_form", Value::string(BoundaryForm));
  if (!OverflowMetric.empty())
    Doc.set("overflow_metric", Value::string(OverflowMetric));
  if (NFP)
    Doc.set("nfp", Value::number(NFP));
  if (MaxStall)
    Doc.set("max_stall", Value::number(*MaxStall));
  if (!Probes.empty()) {
    Value Ps = Value::array();
    for (const std::vector<double> &P : Probes) {
      Value Row = Value::array();
      for (double X : P)
        Row.push(Value::number(X));
      Ps.push(std::move(Row));
    }
    Doc.set("probes", Ps);
  }
  if (!ValGlobal.empty())
    Doc.set("val_global", Value::string(ValGlobal));
  if (!ErrGlobal.empty())
    Doc.set("err_global", Value::string(ErrGlobal));

  Value S = Value::object();
  if (Search.MaxEvals)
    S.set("max_evals", Value::number(*Search.MaxEvals));
  if (Search.Starts)
    S.set("starts", Value::number(*Search.Starts));
  if (Search.Seed)
    S.set("seed", Value::number(*Search.Seed));
  if (Search.StartLo)
    S.set("start_lo", Value::number(*Search.StartLo));
  if (Search.StartHi)
    S.set("start_hi", Value::number(*Search.StartHi));
  if (Search.WildStartProb)
    S.set("wild_start_prob", Value::number(*Search.WildStartProb));
  if (Search.Threads)
    S.set("threads", Value::number(*Search.Threads));
  if (Search.Batch)
    S.set("batch", Value::number(*Search.Batch));
  if (!Search.Backends.empty()) {
    Value Bs = Value::array();
    for (const std::string &B : Search.Backends)
      Bs.push(Value::string(B));
    S.set("backends", Bs);
  }
  if (!Search.Engine.empty())
    S.set("engine", Value::string(Search.Engine));
  if (!Search.Prune.empty())
    S.set("prune", Value::string(Search.Prune));
  if (!S.members().empty())
    Doc.set("search", S);
  return Doc;
}

std::string AnalysisSpec::toJsonText() const { return toJson().dump() + "\n"; }

namespace {

/// Wrong-typed scalar fields must be errors, not silent defaults — a
/// quoted "40000" in max_evals would otherwise become a 0-eval budget
/// reported as a legitimate "not found".
std::string typeError(const char *Field, const char *Want) {
  return std::string("spec: '") + Field + "' must be a " + Want;
}

/// The only strings a numeric slot may carry: the writer's spellings of
/// the non-finite doubles. Anything else ("1.5" included) is a type
/// error, not a silent 0.0.
bool isNonFiniteString(const Value &X) {
  return X.isString() && (X.asString() == "inf" || X.asString() == "-inf" ||
                          X.asString() == "nan");
}

} // namespace

Expected<AnalysisSpec> AnalysisSpec::fromJson(const json::Value &V) {
  using E = Expected<AnalysisSpec>;
  if (!V.isObject())
    return E::error("spec: expected a JSON object");

  AnalysisSpec Spec;
  const Value *Task = V.find("task");
  if (!Task || !Task->isString())
    return E::error("spec: missing required string field 'task'");
  if (!taskKindByName(Task->asString(), Spec.Task))
    return E::error("spec: unknown task '" + Task->asString() +
                    "' (expected boundary|path|coverage|overflow|"
                    "inconsistency|fpsat)");

  if (const Value *M = V.find("module")) {
    if (!M->isObject())
      return E::error("spec: 'module' must be an object with one of "
                      "'file', 'ir', 'builtin'");
    if (const Value *F = M->find("file"))
      Spec.Module = ModuleSource::file(F->asString());
    else if (const Value *I = M->find("ir"))
      Spec.Module = ModuleSource::inlineText(I->asString());
    else if (const Value *B = M->find("builtin"))
      Spec.Module = ModuleSource::builtin(B->asString());
    else
      return E::error("spec: 'module' needs 'file', 'ir', or 'builtin'");
    if (Spec.Module.Text.empty())
      return E::error("spec: empty module source");
  }

  if (const Value *F = V.find("function")) {
    if (!F->isString())
      return E::error(typeError("function", "string"));
    Spec.Function = F->asString();
  }
  if (const Value *C = V.find("constraint")) {
    if (!C->isString())
      return E::error(typeError("constraint", "string"));
    Spec.Constraint = C->asString();
  }
  if (const Value *M = V.find("sat_metric")) {
    Spec.SatMetric = M->asString();
    if (Spec.SatMetric != "ulp" && Spec.SatMetric != "abs")
      return E::error("spec: sat_metric must be 'ulp' or 'abs'");
  }
  if (const Value *P = V.find("path")) {
    if (!P->isArray())
      return E::error("spec: 'path' must be an array of legs");
    for (size_t I = 0; I < P->size(); ++I) {
      const Value &Leg = P->at(I);
      const Value *Br = Leg.find("branch");
      if (!Br || !Br->isNumber())
        return E::error("spec: path leg needs a numeric 'branch'");
      const Value *Tk = Leg.find("taken");
      Spec.Path.push_back({static_cast<unsigned>(Br->asUint()),
                           Tk ? Tk->asBool(true) : true});
    }
  }
  if (const Value *B = V.find("boundary_form")) {
    Spec.BoundaryForm = B->asString();
    if (Spec.BoundaryForm != "product" && Spec.BoundaryForm != "min" &&
        Spec.BoundaryForm != "minulp")
      return E::error("spec: boundary_form must be product|min|minulp");
  }
  if (const Value *M = V.find("overflow_metric")) {
    Spec.OverflowMetric = M->asString();
    if (Spec.OverflowMetric != "ulpgap" && Spec.OverflowMetric != "absgap")
      return E::error("spec: overflow_metric must be ulpgap|absgap");
  }
  if (const Value *N = V.find("nfp")) {
    if (!N->isNumber())
      return E::error(typeError("nfp", "number"));
    Spec.NFP = static_cast<unsigned>(N->asUint());
  }
  if (const Value *S = V.find("max_stall")) {
    if (!S->isNumber())
      return E::error(typeError("max_stall", "number"));
    Spec.MaxStall = static_cast<unsigned>(S->asUint());
  }
  if (const Value *P = V.find("probes")) {
    if (!P->isArray())
      return E::error("spec: 'probes' must be an array of input vectors");
    for (size_t I = 0; I < P->size(); ++I) {
      const Value &Row = P->at(I);
      if (!Row.isArray())
        return E::error("spec: each probe must be an array of numbers");
      std::vector<double> Probe;
      for (size_t J = 0; J < Row.size(); ++J) {
        const Value &X = Row.at(J);
        if (!X.isNumber() && !isNonFiniteString(X))
          return E::error(typeError("probes", "array of numbers"));
        Probe.push_back(X.asDouble());
      }
      Spec.Probes.push_back(std::move(Probe));
    }
  }
  if (const Value *G = V.find("val_global")) {
    if (!G->isString())
      return E::error(typeError("val_global", "string"));
    Spec.ValGlobal = G->asString();
  }
  if (const Value *G = V.find("err_global")) {
    if (!G->isString())
      return E::error(typeError("err_global", "string"));
    Spec.ErrGlobal = G->asString();
  }

  if (const Value *S = V.find("search")) {
    if (!S->isObject())
      return E::error("spec: 'search' must be an object");
    struct {
      const char *Name;
      bool AllowNegative; ///< Box bounds may be negative / non-finite.
    } NumFields[] = {{"max_evals", false},     {"starts", false},
                     {"seed", false},          {"start_lo", true},
                     {"start_hi", true},       {"wild_start_prob", false},
                     {"threads", false},       {"batch", false}};
    for (const auto &F : NumFields)
      if (const Value *X = S->find(F.Name)) {
        if (!X->isNumber() && !(F.AllowNegative && isNonFiniteString(*X)))
          return E::error(typeError(F.Name, "number"));
        if (!F.AllowNegative && X->isNumber() && X->asDouble() < 0)
          return E::error(typeError(F.Name, "non-negative number"));
      }
    if (const Value *X = S->find("max_evals"))
      Spec.Search.MaxEvals = X->asUint();
    if (const Value *X = S->find("starts"))
      Spec.Search.Starts = static_cast<unsigned>(X->asUint());
    if (const Value *X = S->find("seed"))
      Spec.Search.Seed = X->asUint();
    if (const Value *X = S->find("start_lo"))
      Spec.Search.StartLo = X->asDouble();
    if (const Value *X = S->find("start_hi"))
      Spec.Search.StartHi = X->asDouble();
    if (const Value *X = S->find("wild_start_prob"))
      Spec.Search.WildStartProb = X->asDouble();
    if (const Value *X = S->find("threads"))
      Spec.Search.Threads = static_cast<unsigned>(X->asUint());
    if (const Value *X = S->find("batch"))
      Spec.Search.Batch = static_cast<unsigned>(X->asUint());
    if (const Value *X = S->find("backends")) {
      if (!X->isArray())
        return E::error("spec: 'backends' must be an array of names");
      for (size_t I = 0; I < X->size(); ++I) {
        if (!X->at(I).isString())
          return E::error(typeError("backends", "array of names"));
        Spec.Search.Backends.push_back(X->at(I).asString());
      }
    }
    if (const Value *X = S->find("engine")) {
      if (!X->isString())
        return E::error(typeError("engine", "string"));
      vm::EngineKind K;
      if (!vm::engineKindByName(X->asString(), K))
        return E::error("spec: engine must be one of " +
                        jit::engineNamesForErrors() + ", got '" +
                        X->asString() + "'");
      Spec.Search.Engine = X->asString();
    }
    if (const Value *X = S->find("prune")) {
      if (!X->isString())
        return E::error(typeError("prune", "string"));
      PruneMode M;
      if (!pruneModeByName(X->asString(), M))
        return E::error("spec: prune must be one of off|sites|sites+box, "
                        "got '" +
                        X->asString() + "'");
      Spec.Search.Prune = X->asString();
    }
  }

  // Cross-field validation.
  if (Spec.Task == TaskKind::FpSat) {
    if (Spec.Constraint.empty())
      return E::error("spec: fpsat requires 'constraint'");
  } else if (Spec.Module.K == ModuleSource::Kind::None) {
    return E::error(std::string("spec: task '") + taskKindName(Spec.Task) +
                    "' requires a 'module'");
  }
  if (Spec.Task == TaskKind::Path && Spec.Path.empty())
    return E::error("spec: path task requires a non-empty 'path'");
  return Spec;
}

Expected<AnalysisSpec> AnalysisSpec::parse(std::string_view JsonText) {
  Expected<Value> Doc = Value::parse(JsonText);
  if (!Doc)
    return Expected<AnalysisSpec>::error("spec: " + Doc.error());
  return fromJson(*Doc);
}

//===--- Report.cpp - Uniform analysis result --------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/Report.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

unsigned Report::count(const std::string &K) const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += F.Kind == K;
  return N;
}

const Finding *Report::first(const std::string &K) const {
  for (const Finding &F : Findings)
    if (F.Kind == K)
      return &F;
  return nullptr;
}

json::Value Report::toJson() const {
  Value Doc = Value::object();
  Doc.set("task", Value::string(taskKindName(Task)));
  if (!Function.empty())
    Doc.set("function", Value::string(Function));
  Doc.set("success", Value::boolean(Success));

  Value Fs = Value::array();
  for (const Finding &F : Findings) {
    Value Item = Value::object();
    Item.set("kind", Value::string(F.Kind));
    if (!F.Input.empty()) {
      Value In = Value::array();
      for (double X : F.Input)
        In.push(Value::number(X));
      Item.set("input", In);
    }
    if (F.SiteId >= 0)
      Item.set("site", Value::number(F.SiteId));
    if (!F.Description.empty())
      Item.set("description", Value::string(F.Description));
    if (!F.Details.isNull())
      Item.set("details", F.Details);
    Fs.push(std::move(Item));
  }
  Doc.set("findings", Fs);

  Doc.set("evals", Value::number(Evals));
  if (!Engine.empty())
    Doc.set("engine", Value::string(Engine));
  if (!EngineFallback.empty())
    Doc.set("engine_fallback", Value::string(EngineFallback));
  Doc.set("seconds", Value::number(Seconds));
  Doc.set("threads_used", Value::number(ThreadsUsed));
  Doc.set("starts_used", Value::number(StartsUsed));
  Doc.set("unsound_candidates", Value::number(UnsoundCandidates));
  Doc.set("w_star", Value::number(WStar));
  if (!Extra.isNull())
    Doc.set("extra", Extra);
  if (Static.Ran) {
    Value St = Value::object();
    St.set("mode", Value::string(Static.Mode));
    St.set("sites_total", Value::number(Static.SitesTotal));
    St.set("sites_pruned", Value::number(Static.SitesPruned));
    St.set("sites_proved_safe", Value::number(Static.SitesProvedSafe));
    St.set("seconds", Value::number(Static.Seconds));
    Value Items = Value::array();
    for (const StaticItem &It : Static.Items) {
      Value Row = Value::object();
      Row.set("kind", Value::string(It.Kind));
      if (It.SiteId >= 0)
        Row.set("site", Value::number(It.SiteId));
      if (!It.Description.empty())
        Row.set("description", Value::string(It.Description));
      Items.push(std::move(Row));
    }
    St.set("items", Items);
    Doc.set("static", St);
  }
  if (!Metrics.isNull())
    Doc.set("metrics", Metrics);
  return Doc;
}

std::string Report::toJsonText() const { return toJson().dump() + "\n"; }

Expected<Report> Report::fromJson(const json::Value &V) {
  using E = Expected<Report>;
  if (!V.isObject())
    return E::error("report: expected a JSON object");

  Report R;
  const Value *Task = V.find("task");
  if (!Task || !Task->isString() ||
      !taskKindByName(Task->asString(), R.Task))
    return E::error("report: missing or unknown 'task'");
  if (const Value *F = V.find("function"))
    R.Function = F->asString();
  if (const Value *S = V.find("success"))
    R.Success = S->asBool();

  const Value *Fs = V.find("findings");
  if (Fs && !Fs->isArray())
    return E::error("report: 'findings' must be an array");
  for (size_t I = 0; Fs && I < Fs->size(); ++I) {
    const Value &Item = Fs->at(I);
    if (!Item.isObject())
      return E::error("report: each finding must be an object");
    Finding F;
    if (const Value *K = Item.find("kind"))
      F.Kind = K->asString();
    if (const Value *In = Item.find("input")) {
      if (!In->isArray())
        return E::error("report: finding 'input' must be an array");
      for (size_t J = 0; J < In->size(); ++J)
        F.Input.push_back(In->at(J).asDouble());
    }
    if (const Value *S = Item.find("site"))
      F.SiteId = static_cast<int>(S->asInt(-1));
    if (const Value *D = Item.find("description"))
      F.Description = D->asString();
    if (const Value *D = Item.find("details"))
      F.Details = *D;
    R.Findings.push_back(std::move(F));
  }

  if (const Value *X = V.find("evals"))
    R.Evals = X->asUint();
  if (const Value *X = V.find("engine"))
    R.Engine = X->asString();
  if (const Value *X = V.find("engine_fallback"))
    R.EngineFallback = X->asString();
  if (const Value *X = V.find("seconds"))
    R.Seconds = X->asDouble();
  if (const Value *X = V.find("threads_used"))
    R.ThreadsUsed = static_cast<unsigned>(X->asUint(1));
  if (const Value *X = V.find("starts_used"))
    R.StartsUsed = static_cast<unsigned>(X->asUint());
  if (const Value *X = V.find("unsound_candidates"))
    R.UnsoundCandidates = static_cast<unsigned>(X->asUint());
  if (const Value *X = V.find("w_star"))
    R.WStar = X->asDouble();
  if (const Value *X = V.find("extra"))
    R.Extra = *X;
  if (const Value *St = V.find("static")) {
    if (!St->isObject())
      return E::error("report: 'static' must be an object");
    R.Static.Ran = true;
    if (const Value *X = St->find("mode"))
      R.Static.Mode = X->asString();
    if (const Value *X = St->find("sites_total"))
      R.Static.SitesTotal = static_cast<unsigned>(X->asUint());
    if (const Value *X = St->find("sites_pruned"))
      R.Static.SitesPruned = static_cast<unsigned>(X->asUint());
    if (const Value *X = St->find("sites_proved_safe"))
      R.Static.SitesProvedSafe = static_cast<unsigned>(X->asUint());
    if (const Value *X = St->find("seconds"))
      R.Static.Seconds = X->asDouble();
    const Value *Items = St->find("items");
    if (Items && !Items->isArray())
      return E::error("report: 'static'.'items' must be an array");
    for (size_t I = 0; Items && I < Items->size(); ++I) {
      const Value &Row = Items->at(I);
      if (!Row.isObject())
        return E::error("report: each static item must be an object");
      StaticItem It;
      if (const Value *K = Row.find("kind"))
        It.Kind = K->asString();
      if (const Value *S = Row.find("site"))
        It.SiteId = static_cast<int>(S->asInt(-1));
      if (const Value *D = Row.find("description"))
        It.Description = D->asString();
      R.Static.Items.push_back(std::move(It));
    }
  }
  if (const Value *M = V.find("metrics"))
    R.Metrics = *M;
  return R;
}

Expected<Report> Report::parse(std::string_view JsonText) {
  Expected<Value> Doc = Value::parse(JsonText);
  if (!Doc)
    return Expected<Report>::error("report: " + Doc.error());
  return fromJson(*Doc);
}

json::Value wdm::api::deterministicReportJson(const json::Value &ReportJson) {
  if (!ReportJson.isObject())
    return ReportJson;
  Value Out = Value::object();
  for (const auto &[Key, V] : ReportJson.members()) {
    if (Key == "seconds" || Key == "metrics")
      continue;
    if (Key == "extra" && V.isObject()) {
      Value Extra = Value::object();
      for (const auto &[EKey, EV] : V.members())
        if (EKey != "detector_seconds")
          Extra.set(EKey, EV);
      Out.set(Key, std::move(Extra));
      continue;
    }
    if (Key == "static" && V.isObject()) {
      Value St = Value::object();
      for (const auto &[SKey, SV] : V.members())
        if (SKey != "seconds")
          St.set(SKey, SV);
      Out.set(Key, std::move(St));
      continue;
    }
    Out.set(Key, V);
  }
  return Out;
}

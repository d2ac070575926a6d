//===--- Layers.cpp - The traced per-layer run ------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --trace 1 run splits a workload's time by layer without adding
/// anything to the program:
///
///  1. The workload runs again with telemetry and tracing on, same seed;
///     its report_digest must equal the untraced run's, and the ratio of
///     their wall times is trace.overhead. The program's own counters
///     (search.*, vm.module_lowerings, suite.steals, serve.*, ...) and
///     histogram opt.batch_size are read from the obs registry.
///  2. One pass of the workload's specs is replayed stage by stage
///     through public functions — buildBuiltinSubject, verifyModule, the
///     absint pre-pass and box shrink, the analysis constructor, the
///     search — with a bench-side span around each stage named after its
///     layer. Bench-owned decorators of the analysis' WeakDistanceFactory
///     and AnalysisProblem time every eval and verification where the
///     analysis exposes them; where it does not (the fpod loop, the
///     coverage loop) eval time is computed as evals x the per-eval cost
///     of an evaluator minted from executionTier(), and says so.
///
/// The Chrome trace of both parts is written to --out-dir.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Serve.h"

#include "absint/AbsInt.h"
#include "analyses/BoundaryAnalysis.h"
#include "analyses/BranchCoverage.h"
#include "analyses/Inconsistency.h"
#include "analyses/OverflowDetector.h"
#include "analyses/PathReachability.h"
#include "api/Analyzer.h"
#include "api/Backends.h"
#include "api/Subjects.h"
#include "ir/Verifier.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/Hash.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <thread>
#include <unordered_set>

using namespace wdm;

namespace e2e {

namespace {

// -- bench-owned decorators ---------------------------------------------------

/// Cost of one steady_clock read, subtracted once per timed call.
uint64_t clockCostNs() {
  static const uint64_t Cost = [] {
    const int N = 20000;
    Clock::time_point T0 = Clock::now();
    for (int I = 0; I < N; ++I)
      (void)Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration<double, std::nano>(Clock::now() - T0).count() /
        N);
  }();
  return Cost;
}

uint64_t nsSince(Clock::time_point T0) {
  uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration<double, std::nano>(Clock::now() - T0).count());
  return Ns > clockCostNs() ? Ns - clockCostNs() : 0;
}

struct Acc {
  std::atomic<uint64_t> EvalNs{0}, Evals{0}, VerifyNs{0}, VerifyCalls{0};
};

class TimedDistance : public core::WeakDistance {
public:
  TimedDistance(std::unique_ptr<core::WeakDistance> Inner, Acc &A)
      : Inner(std::move(Inner)), A(A) {}
  unsigned dim() const override { return Inner->dim(); }
  double operator()(const std::vector<double> &X) override {
    Clock::time_point T0 = Clock::now();
    double V = (*Inner)(X);
    A.EvalNs += nsSince(T0);
    ++A.Evals;
    return V;
  }
  void evalBatch(const double *Xs, std::size_t K, double *Fs) override {
    Clock::time_point T0 = Clock::now();
    Inner->evalBatch(Xs, K, Fs);
    A.EvalNs += nsSince(T0);
    A.Evals += K;
  }
  unsigned preferredBatch() const override { return Inner->preferredBatch(); }
  std::string name() const override { return Inner->name(); }

private:
  std::unique_ptr<core::WeakDistance> Inner;
  Acc &A;
};

class TimedFactory : public core::WeakDistanceFactory {
public:
  TimedFactory(core::WeakDistanceFactory &Inner, Acc &A)
      : Inner(Inner), A(A) {}
  unsigned dim() const override { return Inner.dim(); }
  std::unique_ptr<core::WeakDistance> make() override {
    return std::make_unique<TimedDistance>(Inner.make(), A);
  }

private:
  core::WeakDistanceFactory &Inner;
  Acc &A;
};

class TimedProblem : public core::AnalysisProblem {
public:
  TimedProblem(core::AnalysisProblem &Inner, Acc &A) : Inner(Inner), A(A) {}
  unsigned dim() const override { return Inner.dim(); }
  bool contains(const std::vector<double> &X) override {
    Clock::time_point T0 = Clock::now();
    bool In = Inner.contains(X);
    A.VerifyNs += nsSince(T0);
    ++A.VerifyCalls;
    return In;
  }

private:
  core::AnalysisProblem &Inner;
  Acc &A;
};

// -- the stage-by-stage replay -----------------------------------------------

/// Seconds per layer over one replayed pass.
struct Split {
  double Resolve = 0, IrVerify = 0, Prepass = 0, BoxShrink = 0;
  double Construct = 0, Search = 0;
  double NativeSearch = 0; ///< fpsat: native CNF distance, not split.
  double ComputedEval = 0; ///< evals x minted per-eval cost.
  uint64_t ComputedEvals = 0;
  double VerifyInSearch = 0;  ///< fpod's site verification, re-timed.
  double VerifyOutside = 0;   ///< Inconsistency status replays.
  unsigned Specs = 0;
};

/// A bench-side span plus an accumulating timer.
class Stage {
public:
  Stage(const char *Name, double &Into) : Span(Name), Into(Into) {}
  ~Stage() { Into += secondsSince(T0); }
  Stage(const Stage &) = delete;
  Stage &operator=(const Stage &) = delete;

private:
  obs::ScopedSpan Span;
  double &Into;
  Clock::time_point T0 = Clock::now();
};

/// Where timed evals leave their values, so none is optimized away.
volatile double EvalSink = 0;

/// The per-eval cost of an evaluator minted from \p WF, over inputs drawn
/// the way the searches draw starts.
double perEvalSeconds(core::WeakDistanceFactory &WF, double Lo, double Hi,
                      double Wild) {
  std::unique_ptr<core::WeakDistance> W = WF.make();
  SeedStream S(0xe7a1, WF.dim());
  const unsigned N = 1000;
  std::vector<std::vector<double>> Xs(N, std::vector<double>(WF.dim()));
  for (std::vector<double> &X : Xs)
    for (double &V : X) {
      if (S.uniform() < Wild) {
        do {
          uint64_t Bits = S.next();
          std::memcpy(&V, &Bits, sizeof V);
        } while (!std::isfinite(V));
      } else {
        V = Lo + (Hi - Lo) * S.uniform();
      }
    }
  double Sink = 0;
  Clock::time_point T0 = Clock::now();
  for (const std::vector<double> &X : Xs)
    Sink += (*W)(X);
  double Per = secondsSince(T0) / N;
  EvalSink = Sink;
  return Per;
}

core::SearchResult searchDecorated(core::WeakDistanceFactory &WF,
                                   core::AnalysisProblem &P,
                                   opt::Optimizer &B,
                                   const core::SearchOptions &Opts,
                                   Split &S, Acc &A) {
  TimedFactory TF(WF, A);
  TimedProblem TP(P, A);
  core::SearchEngine E(TF, &TP);
  Stage St("core.search", S.Search);
  return E.solve(B, Opts);
}

void replayOne(const api::AnalysisSpec &Spec, Split &S, Acc &A) {
  ++S.Specs;
  if (Spec.Task == api::TaskKind::FpSat) {
    Stage St("core.search", S.NativeSearch);
    (void)api::Analyzer(Spec).run();
    return;
  }
  ir::Module M("replay");
  api::BuiltinSubject Sub;
  {
    Stage St("api.resolve", S.Resolve);
    Expected<api::BuiltinSubject> B =
        api::buildBuiltinSubject(M, Spec.Module.Text);
    if (!B)
      return;
    Sub = *B;
  }
  ir::Function *F =
      Spec.Function.empty() ? Sub.F : M.functionByName(Spec.Function);
  if (!F)
    return;
  {
    Stage St("ir.verify", S.IrVerify);
    (void)ir::verifyModule(M);
  }
  const api::PruneMode Prune = Spec.Search.pruneMode();
  std::unique_ptr<absint::FunctionAnalysis> FA;
  if (Prune != api::PruneMode::Off) {
    Stage St("absint.prepass", S.Prepass);
    FA = std::make_unique<absint::FunctionAnalysis>(*F);
  }
  auto Shrink = [&](double &Lo, double &Hi, const instr::SiteTable &Sites,
                    const std::unordered_set<int> &Dropped) {
    if (!FA || Prune != api::PruneMode::SitesBox)
      return;
    Stage St("absint.box_shrink", S.BoxShrink);
    std::unordered_set<int> Active;
    for (const instr::Site &Si : Sites)
      if (!Dropped.count(Si.Id))
        Active.insert(Si.Id);
    if (Active.empty())
      return;
    absint::BoxShrinkResult R = absint::shrinkStartBox(
        *F, Lo, Hi, {}, [&](const absint::FunctionAnalysis &X) {
          return absint::anySiteMaybeTriggers(X, Sites, Active);
        });
    if (R.Changed) {
      Lo = R.Lo;
      Hi = R.Hi;
    }
  };
  auto Dropped = [&](const instr::SiteTable &Sites) {
    std::unordered_set<int> Out;
    if (FA)
      for (const absint::SiteReport &R : absint::classifySites(*FA, Sites))
        if (R.Verdict != absint::SiteVerdict::Unknown)
          Out.insert(R.Id);
    return Out;
  };

  std::vector<std::unique_ptr<opt::Optimizer>> Backends;
  std::vector<std::string> Names = Spec.Search.Backends;
  if (Names.empty())
    Names.push_back("basinhopping");
  for (const std::string &N : Names) {
    Expected<std::unique_ptr<opt::Optimizer>> B = api::makeBackend(N);
    if (!B)
      return;
    Backends.push_back(B.take());
  }
  auto Options = [&](core::SearchOptions D) {
    Spec.Search.applyTo(D);
    if (Backends.size() > 1)
      for (const auto &B : Backends)
        D.Portfolio.push_back({B.get(), 1.0});
    return D;
  };
  const vm::EngineKind Eng = Spec.Search.engineKind();

  switch (Spec.Task) {
  case api::TaskKind::Boundary: {
    instr::BoundaryForm Form = instr::BoundaryForm::Product;
    if (Spec.BoundaryForm == "min")
      Form = instr::BoundaryForm::Min;
    else if (Spec.BoundaryForm == "minulp")
      Form = instr::BoundaryForm::MinUlp;
    std::function<bool(const instr::Site &)> Skip;
    if (FA)
      Skip = [&](const instr::Site &Si) {
        return absint::classifySite(*FA, Si) != absint::SiteVerdict::Unknown;
      };
    std::unique_ptr<analyses::BoundaryAnalysis> BVA;
    {
      Stage St("instrument", S.Construct);
      BVA = std::make_unique<analyses::BoundaryAnalysis>(M, *F, Form, Eng,
                                                         Skip);
    }
    core::SearchOptions Opts = Options({});
    Shrink(Opts.StartLo, Opts.StartHi, BVA->sites(), Dropped(BVA->sites()));
    searchDecorated(BVA->factory(), BVA->problem(), *Backends[0], Opts, S, A);
    return;
  }
  case api::TaskKind::Path: {
    std::vector<const ir::Instruction *> Branches;
    F->forEachInst([&](const ir::Instruction *I) {
      if (I->opcode() == ir::Opcode::CondBr)
        Branches.push_back(I);
    });
    instr::PathSpec PS;
    for (const api::PathLegSpec &Leg : Spec.Path) {
      if (Leg.Branch >= Branches.size())
        return;
      PS.Legs.push_back({Branches[Leg.Branch], Leg.Taken});
    }
    std::unique_ptr<analyses::PathReachability> PR;
    {
      Stage St("instrument", S.Construct);
      PR = std::make_unique<analyses::PathReachability>(M, *F, PS, Eng);
    }
    searchDecorated(*PR->executionTier().Factory, PR->problem(),
                    *Backends[0], Options({}), S, A);
    return;
  }
  case api::TaskKind::Coverage: {
    std::unique_ptr<analyses::BranchCoverage> BC;
    {
      Stage St("instrument", S.Construct);
      BC = std::make_unique<analyses::BranchCoverage>(M, *F, Eng);
    }
    analyses::BranchCoverage::Options CO;
    CO.Reduce = Options(CO.Reduce);
    if (Spec.MaxStall)
      CO.MaxStall = *Spec.MaxStall;
    std::unordered_set<int> Drop = Dropped(BC->sites());
    CO.ExcludedDirs.assign(Drop.begin(), Drop.end());
    std::sort(CO.ExcludedDirs.begin(), CO.ExcludedDirs.end());
    Shrink(CO.Reduce.StartLo, CO.Reduce.StartHi, BC->sites(), Drop);
    double Per =
        perEvalSeconds(*BC->executionTier().Factory, CO.Reduce.StartLo,
                       CO.Reduce.StartHi, CO.Reduce.WildStartProb);
    analyses::CoverageReport R;
    {
      Stage St("core.search", S.Search);
      R = BC->run(*Backends[0], CO);
    }
    S.ComputedEval += Per * R.Evals;
    S.ComputedEvals += R.Evals;
    return;
  }
  case api::TaskKind::Overflow:
  case api::TaskKind::Inconsistency: {
    const bool Incons = Spec.Task == api::TaskKind::Inconsistency;
    instr::OverflowMetric Metric = Incons ? instr::OverflowMetric::AbsGap
                                          : instr::OverflowMetric::UlpGap;
    if (Spec.OverflowMetric == "absgap")
      Metric = instr::OverflowMetric::AbsGap;
    else if (Spec.OverflowMetric == "ulpgap")
      Metric = instr::OverflowMetric::UlpGap;
    std::unique_ptr<analyses::OverflowDetector> D;
    {
      Stage St("instrument", S.Construct);
      D = std::make_unique<analyses::OverflowDetector>(M, *F, Metric, Eng);
    }
    // The spec's search config mapped onto Algorithm 3's per-round knobs,
    // as the overflow and inconsistency adapters map it.
    analyses::OverflowDetector::Options DO;
    core::SearchOptions SO;
    SO.MaxEvals = DO.EvalsPerRound;
    SO.Starts = DO.StartsPerRound;
    SO.Seed = DO.Seed;
    SO.StartLo = DO.StartLo;
    SO.StartHi = DO.StartHi;
    SO.WildStartProb = DO.WildStartProb;
    SO.Threads = DO.Threads;
    SO.Batch = DO.Batch;
    SO = Options(SO);
    DO.EvalsPerRound = SO.MaxEvals;
    DO.StartsPerRound = std::max(1u, SO.Starts);
    DO.Seed = SO.Seed;
    DO.StartLo = SO.StartLo;
    DO.StartHi = SO.StartHi;
    DO.WildStartProb = SO.WildStartProb;
    DO.Threads = SO.Threads;
    DO.Batch = SO.Batch;
    DO.Backend = Backends[0].get();
    DO.Portfolio = SO.Portfolio;
    DO.MaxRounds = Spec.NFP;
    std::unordered_set<int> Drop = Dropped(D->sites());
    DO.PrunedSites.assign(Drop.begin(), Drop.end());
    std::sort(DO.PrunedSites.begin(), DO.PrunedSites.end());
    Shrink(DO.StartLo, DO.StartHi, D->sites(), Drop);

    double Per = perEvalSeconds(*D->executionTier().Factory, DO.StartLo,
                                DO.StartHi, DO.WildStartProb);
    analyses::OverflowReport R;
    {
      Stage St("core.search", S.Search);
      R = D->run(DO);
    }
    S.ComputedEval += Per * R.Evals;
    S.ComputedEvals += R.Evals;
    // The loop verifies each zero on the original before recording it;
    // re-time exactly those verifications.
    {
      obs::ScopedSpan Span("core.verify");
      Clock::time_point T0 = Clock::now();
      for (const analyses::OverflowFinding &Fi : R.Findings)
        if (Fi.Found)
          (void)D->overflowsAt(Fi.SiteId, Fi.Input);
      S.VerifyInSearch += secondsSince(T0);
    }
    if (Incons && Sub.Result.Val && Sub.Result.Err) {
      Stage St("core.verify", S.VerifyOutside);
      gsl::SfFunction Fn;
      Fn.F = F;
      Fn.Result = Sub.Result;
      analyses::InconsistencyChecker Checker(M, Fn);
      for (const analyses::OverflowFinding &Fi : R.Findings)
        if (Fi.Found)
          (void)Checker.check(Fi.Input);
      for (const std::vector<double> &P : Spec.Probes)
        (void)Checker.check(P);
    }
    return;
  }
  case api::TaskKind::FpSat:
    return;
  }
}

// -- reading the program's own telemetry --------------------------------------

uint64_t counter(const json::Value &Snap, const char *Name) {
  const json::Value *C = Snap.find("counters");
  const json::Value *V = C ? C->find(Name) : nullptr;
  return V ? V->asUint() : 0;
}

double histMean(const json::Value &Snap, const char *Name) {
  const json::Value *H = Snap.find("histograms");
  const json::Value *V = H ? H->find(Name) : nullptr;
  if (!V || !V->find("count") || V->find("count")->asUint() == 0)
    return 0;
  return V->find("sum")->asDouble() / V->find("count")->asDouble();
}

struct SpanSums {
  std::map<std::string, double> S; ///< Seconds by span name.
  double LowerInConstruct = 0, CompileInConstruct = 0;
};

/// Sums the complete spans that start at or after \p FromUs; lowering and
/// compile spans nested in a bench "instrument" span are also summed
/// apart, so instrument.s can exclude them.
SpanSums sumSpans(const json::Value &Trace, uint64_t FromUs) {
  SpanSums Out;
  const json::Value *Events = Trace.find("traceEvents");
  if (!Events)
    return Out;
  struct Interval {
    uint64_t Tid, B, E;
  };
  std::vector<Interval> Instr;
  for (size_t I = 0; I < Events->size(); ++I) {
    const json::Value &E = Events->at(I);
    if (E.find("ph")->asString() != "X" || E.find("ts")->asUint() < FromUs)
      continue;
    uint64_t Ts = E.find("ts")->asUint(), Dur = E.find("dur")->asUint();
    const std::string &Name = E.find("name")->asString();
    Out.S[Name] += Dur / 1e6;
    if (Name == "instrument")
      Instr.push_back({E.find("tid")->asUint(), Ts, Ts + Dur});
  }
  for (size_t I = 0; I < Events->size(); ++I) {
    const json::Value &E = Events->at(I);
    if (E.find("ph")->asString() != "X" || E.find("ts")->asUint() < FromUs)
      continue;
    const std::string &Name = E.find("name")->asString();
    if (Name != "lowering" && Name != "jit_compile")
      continue;
    uint64_t Ts = E.find("ts")->asUint(), Tid = E.find("tid")->asUint();
    for (const Interval &O : Instr)
      if (O.Tid == Tid && Ts >= O.B && Ts < O.E) {
        (Name == "lowering" ? Out.LowerInConstruct : Out.CompileInConstruct) +=
            E.find("dur")->asUint() / 1e6;
        break;
      }
  }
  return Out;
}

} // namespace

json::Value runLayers(const Options &O, const Outcome &Untraced,
                      std::vector<std::string> &Problems,
                      uint64_t &Attempted, uint64_t &Failed) {
  const bool Batch = O.Workload == "gsl_study" || O.Workload == "de_portfolio";
  Options Run = O;
  Run.Seconds = O.Seconds * 0.25;

  // 1. The same workload and seed, traced.
  obs::resetMetrics();
  obs::clearTrace();
  obs::setEnabled(true);
  obs::startTrace();
  Outcome T = runWorkload(Run, 2);
  const json::Value Snap = obs::snapshotJson();
  obs::setEnabled(false);
  Attempted += T.Attempted;
  Failed += T.Failed;
  for (const std::string &P : T.Problems)
    Problems.push_back("traced run: " + P);
  if (T.Digest != Untraced.Digest)
    Problems.push_back("traced report_digest " + T.Digest +
                       " differs from the untraced " + Untraced.Digest);
  const double Overhead =
      median(T.PassWallS) / std::max(1e-12, median(Untraced.PassWallS));
  uint64_t UnitsRun = 0;
  for (const Unit &U : T.FirstPass)
    UnitsRun += U.Ok;
  UnitsRun *= T.PassWallS.size();

  // The serve layer: an open-loop probe on spec_mix, whose specs it
  // serves, with the daemon's own counters.
  ServeProbe Serve;
  json::Value ServeSnap = json::Value::object();
  if (O.Workload == "spec_mix") {
    obs::resetMetrics();
    obs::setEnabled(true);
    Serve = probeServe(O, Run.Seconds);
    ServeSnap = obs::snapshotJson();
    obs::setEnabled(false);
    Attempted += Serve.Units.size();
    Failed += Serve.Failed + checkFindings(Serve.Units, Problems);
    for (const std::string &P : Serve.Problems)
      Problems.push_back(P);
  }

  // 2. One pass of the workload's specs, stage by stage.
  std::vector<api::AnalysisSpec> Specs = replaySpecs(O);
  if (O.Tiny && Specs.size() > 6)
    Specs.resize(6);
  const uint64_t ReplayFromUs = obs::ScopedSpan::nowUs();
  Split S;
  Acc A;
  for (const api::AnalysisSpec &Spec : Specs)
    replayOne(Spec, S, A);
  obs::stopTrace();
  const json::Value Trace = obs::traceJson();
  SpanSums Sp = sumSpans(Trace, ReplayFromUs);
  std::string TracePath = O.OutDir + "/e2ebench-trace-" + O.Workload + ".json";
  if (!obs::writeTrace(TracePath))
    Problems.push_back("cannot write " + TracePath);

  // Report serialization: toJson + the deterministic view + its hash.
  double ReportJsonS = 0;
  {
    Clock::time_point T0 = Clock::now();
    std::string Digest = reportDigest(Untraced.FirstPass);
    ReportJsonS = secondsSince(T0);
    if (Digest != Untraced.Digest)
      Problems.push_back("report digest is not reproducible");
  }

  // Shard idle per pass: shards x wall - the pass's job seconds.
  std::vector<double> Idle;
  if (Batch) {
    const json::Value *Shards = Untraced.Info.find("shards");
    for (size_t P = 0; P < Untraced.PassWallS.size(); ++P)
      Idle.push_back(std::max(0.0, (Shards ? Shards->asDouble() : 1) *
                                           Untraced.PassWallS[P] -
                                       Untraced.PassBusyS[P]));
  }
  const double ShardIdle = median(Idle);

  const double MeasuredEval = A.EvalNs / 1e9;
  const double EvalS = MeasuredEval + S.ComputedEval;
  const uint64_t EvalCount = A.Evals + S.ComputedEvals;
  const double VerifyS = A.VerifyNs / 1e9 + S.VerifyInSearch + S.VerifyOutside;
  const double OptS = std::max(
      0.0, S.Search - EvalS - A.VerifyNs / 1e9 - S.VerifyInSearch);
  const double Lower = Sp.S.count("lowering") ? Sp.S.at("lowering") : 0;
  const double Compile =
      Sp.S.count("jit_compile") ? Sp.S.at("jit_compile") : 0;
  const uint64_t Hits = counter(ServeSnap, "serve.cache_hits");
  const uint64_t Misses = counter(ServeSnap, "serve.cache_misses");
  const bool Served = O.Workload == "spec_mix";

  json::Value M = json::Value::object();
  auto Add = [&](const char *Name, double V, const char *Unit,
                 const std::string &Note = "") {
    M.set(Name, json::Value::object()
                    .set("value", json::Value::number(V))
                    .set("unit", json::Value::string(Unit)));
    char Line[256];
    std::snprintf(Line, sizeof Line, "# %-22s %16.6g %-6s %s\n", Name, V,
                  Unit, Note.c_str());
    std::cout << Line;
  };
  std::cout << "# replayed " << S.Specs << " specs stage by stage; trace in "
            << TracePath << "\n";
  Add("api.resolve_s", S.Resolve, "s", "(replay: buildBuiltinSubject)");
  Add("api.shard_idle_s", ShardIdle, "s",
      Batch ? "(shards x wall - job seconds, per pass)" : "(no shards)");
  Add("api.steals", static_cast<double>(counter(Snap, "suite.steals")),
      "count", "(traced run)");
  Add("api.report_json_s", ReportJsonS, "s", "(toJson + digest, one pass)");
  Add("ir.verify_s", S.IrVerify, "s", "(replay: verifyModule)");
  Add("absint.prepass_s", S.Prepass, "s", "(replay)");
  Add("absint.box_shrink_s", S.BoxShrink, "s", "(replay)");
  Add("absint.sites_pruned",
      static_cast<double>(counter(Snap, "absint.sites_pruned")), "count",
      "(traced run)");
  Add("instrument.s",
      std::max(0.0, S.Construct - Sp.LowerInConstruct - Sp.CompileInConstruct),
      "s", "(replay: constructor - lowering - compile)");
  Add("vm.lower_s", Lower, "s", "(replay: lowering spans)");
  Add("vm.lowerings",
      UnitsRun ? static_cast<double>(counter(Snap, "vm.module_lowerings")) /
                     UnitsRun
               : 0,
      "count", "(per job, traced run)");
  Add("jit.compile_s", Compile, "s", "(replay: jit_compile spans)");
  Add("jit.compiles", static_cast<double>(counter(Snap, "jit.module_compiles")),
      "count", "(traced run)");
  Add("core.search_s", S.Search + S.NativeSearch, "s",
      "(replay; fpsat's native search is not split)");
  // Report evals, not the search.evals counter: with threads > 1 the
  // counter includes starts cancelled after the winner, so it varies.
  Add("core.evals", static_cast<double>(T.Evals), "count",
      "(traced run, sum of Report.Evals)");
  Add("core.starts", static_cast<double>(counter(Snap, "search.starts")),
      "count", "(traced run)");
  char EvalNote[96];
  std::snprintf(EvalNote, sizeof EvalNote, "(replay; %.0f%% computed from "
                                           "minted evaluators)",
                EvalS > 0 ? 100 * S.ComputedEval / EvalS : 0.0);
  Add("core.eval_s", EvalS, "s", EvalNote);
  Add("core.eval_ns", EvalCount ? EvalS / EvalCount * 1e9 : 0, "ns",
      "(replay)");
  Add("core.verify_s", VerifyS, "s", "(replay: oracle checks)");
  Add("core.verify_calls",
      static_cast<double>(counter(Snap, "search.verify_calls")), "count",
      "(traced run)");
  Add("core.unsound", static_cast<double>(counter(Snap, "search.unsound")),
      "count", "(traced run)");
  Add("core.opt_s", OptS, "s", "(replay: search - eval - verify)");
  Add("opt.batch_mean", histMean(Snap, "opt.batch_size"), "count",
      "(traced run)");
  const char *ServeNote = Served ? "(serve probe)" : "(no daemon)";
  Add("serve.handle_ms", Serve.HandleP50Ms, "ms",
      Served ? "(serve probe: p50 of Server::handle, no socket)"
             : ServeNote);
  Add("serve.hit_ratio",
      Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0,
      "ratio", ServeNote);
  Add("serve.warm_hit_ratio",
      Misses ? static_cast<double>(counter(ServeSnap, "analyzer.warm_hits")) /
                   Misses
             : 0,
      "ratio", ServeNote);
  Add("serve.rejected",
      static_cast<double>(counter(ServeSnap, "serve.rejected")), "count",
      ServeNote);
  Add("serve.inflight_max", Serve.InFlightMax, "count", ServeNote);
  Add("loadgen.lag_p99_ms", Serve.LagP99Ms, "ms", ServeNote);
  Add("trace.overhead", Overhead, "ratio", "(traced / untraced wall_s)");
  return M;
}

} // namespace e2e

//===--- Workloads.cpp - The closed-loop workloads and their specs ----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spec generation (every input is a pure function of --seed) and the
/// three closed-loop runners:
///
///   gsl_study     Table 3/5 suite through JobScheduler, one job per
///                 (subject, task, seed), shards = hardware threads;
///   de_portfolio  Table 1 shape with the population backends through
///                 the same scheduler set-up;
///   spec_mix      one client, one fresh Analyzer per spec, no warm
///                 state: what a `wdm run` user pays.
///
/// The serve layer is measured by an open-loop probe (Serve.cpp) inside
/// spec_mix's traced run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Analyzer.h"
#include "api/JobScheduler.h"
#include "api/SuiteSpec.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

using namespace wdm;

namespace e2e {

// -- statistics -------------------------------------------------------------

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double tailPercentile(size_t DesignN) {
  static const double Ladder[] = {99, 95, 90, 75, 50};
  for (double P : Ladder)
    if (DesignN * (100 - P) / 100 >= 10)
      return P;
  return 50;
}

TailStat tailOf(const std::vector<double> &Ms, double Percentile) {
  TailStat T;
  T.Percentile = Percentile;
  T.N = Ms.size();
  T.Ms = percentile(Ms, Percentile);
  for (double V : Ms)
    T.Beyond += V > T.Ms;
  return T;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"gsl_study", "de_portfolio",
                                                 "spec_mix"};
  return Names;
}

// -- spec generation ----------------------------------------------------------

uint64_t SeedStream::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double SeedStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t SeedStream::searchSeed() { return next() % 1000000007ull; }

namespace {

std::string seedText(uint64_t Seed) { return std::to_string(Seed); }

/// The Table 3/5 jobs: {bessel, hyperg, airy} x {overflow, inconsistency}
/// x seeds. Airy carries both Table 5 bugs and gets twice the seeds; its
/// inconsistency jobs carry the two bug probes (as bench/table3 does), so
/// the shape check can demand both bugs. The weights also keep the job
/// median inside one subject's spread instead of on the gap between two.
std::vector<std::string> gslJobs(const Options &O) {
  SeedStream S(O.Seed, 0x651);
  unsigned Seeds = O.Tiny ? 1 : 8;
  std::vector<std::string> Jobs;
  for (const char *Subject : {"bessel", "hyperg", "airy"})
    for (const char *Task : {"overflow", "inconsistency"})
      for (unsigned K = 0; K < Seeds * (Subject[0] == 'a' ? 2 : 1); ++K) {
        std::string J = std::string("{\"task\": \"") + Task +
                        "\", \"module\": {\"builtin\": \"" + Subject + "\"}";
        if (Task[0] == 'i' && Subject[0] == 'a')
          J += ", \"probes\": [[-1.9146102807898733], [-1.14e57]]";
        J += ", \"search\": {\"seed\": " + seedText(S.searchSeed()) + "}}";
        Jobs.push_back(std::move(J));
      }
  return Jobs;
}

/// The Table 1 shape: fig2 boundary, fig2 path (both true branches) and
/// bessel overflow, each under DE and random search, weighted 2:2:3 per
/// backend (bessel is where the population backends spend their evals).
/// Random search never hits a fig2 boundary value, so those jobs spend
/// their whole budget: fixed work, on which the job median falls.
std::vector<std::string> deJobs(const Options &O) {
  SeedStream S(O.Seed, 0xde);
  unsigned Seeds = O.Tiny ? 1 : 16;
  std::vector<std::string> Jobs;
  for (const char *Backend : {"de", "random"})
    for (unsigned K = 0; K < Seeds; ++K) {
      std::string Tail = std::string(", \"backends\": [\"") + Backend + "\"]}}";
      for (int R = 0; R < 2; ++R) {
        Jobs.push_back("{\"task\": \"boundary\", \"module\": {\"builtin\": "
                       "\"fig2\"}, \"search\": {\"seed\": " +
                       seedText(S.searchSeed()) + ", \"max_evals\": 100000" +
                       Tail);
        Jobs.push_back("{\"task\": \"path\", \"module\": {\"builtin\": "
                       "\"fig2\"}, \"path\": [{\"branch\": 0, \"taken\": "
                       "true}, {\"branch\": 1, \"taken\": true}], \"search\": "
                       "{\"seed\": " +
                       seedText(S.searchSeed()) + ", \"max_evals\": 20000" +
                       Tail);
      }
      for (int R = 0; R < 3; ++R)
        Jobs.push_back("{\"task\": \"overflow\", \"module\": {\"builtin\": "
                       "\"bessel\"}, \"search\": {\"seed\": " +
                       seedText(S.searchSeed()) +
                       ", \"max_evals\": 1500, \"starts\": 2" + Tail);
    }
  return Jobs;
}

std::string suiteText(const std::string &Name,
                      const std::vector<std::string> &Jobs) {
  std::string T = "{\"suite\": \"" + Name +
                  "\", \"defaults\": {\"search\": {\"threads\": 1, "
                  "\"starts\": 2}}, \"jobs\": [";
  for (size_t I = 0; I < Jobs.size(); ++I)
    T += (I ? ", " : "") + Jobs[I];
  return T + "]}";
}

} // namespace

/// The paper's short specs, each family with its checked-in budget and a
/// generated seed; the engine is left unset as users leave it. The Table 2
/// sin boundary config runs four times per round: it is the spec whose
/// time is mostly front end (its search takes ~80 evals).
std::vector<std::string> specMixTexts(const Options &O) {
  SeedStream S(O.Seed, 0x5bec);
  unsigned Rounds = O.Tiny ? 1 : 96;
  std::vector<std::string> Specs;
  for (unsigned K = 0; K < Rounds; ++K) {
    auto Seed = [&] { return seedText(S.searchSeed()); };
    Specs.push_back("{\"task\": \"boundary\", \"module\": {\"builtin\": "
                    "\"fig2\"}, \"search\": {\"seed\": " +
                    Seed() + ", \"max_evals\": 40000}}");
    Specs.push_back("{\"task\": \"path\", \"module\": {\"builtin\": "
                    "\"fig1a\"}, \"path\": [{\"branch\": 0, \"taken\": "
                    "true}, {\"branch\": 1, \"taken\": false}], \"search\": "
                    "{\"seed\": " +
                    Seed() + ", \"max_evals\": 80000}}");
    Specs.push_back("{\"task\": \"coverage\", \"module\": {\"builtin\": "
                    "\"classifier\"}, \"search\": {\"seed\": " +
                    Seed() + ", \"max_evals\": 30000}}");
    Specs.push_back("{\"task\": \"fpsat\", \"constraint\": \"(and (< x 1.0) "
                    "(>= (+ x (tan x)) 2.0))\", \"search\": {\"seed\": " +
                    Seed() + ", \"max_evals\": 200000}}");
    for (int R = 0; R < 4; ++R)
      Specs.push_back("{\"task\": \"boundary\", \"module\": {\"builtin\": "
                      "\"sin\"}, \"search\": {\"seed\": " +
                      Seed() + ", \"max_evals\": 30000}}");
    Specs.push_back("{\"task\": \"overflow\", \"module\": {\"builtin\": "
                    "\"bessel\"}, \"search\": {\"seed\": " +
                    Seed() +
                    ", \"max_evals\": 6000, \"starts\": 2, \"prune\": "
                    "\"sites+box\"}}");
  }
  return Specs;
}

namespace {

std::string suiteFor(const Options &O) {
  if (O.Workload == "gsl_study")
    return suiteText("gsl_study", gslJobs(O));
  return suiteText("de_portfolio", deJobs(O));
}

void noteTiers(Outcome &Out) {
  std::map<std::string, uint64_t> Tiers;
  uint64_t Fallbacks = 0;
  for (const Unit &U : Out.FirstPass) {
    if (!U.Ok)
      continue;
    ++Tiers[U.R.Engine.empty() ? "none" : U.R.Engine];
    Fallbacks += !U.R.EngineFallback.empty();
  }
  json::Value T = json::Value::object();
  for (const auto &[Name, N] : Tiers)
    T.set(Name, json::Value::number(N));
  Out.Info.set("effective_tiers", T);
  Out.Info.set("engine_fallbacks", json::Value::number(Fallbacks));
}

void finishPass(Outcome &Out, std::vector<Unit> &Pass, double Wall) {
  Out.PassWallS.push_back(Wall);
  Out.EvalWallS += Wall;
  double Busy = 0;
  for (const Unit &U : Pass) {
    ++Out.Attempted;
    if (!U.Ok) {
      ++Out.Failed;
      continue;
    }
    Out.Evals += U.R.Evals;
    Out.JobMs.push_back(U.Ms);
    Busy += U.Ms / 1e3;
  }
  Out.PassBusyS.push_back(Busy);
  if (Out.FirstPass.empty()) {
    Out.FirstPass = std::move(Pass);
    Out.Digest = reportDigest(Out.FirstPass);
    Out.UnitsPerPass = static_cast<unsigned>(Out.FirstPass.size());
    for (const Unit &U : Out.FirstPass) {
      if (!U.Ok)
        continue;
      Out.Findings += U.R.Findings.size();
      Out.Solved += U.R.Success;
    }
  } else if (std::string D = reportDigest(Pass); D != Out.Digest) {
    Out.Problems.push_back("pass digest " + D + " differs from the first "
                           "pass's " + Out.Digest +
                           " (non-deterministic findings)");
  }
}

bool timeLeft(const Clock::time_point &T0, const Options &O,
              const Outcome &Out, unsigned Passes) {
  if (Passes && Out.PassWallS.size() >= Passes)
    return false;
  if (Out.PassWallS.empty())
    return true;
  return secondsSince(T0) + Out.PassWallS.back() <= O.Seconds;
}

/// gsl_study and de_portfolio: one suite per pass through JobScheduler.
Outcome runBatch(const Options &O, unsigned Passes) {
  Outcome Out;
  const std::string Text = suiteFor(O);
  // Set-up: suite parse and expand, repeated for a steady median.
  api::SuiteSpec Suite;
  size_t Jobs = 0;
  for (unsigned Rep = 0; Rep < (O.Tiny ? 1 : 61); ++Rep) {
    Clock::time_point T0 = Clock::now();
    Expected<api::SuiteSpec> S = api::SuiteSpec::parse(Text);
    if (!S) {
      Out.Problems.push_back("suite parse: " + S.error());
      return Out;
    }
    Expected<std::vector<api::SuiteJob>> X = S->expand();
    if (!X) {
      Out.Problems.push_back("suite expand: " + X.error());
      return Out;
    }
    Out.SetupS.push_back(secondsSince(T0));
    Jobs = X->size();
    Suite = S.take();
  }
  // The tail is taken at the percentile that leaves ten samples beyond
  // it over eight passes.
  Out.TailPercentile = tailPercentile(8 * Jobs);

  unsigned Shards = std::max(1u, std::thread::hardware_concurrency());
  Out.Info.set("loop", json::Value::string("closed"))
      .set("clients", json::Value::number(1))
      .set("shards", json::Value::number(Shards))
      .set("jobs_per_pass", json::Value::number(static_cast<uint64_t>(Jobs)));

  Clock::time_point Run0 = Clock::now();
  while (timeLeft(Run0, O, Out, Passes)) {
    api::SuiteRunOptions RO;
    RO.Mode = api::SuiteMode::InProcess;
    RO.Shards = Shards;
    Clock::time_point T0 = Clock::now();
    Expected<api::SuiteReport> R = api::JobScheduler::execute(Suite, RO);
    double Wall = secondsSince(T0);
    if (!R) {
      Out.Problems.push_back("suite run: " + R.error());
      ++Out.Attempted;
      ++Out.Failed;
      break;
    }
    Out.ReqMs.push_back(Wall * 1e3);
    std::vector<Unit> Pass;
    for (api::JobResult &J : R->Results) {
      Unit U;
      U.Spec = J.Spec;
      U.SpecText = J.CanonicalSpec;
      U.Ok = J.hasReport();
      U.Error = J.Error;
      U.R = std::move(J.R);
      U.Ms = U.R.Seconds * 1e3;
      Pass.push_back(std::move(U));
    }
    finishPass(Out, Pass, Wall);
  }
  return Out;
}

/// spec_mix: a fresh Analyzer per spec, one after the other.
Outcome runSpecMix(const Options &O, unsigned Passes) {
  Outcome Out;
  const std::vector<std::string> Texts = specMixTexts(O);
  std::vector<api::AnalysisSpec> Specs;
  for (unsigned Rep = 0; Rep < (O.Tiny ? 1 : 61); ++Rep) {
    Specs.clear();
    Clock::time_point T0 = Clock::now();
    for (const std::string &T : Texts) {
      Expected<api::AnalysisSpec> S = api::AnalysisSpec::parse(T);
      if (!S) {
        Out.Problems.push_back("spec parse: " + S.error());
        return Out;
      }
      Specs.push_back(S.take());
    }
    Out.SetupS.push_back(secondsSince(T0));
  }
  Out.TailPercentile = tailPercentile(8 * Specs.size());
  Out.Info.set("loop", json::Value::string("closed"))
      .set("clients", json::Value::number(1))
      .set("specs_per_pass",
           json::Value::number(static_cast<uint64_t>(Specs.size())));

  Clock::time_point Run0 = Clock::now();
  while (timeLeft(Run0, O, Out, Passes)) {
    std::vector<Unit> Pass;
    Clock::time_point P0 = Clock::now();
    for (size_t I = 0; I < Specs.size(); ++I) {
      Unit U;
      U.Spec = Specs[I];
      U.SpecText = Texts[I];
      Clock::time_point T0 = Clock::now();
      Expected<api::Report> R = api::Analyzer(Specs[I]).run();
      U.Ms = secondsSince(T0) * 1e3;
      Out.ReqMs.push_back(U.Ms);
      U.Ok = R.hasValue();
      if (U.Ok)
        U.R = R.take();
      else
        U.Error = R.error();
      Pass.push_back(std::move(U));
    }
    finishPass(Out, Pass, secondsSince(P0));
  }
  return Out;
}

} // namespace

Outcome runWorkload(const Options &O, unsigned Passes) {
  Outcome Out = O.Workload == "spec_mix" ? runSpecMix(O, Passes)
                                         : runBatch(O, Passes);
  noteTiers(Out);
  return Out;
}

std::vector<api::AnalysisSpec> replaySpecs(const Options &O) {
  std::vector<api::AnalysisSpec> Specs;
  if (O.Workload == "gsl_study" || O.Workload == "de_portfolio") {
    // The scheduler's own expansion, so jobs carry the suite defaults.
    Expected<api::SuiteSpec> S = api::SuiteSpec::parse(suiteFor(O));
    Expected<std::vector<api::SuiteJob>> Jobs =
        S ? S->expand() : Expected<std::vector<api::SuiteJob>>::error("");
    if (Jobs)
      for (api::SuiteJob &J : *Jobs)
        Specs.push_back(std::move(J.Spec));
    return Specs;
  }
  for (const std::string &T : specMixTexts(O))
    if (Expected<api::AnalysisSpec> S = api::AnalysisSpec::parse(T))
      Specs.push_back(S.take());
  return Specs;
}

} // namespace e2e

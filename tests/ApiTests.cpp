//===--- ApiTests.cpp - wdm::api spec/analyzer/report tests ---------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "analyses/OverflowDetector.h"
#include "api/Analyzer.h"
#include "api/Backends.h"
#include "api/Subjects.h"
#include "api/TaskRegistry.h"
#include "gsl/Bessel.h"
#include "ir/Parser.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "opt/BasinHopping.h"
#include "support/Json.h"
#include "vm/VMWeakDistance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>

using namespace wdm;
using namespace wdm::api;

namespace {

const char *QuickstartIr = R"(
module "quickstart"
func @prog(%x: double) -> double {
entry:
  %xs = alloca double
  store %xs, %x
  %c1 = fcmp.le %x, 1.0
  condbr %c1, inc, mid
inc:
  %x1 = fadd %x, 1.0
  store %xs, %x1
  br mid
mid:
  %xv = load %xs
  %y = fmul %xv, %xv
  %c2 = fcmp.le %y, 4.0
  condbr %c2, dec, done
dec:
  %x2 = fsub %xv, 1.0
  store %xs, %x2
  br done
done:
  %r = load %xs
  ret %r
}
)";

//===----------------------------------------------------------------------===//
// JSON layer
//===----------------------------------------------------------------------===//

TEST(JsonTest, EscapingRoundTrip) {
  // Control chars, quotes, backslashes — the bytes instruction source
  // annotations can contain.
  std::string Nasty = "a\"b\\c\nd\te\x01f/g";
  json::Value Doc = json::Value::object().set(
      "s", json::Value::string(Nasty));
  std::string Text = Doc.dump();
  // The serialized form must not contain raw control characters.
  for (char C : Text)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u) << Text;

  auto Back = json::Value::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->find("s")->asString(), Nasty);
}

TEST(JsonTest, NonFiniteDoublesAsStrings) {
  double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json::numberToJson(Inf), "\"inf\"");
  EXPECT_EQ(json::numberToJson(-Inf), "\"-inf\"");
  EXPECT_EQ(json::numberToJson(std::nan("")), "\"nan\"");

  json::Value Doc = json::Value::object().set(
      "v", json::Value::number(Inf));
  auto Back = json::Value::parse(Doc.dump());
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->find("v")->asDouble(), Inf);
}

TEST(JsonTest, Uint64RoundTrip) {
  uint64_t Seed = 0xdeadbeefcafef00dULL; // Not representable as double.
  json::Value Doc =
      json::Value::object().set("seed", json::Value::number(Seed));
  auto Back = json::Value::parse(Doc.dump());
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->find("seed")->asUint(), Seed);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(json::Value::parse("{").hasValue());
  EXPECT_FALSE(json::Value::parse("{\"a\": }").hasValue());
  EXPECT_FALSE(json::Value::parse("[1, 2,]").hasValue());
  EXPECT_FALSE(json::Value::parse("{} trailing").hasValue());
  EXPECT_TRUE(json::Value::parse(" {\"a\": [1, -2.5e3, true, null]} ")
                  .hasValue());
}

//===----------------------------------------------------------------------===//
// Spec round trip
//===----------------------------------------------------------------------===//

TEST(SpecTest, JsonRoundTripAllFields) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Path;
  Spec.Module = ModuleSource::builtin("fig1a");
  Spec.Function = "fig1a";
  Spec.Path = {{0, true}, {1, false}};
  Spec.BoundaryForm = "minulp";
  Spec.OverflowMetric = "absgap";
  Spec.NFP = 7;
  Spec.MaxStall = 5;
  Spec.Probes = {{1.5, -2.25}, {3.0}};
  Spec.ValGlobal = "v";
  Spec.ErrGlobal = "e";
  Spec.Search.MaxEvals = 12345;
  Spec.Search.Starts = 9;
  Spec.Search.Seed = 0xdeadbeefcafef00dULL;
  Spec.Search.StartLo = -42.5;
  Spec.Search.StartHi = 17.25;
  Spec.Search.WildStartProb = 0.375;
  Spec.Search.Threads = 3;
  Spec.Search.Batch = 16;
  Spec.Search.Backends = {"basinhopping", "de"};
  Spec.Search.Engine = "interp";
  Spec.Search.Prune = "sites+box";

  std::string Text = Spec.toJsonText();
  Expected<AnalysisSpec> Back = AnalysisSpec::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();

  EXPECT_EQ(Back->Task, Spec.Task);
  EXPECT_EQ(static_cast<int>(Back->Module.K),
            static_cast<int>(Spec.Module.K));
  EXPECT_EQ(Back->Module.Text, Spec.Module.Text);
  EXPECT_EQ(Back->Function, Spec.Function);
  ASSERT_EQ(Back->Path.size(), 2u);
  EXPECT_EQ(Back->Path[0].Branch, 0u);
  EXPECT_TRUE(Back->Path[0].Taken);
  EXPECT_EQ(Back->Path[1].Branch, 1u);
  EXPECT_FALSE(Back->Path[1].Taken);
  EXPECT_EQ(Back->BoundaryForm, Spec.BoundaryForm);
  EXPECT_EQ(Back->OverflowMetric, Spec.OverflowMetric);
  EXPECT_EQ(Back->NFP, Spec.NFP);
  EXPECT_EQ(Back->MaxStall, Spec.MaxStall);
  EXPECT_EQ(Back->Probes, Spec.Probes);
  EXPECT_EQ(Back->ValGlobal, Spec.ValGlobal);
  EXPECT_EQ(Back->ErrGlobal, Spec.ErrGlobal);
  EXPECT_EQ(Back->Search.MaxEvals, Spec.Search.MaxEvals);
  EXPECT_EQ(Back->Search.Starts, Spec.Search.Starts);
  EXPECT_EQ(Back->Search.Seed, Spec.Search.Seed);
  EXPECT_EQ(Back->Search.StartLo, Spec.Search.StartLo);
  EXPECT_EQ(Back->Search.StartHi, Spec.Search.StartHi);
  EXPECT_EQ(Back->Search.WildStartProb, Spec.Search.WildStartProb);
  EXPECT_EQ(Back->Search.Threads, Spec.Search.Threads);
  EXPECT_EQ(Back->Search.Batch, Spec.Search.Batch);
  EXPECT_EQ(Back->Search.Backends, Spec.Search.Backends);
  EXPECT_EQ(Back->Search.Engine, Spec.Search.Engine);
  EXPECT_EQ(Back->Search.Prune, Spec.Search.Prune);

  // Serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(Back->toJsonText(), Text);

  // "batch" round-trips but is otherwise ignored: with the population
  // backends, a spec with and without it gives the same deterministic
  // report.
  AnalysisSpec Plain;
  Plain.Task = TaskKind::Boundary;
  Plain.Module = ModuleSource::builtin("fig2");
  Plain.Search.Seed = 23;
  Plain.Search.MaxEvals = 20'000;
  Plain.Search.Starts = 4;
  Plain.Search.Threads = 2;
  Plain.Search.Backends = {"de", "random"};
  AnalysisSpec Batched = Plain;
  Batched.Search.Batch = 16;
  Expected<Report> RP = Analyzer::analyze(Plain);
  Expected<Report> RB = Analyzer::analyze(Batched);
  ASSERT_TRUE(RP.hasValue()) << RP.error();
  ASSERT_TRUE(RB.hasValue()) << RB.error();
  EXPECT_EQ(deterministicReportJson(RP->toJson()).dump(),
            deterministicReportJson(RB->toJson()).dump());
}

TEST(SpecTest, EngineFieldDefaultsAndValidation) {
  // Unset engine resolves to the compiled tier and stays unset in JSON.
  Expected<AnalysisSpec> Unset = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"}})");
  ASSERT_TRUE(Unset.hasValue()) << Unset.error();
  EXPECT_TRUE(Unset->Search.Engine.empty());
  EXPECT_EQ(Unset->Search.engineKind(), vm::EngineKind::VM);
  EXPECT_EQ(Unset->toJsonText().find("\"engine\""), std::string::npos);

  // All three tier spellings parse ("jit" on every platform — hosts
  // without the native tier degrade at factory time, not parse time).
  for (const char *Name : {"interp", "vm", "jit"}) {
    Expected<AnalysisSpec> Ok = AnalysisSpec::parse(
        std::string(R"({"task": "boundary", "module": {"builtin": "fig2"},
                        "search": {"engine": ")") +
        Name + R"("}})");
    ASSERT_TRUE(Ok.hasValue()) << Name << ": " << Ok.error();
    EXPECT_EQ(Ok->Search.Engine, Name);
  }

  // Unknown values are strict validation errors, not silent defaults,
  // and the message lists the valid names.
  Expected<AnalysisSpec> Bad = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"},
          "search": {"engine": "llvm"}})");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().find("engine"), std::string::npos);
  EXPECT_NE(Bad.error().find("'jit'"), std::string::npos);

  // Wrong type is an error too.
  EXPECT_FALSE(AnalysisSpec::parse(
                   R"({"task": "boundary", "module": {"builtin": "fig2"},
                       "search": {"engine": 3}})")
                   .hasValue());

  // Programmatically built specs (which bypass the JSON parser) hit the
  // same strict validation inside the Analyzer.
  AnalysisSpec Direct;
  Direct.Task = TaskKind::Boundary;
  Direct.Module = ModuleSource::builtin("fig2");
  Direct.Search.Engine = "native";
  Expected<Report> R = Analyzer::analyze(Direct);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("engine"), std::string::npos);
}

TEST(SpecTest, UnsetSearchFieldsStayUnset) {
  Expected<AnalysisSpec> Spec = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"},
          "search": {"seed": 7}})");
  ASSERT_TRUE(Spec.hasValue()) << Spec.error();
  EXPECT_TRUE(Spec->Search.Seed.has_value());
  EXPECT_FALSE(Spec->Search.MaxEvals.has_value());
  EXPECT_FALSE(Spec->Search.Starts.has_value());
  EXPECT_FALSE(Spec->Search.Threads.has_value());
}

TEST(SpecTest, ErrorPaths) {
  // Unknown task.
  auto R1 = AnalysisSpec::parse(
      R"({"task": "frobnicate", "module": {"builtin": "fig2"}})");
  ASSERT_FALSE(R1.hasValue());
  EXPECT_NE(R1.error().find("unknown task"), std::string::npos);

  // Malformed JSON.
  EXPECT_FALSE(AnalysisSpec::parse("{\"task\": ").hasValue());

  // Missing module for a module-needing task.
  EXPECT_FALSE(AnalysisSpec::parse(R"({"task": "boundary"})").hasValue());

  // fpsat requires a constraint.
  EXPECT_FALSE(AnalysisSpec::parse(R"({"task": "fpsat"})").hasValue());

  // path requires legs.
  EXPECT_FALSE(AnalysisSpec::parse(
                   R"({"task": "path", "module": {"builtin": "fig1a"}})")
                   .hasValue());

  // Bad enum vocabulary.
  EXPECT_FALSE(
      AnalysisSpec::parse(
          R"({"task": "boundary", "module": {"builtin": "fig2"},
              "boundary_form": "quadratic"})")
          .hasValue());
}

TEST(SpecTest, AnalyzerRejectsBadSpecs) {
  // Unknown builtin.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::builtin("no_such_subject");
  EXPECT_FALSE(Analyzer::analyze(Spec).hasValue());

  // Unknown function in a parsed module.
  Spec.Module = ModuleSource::inlineText(QuickstartIr);
  Spec.Function = "missing";
  EXPECT_FALSE(Analyzer::analyze(Spec).hasValue());

  // Unknown backend name.
  Spec.Function.clear();
  Spec.Search.Backends = {"gradient_descent"};
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("unknown backend"), std::string::npos);

  // Unreadable module file.
  AnalysisSpec FileSpec;
  FileSpec.Task = TaskKind::Boundary;
  FileSpec.Module = ModuleSource::file("/nonexistent/path.wir");
  EXPECT_FALSE(Analyzer::analyze(FileSpec).hasValue());

  // Module parse error.
  AnalysisSpec BadIr;
  BadIr.Task = TaskKind::Boundary;
  BadIr.Module = ModuleSource::inlineText("not ir at all");
  EXPECT_FALSE(Analyzer::analyze(BadIr).hasValue());

  // Path leg out of range.
  AnalysisSpec PathSpec;
  PathSpec.Task = TaskKind::Path;
  PathSpec.Module = ModuleSource::inlineText(QuickstartIr);
  PathSpec.Path = {{99, true}};
  EXPECT_FALSE(Analyzer::analyze(PathSpec).hasValue());

  // Inconsistency needs result slots.
  AnalysisSpec Inc;
  Inc.Task = TaskKind::Inconsistency;
  Inc.Module = ModuleSource::inlineText(QuickstartIr);
  EXPECT_FALSE(Analyzer::analyze(Inc).hasValue());
}

TEST(RegistryTest, AllSixTasksRegistered) {
  registerBuiltinTasks();
  for (TaskKind K :
       {TaskKind::Boundary, TaskKind::Path, TaskKind::Coverage,
        TaskKind::Overflow, TaskKind::Inconsistency, TaskKind::FpSat})
    EXPECT_TRUE(static_cast<bool>(findTask(K))) << taskKindName(K);
}

TEST(BackendsTest, EveryNameConstructs) {
  for (const std::string &Name : backendNames()) {
    auto B = makeBackend(Name);
    ASSERT_TRUE(B.hasValue()) << Name;
    EXPECT_NE(*B, nullptr);
  }
  EXPECT_FALSE(makeBackend("simulated_annealing").hasValue());
}

TEST(SubjectsTest, EveryBuiltinBuilds) {
  for (const BuiltinInfo &Info : builtinSubjects()) {
    ir::Module M;
    auto Sub = buildBuiltinSubject(M, Info.Name);
    ASSERT_TRUE(Sub.hasValue()) << Info.Name;
    ASSERT_NE(Sub->F, nullptr) << Info.Name;
    EXPECT_EQ(Sub->F->name(), Info.Function) << Info.Name;
  }
}

//===----------------------------------------------------------------------===//
// Analyzer-vs-direct-class equivalence
//===----------------------------------------------------------------------===//

TEST(EquivalenceTest, BoundaryMatchesDirectOnQuickstart) {
  // Direct fine-grained path.
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  analyses::BoundaryAnalysis BVA(M, *M.functionByName("prog"));
  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 2019;
  Opts.MaxEvals = 40'000;
  core::SearchResult Direct = BVA.findOne(Backend, Opts);
  ASSERT_TRUE(Direct.Found);

  // Declarative path with the same knobs.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::inlineText(QuickstartIr);
  Spec.Search.Seed = 2019;
  Spec.Search.MaxEvals = 40'000;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();

  ASSERT_TRUE(R->Success);
  const Finding *F = R->first("boundary");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Input, Direct.Witness);
  EXPECT_EQ(R->Evals, Direct.Evals);
  EXPECT_EQ(R->StartsUsed, Direct.StartsUsed);
  EXPECT_EQ(R->UnsoundCandidates, Direct.UnsoundCandidates);
}

TEST(EquivalenceTest, OverflowMatchesDirectOnBessel) {
  // Direct fine-grained path on the GSL Bessel model.
  analyses::OverflowDetector::Options DirectOpts;
  DirectOpts.Seed = 0xbe55;
  DirectOpts.EvalsPerRound = 3'000;
  DirectOpts.StartsPerRound = 2;
  analyses::OverflowReport Direct = [&] {
    ir::Module M;
    gsl::SfFunction Bessel = gsl::buildBesselKnuScaledAsympx(M);
    analyses::OverflowDetector Det(M, *Bessel.F);
    return Det.run(DirectOpts);
  }();

  // Declarative path with the same knobs.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Overflow;
  Spec.Module = ModuleSource::builtin("bessel");
  Spec.Search.Seed = 0xbe55;
  Spec.Search.MaxEvals = 3'000; // per-round budget for Algorithm 3
  Spec.Search.Starts = 2;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();

  // Same findings count, same per-site witnesses, same eval total.
  EXPECT_EQ(R->Extra.find("num_ops")->asUint(), Direct.NumOps);
  EXPECT_EQ(R->Extra.find("num_overflows")->asUint(),
            Direct.numOverflows());
  EXPECT_EQ(R->Evals, Direct.Evals);
  std::vector<const analyses::OverflowFinding *> Found;
  for (const analyses::OverflowFinding &F : Direct.Findings)
    if (F.Found)
      Found.push_back(&F);
  ASSERT_EQ(R->count("overflow"), Found.size());
  size_t I = 0;
  for (const Finding &F : R->Findings) {
    if (F.Kind != "overflow")
      continue;
    EXPECT_EQ(F.SiteId, Found[I]->SiteId);
    EXPECT_EQ(F.Input, Found[I]->Input);
    ++I;
  }
}

TEST(EquivalenceTest, NfpLimitsRounds) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Overflow;
  Spec.Module = ModuleSource::builtin("bessel");
  Spec.Search.Seed = 0xbe55;
  Spec.Search.MaxEvals = 2'000;
  Spec.NFP = 3; // At most 3 Algorithm 3 rounds -> at most 3 findings.
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_LE(R->count("overflow"), 3u);
}

TEST(EquivalenceTest, EnginesProduceIdenticalReports) {
  // The compiled tier's bar: engine=vm and engine=interp agree
  // bit-for-bit through the whole declarative pipeline.
  auto Run = [&](const char *Engine) {
    AnalysisSpec Spec;
    Spec.Task = TaskKind::Boundary;
    Spec.Module = ModuleSource::inlineText(QuickstartIr);
    Spec.Search.Seed = 2019;
    Spec.Search.MaxEvals = 40'000;
    Spec.Search.Engine = Engine;
    Expected<Report> R = Analyzer::analyze(Spec);
    if (!R.hasValue()) {
      ADD_FAILURE() << R.error();
      return Report{};
    }
    return R.take();
  };
  Report RV = Run("vm");
  Report RI = Run("interp");

  EXPECT_EQ(RV.Engine, "vm");
  EXPECT_TRUE(RV.EngineFallback.empty()) << RV.EngineFallback;
  EXPECT_EQ(RI.Engine, "interp");

  ASSERT_EQ(RV.Success, RI.Success);
  ASSERT_EQ(RV.Findings.size(), RI.Findings.size());
  for (size_t K = 0; K < RV.Findings.size(); ++K) {
    EXPECT_EQ(RV.Findings[K].Input, RI.Findings[K].Input);
    EXPECT_EQ(RV.Findings[K].SiteId, RI.Findings[K].SiteId);
  }
  EXPECT_EQ(RV.Evals, RI.Evals);
  EXPECT_EQ(RV.StartsUsed, RI.StartsUsed);
  EXPECT_EQ(RV.UnsoundCandidates, RI.UnsoundCandidates);

  // An unset engine is the vm default.
  AnalysisSpec Default;
  Default.Task = TaskKind::Boundary;
  Default.Module = ModuleSource::inlineText(QuickstartIr);
  Default.Search.Seed = 2019;
  Default.Search.MaxEvals = 40'000;
  Expected<Report> RD = Analyzer::analyze(Default);
  ASSERT_TRUE(RD.hasValue()) << RD.error();
  EXPECT_EQ(RD->Engine, "vm");
  EXPECT_EQ(RD->Evals, RV.Evals);
}

TEST(EquivalenceTest, FpSatReportsNativeEngine) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::FpSat;
  Spec.Constraint = "(= x 1.5)";
  Spec.Search.Seed = 7;
  Spec.Search.MaxEvals = 20'000;
  Spec.Search.Engine = "vm"; // Accepted, but fpsat is native code.
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_EQ(R->Engine, "native");
}

//===----------------------------------------------------------------------===//
// Report serialization
//===----------------------------------------------------------------------===//

TEST(ReportTest, JsonSerializesAndParses) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Coverage;
  Spec.Module = ModuleSource::builtin("classifier");
  Spec.Search.Seed = 0xc0;
  Spec.Search.MaxEvals = 30'000;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();

  auto Doc = json::Value::parse(R->toJsonText());
  ASSERT_TRUE(Doc.hasValue()) << Doc.error();
  EXPECT_EQ(Doc->find("task")->asString(), "coverage");
  EXPECT_EQ(Doc->find("function")->asString(), "classifier");
  EXPECT_EQ(Doc->find("success")->asBool(), R->Success);
  EXPECT_EQ(Doc->find("findings")->size(), R->Findings.size());
  EXPECT_EQ(Doc->find("evals")->asUint(), R->Evals);
  ASSERT_NE(Doc->find("engine"), nullptr);
  EXPECT_EQ(Doc->find("engine")->asString(), "vm");
  EXPECT_EQ(Doc->find("extra")->find("total")->asUint(),
            R->Extra.find("total")->asUint());
}

//===----------------------------------------------------------------------===//
// Static pre-pass: spec field, report section, findings identity
//===----------------------------------------------------------------------===//

TEST(SpecTest, PruneFieldDefaultsAndValidation) {
  // Unset prune means no pre-pass and stays unset in JSON.
  Expected<AnalysisSpec> Unset = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"}})");
  ASSERT_TRUE(Unset.hasValue()) << Unset.error();
  EXPECT_TRUE(Unset->Search.Prune.empty());
  EXPECT_EQ(Unset->Search.pruneMode(), PruneMode::Off);
  EXPECT_EQ(Unset->toJsonText().find("\"prune\""), std::string::npos);

  // All three spellings parse; "sites+box" resolves to plain "sites"
  // but keeps its text.
  const std::pair<const char *, PruneMode> Modes[] = {
      {"off", PruneMode::Off},
      {"sites", PruneMode::Sites},
      {"sites+box", PruneMode::Sites},
  };
  for (const auto &[Name, Mode] : Modes) {
    Expected<AnalysisSpec> Ok = AnalysisSpec::parse(
        std::string(R"({"task": "boundary", "module": {"builtin": "fig2"},
                        "search": {"prune": ")") +
        Name + R"("}})");
    ASSERT_TRUE(Ok.hasValue()) << Name << ": " << Ok.error();
    EXPECT_EQ(Ok->Search.Prune, Name);
    EXPECT_EQ(Ok->Search.pruneMode(), Mode);
  }

  // Unknown values are strict validation errors listing the names.
  Expected<AnalysisSpec> Bad = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"},
          "search": {"prune": "aggressive"}})");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().find("prune"), std::string::npos);
  EXPECT_NE(Bad.error().find("sites+box"), std::string::npos);

  // Wrong type is an error too.
  EXPECT_FALSE(AnalysisSpec::parse(
                   R"({"task": "boundary", "module": {"builtin": "fig2"},
                       "search": {"prune": true}})")
                   .hasValue());

  // Programmatically built specs hit the same validation in the
  // Analyzer, like the engine field.
  AnalysisSpec Direct;
  Direct.Task = TaskKind::Boundary;
  Direct.Module = ModuleSource::builtin("fig2");
  Direct.Search.Prune = "boxes";
  Expected<Report> R = Analyzer::analyze(Direct);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("prune"), std::string::npos);
}

TEST(SpecTest, UnknownPruneNameErrorIsUnchanged) {
  // Folding "sites+box" into "sites" leaves the accepted names, and so
  // the message that lists them, as they were.
  Expected<AnalysisSpec> Bad = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"},
          "search": {"prune": "box"}})");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.error(),
            "spec: prune must be one of off|sites|sites+box, got 'box'");

  AnalysisSpec Direct;
  Direct.Task = TaskKind::Boundary;
  Direct.Module = ModuleSource::builtin("fig2");
  Direct.Search.Prune = "box";
  Expected<Report> R = Analyzer::analyze(Direct);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.error(), Bad.error());
}

TEST(SpecTest, AnalyzerVerifiesParsedModules) {
  // The parser accepts this shape (%v is in scope by parse order), but
  // its definition does not dominate the use — the Analyzer must run
  // ir::verifyModule and reject it as a spec error instead of letting
  // downstream passes trip over it.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::inlineText(R"(
module "bad"
func @f(%x: double) -> double {
entry:
  %c = fcmp.lt %x, 0.0
  condbr %c, a, join
a:
  %v = fadd %x, 1.0
  br join
join:
  ret %v
}
)");
  Spec.Function = "f";
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("verification"), std::string::npos)
      << R.error();

  // A well-formed inline module still analyzes.
  Spec.Module = ModuleSource::inlineText(R"(
module "good"
func @f(%x: double) -> double {
entry:
  %y = fmul %x, %x
  ret %y
}
)");
  Spec.Search.MaxEvals = 200;
  Expected<Report> Ok = Analyzer::analyze(Spec);
  EXPECT_TRUE(Ok.hasValue()) << Ok.error();
}

TEST(ReportTest, StaticSectionRoundTrip) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Overflow;
  Spec.Module = ModuleSource::builtin("bessel");
  Spec.Search.Seed = 0x5a;
  Spec.Search.MaxEvals = 3000;
  Spec.Search.Prune = "sites";
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  ASSERT_TRUE(R->Static.Ran);
  EXPECT_EQ(R->Static.Mode, "sites");
  EXPECT_GT(R->Static.SitesTotal, 0u);

  // toJson -> fromJson -> toJson is byte-identical, section included.
  std::string Text = R->toJsonText();
  Expected<Report> Back = Report::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_TRUE(Back->Static.Ran);
  EXPECT_EQ(Back->Static.Mode, R->Static.Mode);
  EXPECT_EQ(Back->Static.SitesTotal, R->Static.SitesTotal);
  EXPECT_EQ(Back->Static.SitesPruned, R->Static.SitesPruned);
  EXPECT_EQ(Back->Static.SitesProvedSafe, R->Static.SitesProvedSafe);
  EXPECT_EQ(Back->Static.Items.size(), R->Static.Items.size());
  EXPECT_EQ(Back->toJsonText(), Text);

  // The deterministic form strips the pre-pass wall clock (and only it).
  auto Doc = json::Value::parse(Text);
  ASSERT_TRUE(Doc.hasValue());
  json::Value Det = deterministicReportJson(*Doc);
  const json::Value *St = Det.find("static");
  ASSERT_NE(St, nullptr);
  EXPECT_EQ(St->find("seconds"), nullptr);
  EXPECT_NE(St->find("mode"), nullptr);
}

TEST(ReportTest, StaticSectionAbsentFromOlderLogs) {
  // Reports serialized before the pre-pass existed (or with prune off)
  // have no "static" key: they parse with Ran == false and re-serialize
  // without the section.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::builtin("fig2");
  Spec.Search.Seed = 1;
  Spec.Search.MaxEvals = 2000;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_FALSE(R->Static.Ran);
  std::string Text = R->toJsonText();
  EXPECT_EQ(Text.find("\"static\""), std::string::npos);
  Expected<Report> Back = Report::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_FALSE(Back->Static.Ran);
  EXPECT_EQ(Back->toJsonText(), Text);
}

TEST(ReportTest, StaticBoxFromOlderLogsIsIgnored) {
  // Reports written while "sites+box" still shrank the start box carry
  // a "static"."box" member. They must still load (resume logs replay
  // them); the member is dropped.
  Expected<Report> R = Report::parse(R"({
    "task": "boundary", "function": "fig2", "success": true,
    "findings": [], "evals": 1799,
    "static": {"mode": "sites+box", "sites_total": 4, "sites_pruned": 0,
               "sites_proved_safe": 0, "seconds": 0.001,
               "box": {"lo": -100, "hi": 12.5}, "items": []}
  })");
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_TRUE(R->Static.Ran);
  EXPECT_EQ(R->Static.Mode, "sites+box");
  EXPECT_EQ(R->Static.SitesTotal, 4u);
  EXPECT_EQ(R->Evals, 1799u);
  EXPECT_EQ(R->toJsonText().find("\"box\""), std::string::npos);
}

TEST(EquivalenceTest, SitesBoxRunsExactlyLikeSites) {
  // fig2 boundary is a spec whose start box the old "sites+box" mode
  // shrank. Now the start box comes from the spec alone: the run emits
  // no box-shrink span or counter, and its deterministic report equals
  // the "sites" report byte for byte.
  obs::setEnabled(true);
  obs::resetMetrics();
  obs::clearTrace();
  obs::startTrace();
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::builtin("fig2");
  Spec.Search.Seed = 2019;
  Spec.Search.MaxEvals = 40000;
  Spec.Search.Threads = 1;
  Spec.Search.Prune = "sites+box";
  Expected<Report> Box = Analyzer::analyze(Spec);
  obs::stopTrace();
  json::Value Counters = obs::snapshotJson();
  json::Value Trace = obs::traceJson();
  obs::setEnabled(false);
  obs::resetMetrics();
  obs::clearTrace();
  ASSERT_TRUE(Box.hasValue()) << Box.error();

  const json::Value *Events = Trace.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool SawPrepass = false;
  for (size_t I = 0; I < Events->size(); ++I) {
    std::string Name = Events->at(I).find("name")->asString();
    SawPrepass |= Name == "absint_prepass";
    EXPECT_NE(Name, "box_shrink");
  }
  EXPECT_TRUE(SawPrepass);
  const json::Value *Cs = Counters.find("counters");
  ASSERT_NE(Cs, nullptr);
  EXPECT_NE(Cs->find("absint.prepass_runs"), nullptr);
  EXPECT_EQ(Cs->find("absint.boxes_shrunk"), nullptr);

  json::Value BoxJson = Box->toJson();
  ASSERT_NE(BoxJson.find("static"), nullptr);
  EXPECT_EQ(BoxJson.find("static")->find("box"), nullptr);

  Spec.Search.Prune = "sites";
  Expected<Report> Sites = Analyzer::analyze(Spec);
  ASSERT_TRUE(Sites.hasValue()) << Sites.error();
  EXPECT_EQ(deterministicReportJson(BoxJson).dump(),
            deterministicReportJson(Sites->toJson()).dump());
}

TEST(EquivalenceTest, PruneModesPreserveFindings) {
  // The pre-pass only redirects the eval budget; the set of (kind, site)
  // findings must be identical across prune modes.
  auto SiteSet = [](const Report &R) {
    std::set<std::pair<std::string, int>> S;
    for (const Finding &F : R.Findings)
      S.insert({F.Kind, F.SiteId});
    return S;
  };
  for (const char *Builtin : {"bessel", "fig2"}) {
    AnalysisSpec Spec;
    Spec.Task = TaskKind::Overflow;
    Spec.Module = ModuleSource::builtin(Builtin);
    Spec.Search.Seed = 0xf1;
    Spec.Search.MaxEvals = 4000;
    Spec.Search.Prune = "off";
    Expected<Report> Off = Analyzer::analyze(Spec);
    ASSERT_TRUE(Off.hasValue()) << Off.error();
    Spec.Search.Prune = "sites";
    Expected<Report> On = Analyzer::analyze(Spec);
    ASSERT_TRUE(On.hasValue()) << On.error();
    EXPECT_EQ(SiteSet(*Off), SiteSet(*On)) << Builtin;
    // Every dropped site is a proof: it must not appear among the
    // prune-off findings either.
    for (const StaticItem &It : On->Static.Items)
      for (const Finding &F : Off->Findings)
        EXPECT_NE(F.SiteId, It.SiteId) << Builtin << ": proved-safe site "
                                       << It.SiteId << " fired";
  }
}

TEST(EquivalenceTest, Fig1aPathWitnessSurvivesSitePruning) {
  // The paper's Fig. 1a bug: x = 0.9999999999999999 takes x < 1, and
  // x + 1 rounds to 2, so x + 1 < 2 is false. The pre-pass must not
  // call that leg infeasible: "sites" finds the same witness as "off".
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Path;
  Spec.Module = ModuleSource::builtin("fig1a");
  Spec.Path = {{0, true}, {1, false}};
  Spec.Search.Seed = 1;
  Spec.Search.MaxEvals = 80000;
  Spec.Search.Prune = "off";
  Expected<Report> Off = Analyzer::analyze(Spec);
  ASSERT_TRUE(Off.hasValue()) << Off.error();
  ASSERT_TRUE(Off->Success);
  Spec.Search.Prune = "sites";
  Expected<Report> On = Analyzer::analyze(Spec);
  ASSERT_TRUE(On.hasValue()) << On.error();
  EXPECT_TRUE(On->Success);
  EXPECT_NE(On->Engine, "static");
  EXPECT_EQ(On->Evals, Off->Evals);
  ASSERT_EQ(On->Findings.size(), 1u);
  ASSERT_EQ(Off->Findings.size(), 1u);
  EXPECT_EQ(On->Findings[0].Input, Off->Findings[0].Input);
}

} // namespace

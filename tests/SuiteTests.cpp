//===--- SuiteTests.cpp - wdm::api suite layer tests ----------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The suite layer's correctness bar: deterministic content-addressed
// expansion, bit-identical per-job Reports across inprocess /
// subprocess / shard-count run configurations, and resume-from-
// checkpoint equal to an uninterrupted run. Subprocess-mode tests drive
// the real `wdm` binary (WDM_CLI_EXE, injected by CMake).
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/JobScheduler.h"
#include "api/SuiteReport.h"
#include "api/SuiteSpec.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

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

std::string tempPath(const std::string &Stem) {
  return ::testing::TempDir() + "wdm_suite_" + std::to_string(getpid()) +
         "_" + Stem;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out) << Path;
  Out << Text;
}

std::string readFileText(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// A fast, deterministic four-job study: fig2 boundary at four seeds.
SuiteSpec smallMatrixSuite() {
  Expected<SuiteSpec> Suite = SuiteSpec::parse(R"({
    "suite": "small",
    "defaults": {"search": {"max_evals": 20000, "threads": 1}},
    "matrix": {
      "subjects": ["fig2"],
      "tasks": ["boundary"],
      "seed_base": 40, "seed_count": 4
    }
  })");
  EXPECT_TRUE(Suite.hasValue()) << Suite.error();
  return Suite.take();
}

std::map<std::string, std::string>
deterministicHashes(const SuiteReport &R) {
  std::map<std::string, std::string> Out;
  for (const JobResult &J : R.Results)
    if (J.hasReport())
      Out[J.Id] = fnv1a64Hex(deterministicReportJson(J.R.toJson()).dump());
  return Out;
}

/// The deterministic slice of the aggregates (everything but wall
/// clock), comparable across resumed/sharded/mode variants.
std::string aggregateKey(const SuiteReport &R) {
  std::ostringstream Out;
  Out << R.Jobs << "/" << R.Executed + R.Skipped << "/" << R.Failed << "/"
      << R.Succeeded << "/" << R.Findings << "/" << R.Evals;
  for (const SuiteReport::TaskStats &T : R.PerTask)
    Out << "|" << T.Task << ":" << T.Jobs << ":" << T.Succeeded << ":"
        << T.Findings << ":" << T.Evals;
  return Out.str();
}

//===----------------------------------------------------------------------===//
// JSON layer additions
//===----------------------------------------------------------------------===//

TEST(JsonMergeTest, DeepMergeSemantics) {
  Value Base = *Value::parse(
      R"({"a": 1, "search": {"seed": 7, "starts": 2}, "list": [1, 2]})");
  Value Overlay = *Value::parse(
      R"({"search": {"seed": 9}, "list": [3], "extra": true})");
  Value Merged = json::deepMerge(Base, Overlay);
  EXPECT_EQ(Merged.find("a")->asUint(), 1u);
  EXPECT_EQ(Merged.find("search")->find("seed")->asUint(), 9u);  // overlay
  EXPECT_EQ(Merged.find("search")->find("starts")->asUint(), 2u); // base
  EXPECT_EQ(Merged.find("list")->size(), 1u); // arrays replace
  EXPECT_TRUE(Merged.find("extra")->asBool());

  // Null overlay leaves the base untouched; non-object overlay wins.
  EXPECT_EQ(json::deepMerge(Base, Value()).dump(), Base.dump());
  EXPECT_EQ(json::deepMerge(Base, Value::number(3.5)).asDouble(), 3.5);
}

TEST(JsonMergeTest, NdjsonReaderSkipsTruncatedTail) {
  std::string Path = tempPath("ndjson_tail.ndjson");
  writeFile(Path, "{\"a\": 1}\n\n{\"b\": 2}\n{\"trunc");
  auto Docs = json::readNdjsonFile(Path);
  ASSERT_TRUE(Docs.hasValue()) << Docs.error();
  ASSERT_EQ(Docs->size(), 2u);
  EXPECT_EQ((*Docs)[0].find("a")->asUint(), 1u);
  EXPECT_EQ((*Docs)[1].find("b")->asUint(), 2u);
  std::remove(Path.c_str());

  EXPECT_FALSE(json::readNdjsonFile(Path).hasValue()); // missing file
}

//===----------------------------------------------------------------------===//
// SuiteSpec round trip + expansion
//===----------------------------------------------------------------------===//

TEST(SuiteSpecTest, JsonRoundTripFixedPoint) {
  Expected<SuiteSpec> Suite = SuiteSpec::parse(R"json({
    "suite": "rt",
    "defaults": {"search": {"starts": 3}},
    "jobs": [{"task": "fpsat", "constraint": "(= x 1.5)"}],
    "matrix": {
      "subjects": ["bessel", "airy"],
      "tasks": ["overflow", "inconsistency"],
      "configs": [{"overflow_metric": "absgap"}],
      "seeds": [7, 9],
      "seed_base": 100, "seed_count": 2
    }
  })json");
  ASSERT_TRUE(Suite.hasValue()) << Suite.error();
  EXPECT_EQ(Suite->Name, "rt");
  EXPECT_EQ(Suite->Jobs.size(), 1u);
  EXPECT_EQ(Suite->Matrix.Subjects,
            (std::vector<std::string>{"bessel", "airy"}));
  ASSERT_EQ(Suite->Matrix.Tasks.size(), 2u);
  EXPECT_EQ(Suite->Matrix.Tasks[0], TaskKind::Overflow);
  EXPECT_EQ(Suite->Matrix.seedList(),
            (std::vector<uint64_t>{7, 9, 100, 101}));

  std::string Text = Suite->toJsonText();
  Expected<SuiteSpec> Back = SuiteSpec::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->toJsonText(), Text);
}

TEST(SuiteSpecTest, MatrixExpansionOrderAndIds) {
  SuiteSpec Suite;
  Suite.Matrix.Subjects = {"fig2", "fig1a"};
  Suite.Matrix.Tasks = {TaskKind::Boundary};
  Suite.Matrix.Seeds = {1, 2};
  Expected<std::vector<SuiteJob>> Jobs = Suite.expand();
  ASSERT_TRUE(Jobs.hasValue()) << Jobs.error();
  ASSERT_EQ(Jobs->size(), 4u); // subjects × seeds, seeds innermost
  EXPECT_EQ((*Jobs)[0].Spec.Module.Text, "fig2");
  EXPECT_EQ(*(*Jobs)[0].Spec.Search.Seed, 1u);
  EXPECT_EQ(*(*Jobs)[1].Spec.Search.Seed, 2u);
  EXPECT_EQ((*Jobs)[2].Spec.Module.Text, "fig1a");

  // IDs are the hash of the canonical spec text.
  for (const SuiteJob &J : *Jobs) {
    EXPECT_EQ(J.Id, fnv1a64Hex(J.CanonicalSpec));
    // Canonicalization is a fixed point: parse(text).toJson().dump() is
    // the text itself.
    Expected<AnalysisSpec> Re = AnalysisSpec::parse(J.CanonicalSpec);
    ASSERT_TRUE(Re.hasValue()) << Re.error();
    EXPECT_EQ(Re->toJson().dump(), J.CanonicalSpec);
  }

  // Content addressing: reordering the matrix permutes the job list but
  // leaves every ID unchanged.
  SuiteSpec Reordered;
  Reordered.Matrix.Subjects = {"fig1a", "fig2"};
  Reordered.Matrix.Tasks = {TaskKind::Boundary};
  Reordered.Matrix.Seeds = {2, 1};
  Expected<std::vector<SuiteJob>> Jobs2 = Reordered.expand();
  ASSERT_TRUE(Jobs2.hasValue()) << Jobs2.error();
  auto Ids = [](const std::vector<SuiteJob> &Js) {
    std::set<std::string> Out;
    for (const SuiteJob &J : Js)
      Out.insert(J.Id);
    return Out;
  };
  EXPECT_EQ(Ids(*Jobs), Ids(*Jobs2));
  EXPECT_NE((*Jobs)[0].Id, (*Jobs2)[0].Id);
}

TEST(SuiteSpecTest, DefaultsMergeUnderJobFields) {
  Expected<SuiteSpec> Suite = SuiteSpec::parse(R"({
    "defaults": {"search": {"max_evals": 111, "starts": 3}},
    "jobs": [
      {"task": "boundary", "module": {"builtin": "fig2"}},
      {"task": "boundary", "module": {"builtin": "fig2"},
       "search": {"max_evals": 222}}
    ]
  })");
  ASSERT_TRUE(Suite.hasValue()) << Suite.error();
  Expected<std::vector<SuiteJob>> Jobs = Suite->expand();
  ASSERT_TRUE(Jobs.hasValue()) << Jobs.error();
  ASSERT_EQ(Jobs->size(), 2u);
  EXPECT_EQ(*(*Jobs)[0].Spec.Search.MaxEvals, 111u); // default applies
  EXPECT_EQ(*(*Jobs)[1].Spec.Search.MaxEvals, 222u); // job wins
  EXPECT_EQ(*(*Jobs)[1].Spec.Search.Starts, 3u);     // sibling survives
}

TEST(SuiteSpecTest, SitesBoxJobKeepsItsTextAndId) {
  // "sites+box" now runs as "sites", but a spec keeps the text it was
  // written with, so its content-addressed job id (which resume logs
  // and the serve cache key on) is the one older builds gave it.
  Expected<SuiteSpec> Suite = SuiteSpec::parse(R"({
    "jobs": [{"task": "boundary", "module": {"builtin": "fig2"},
              "search": {"seed": 2019, "max_evals": 40000,
                         "prune": "sites+box"}}]
  })");
  ASSERT_TRUE(Suite.hasValue()) << Suite.error();
  Expected<std::vector<SuiteJob>> Jobs = Suite->expand();
  ASSERT_TRUE(Jobs.hasValue()) << Jobs.error();
  ASSERT_EQ(Jobs->size(), 1u);
  const SuiteJob &Job = (*Jobs)[0];
  EXPECT_EQ(Job.Spec.Search.Prune, "sites+box");
  EXPECT_NE(Job.CanonicalSpec.find("\"prune\": \"sites+box\""),
            std::string::npos)
      << Job.CanonicalSpec;
  EXPECT_EQ(Job.Id, "1c0b01e3c3bf6506");
}

TEST(SuiteSpecTest, PruneFlowsThroughDefaultsAndJobs) {
  // search.prune rides the same deep-merge as every search field: the
  // suite default applies, a job override wins, and bad values fail
  // expansion with provenance.
  Expected<SuiteSpec> Suite = SuiteSpec::parse(R"({
    "defaults": {"search": {"prune": "sites"}},
    "jobs": [
      {"task": "boundary", "module": {"builtin": "fig2"}},
      {"task": "boundary", "module": {"builtin": "fig2"},
       "search": {"prune": "sites+box"}},
      {"task": "boundary", "module": {"builtin": "fig2"},
       "search": {"prune": "off"}}
    ]
  })");
  ASSERT_TRUE(Suite.hasValue()) << Suite.error();
  Expected<std::vector<SuiteJob>> Jobs = Suite->expand();
  ASSERT_TRUE(Jobs.hasValue()) << Jobs.error();
  ASSERT_EQ(Jobs->size(), 3u);
  EXPECT_EQ((*Jobs)[0].Spec.Search.pruneMode(), api::PruneMode::Sites);
  EXPECT_EQ((*Jobs)[1].Spec.Search.pruneMode(), api::PruneMode::Sites);
  EXPECT_EQ((*Jobs)[2].Spec.Search.pruneMode(), api::PruneMode::Off);

  Expected<SuiteSpec> Bad = SuiteSpec::parse(R"({
    "defaults": {"search": {"prune": "everything"}},
    "jobs": [{"task": "boundary", "module": {"builtin": "fig2"}}]
  })");
  ASSERT_TRUE(Bad.hasValue()) << Bad.error();
  Expected<std::vector<SuiteJob>> BadJobs = Bad->expand();
  ASSERT_FALSE(BadJobs.hasValue());
  EXPECT_NE(BadJobs.error().find("prune"), std::string::npos);
}

TEST(SuiteSpecTest, ExpansionErrors) {
  // Duplicate jobs (identical canonical spec) are rejected.
  Expected<SuiteSpec> Dup = SuiteSpec::parse(R"({
    "jobs": [
      {"task": "boundary", "module": {"builtin": "fig2"}},
      {"task": "boundary", "module": {"builtin": "fig2"}}
    ]
  })");
  ASSERT_TRUE(Dup.hasValue()) << Dup.error();
  Expected<std::vector<SuiteJob>> R = Dup->expand();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("duplicate job"), std::string::npos);

  // Suites with no job sources fail at parse; invalid member jobs fail
  // at expansion with provenance.
  EXPECT_FALSE(SuiteSpec::parse(R"({"suite": "empty"})").hasValue());
  Expected<SuiteSpec> Bad = SuiteSpec::parse(
      R"({"jobs": [{"task": "boundary"}]})"); // missing module
  ASSERT_TRUE(Bad.hasValue()) << Bad.error();
  Expected<std::vector<SuiteJob>> BadJobs = Bad->expand();
  ASSERT_FALSE(BadJobs.hasValue());
  EXPECT_NE(BadJobs.error().find("job #0"), std::string::npos);

  // Unknown matrix vocabulary is a parse error.
  EXPECT_FALSE(SuiteSpec::parse(R"({
    "matrix": {"subjects": ["fig2"], "tasks": ["frobnicate"]}
  })")
                   .hasValue());
  EXPECT_FALSE(SuiteSpec::parse(R"({
    "matrix": {"tasks": ["boundary"]}
  })")
                   .hasValue());
}

TEST(SuiteSpecTest, EnvOverridesChangeJobIdentity) {
  SuiteSpec Suite;
  Suite.Matrix.Subjects = {"fig2"};
  Suite.Matrix.Tasks = {TaskKind::Boundary};
  Suite.Matrix.Seeds = {5};

  unsetenv("WDM_STARTS");
  unsetenv("WDM_THREADS");
  unsetenv("WDM_SEED");
  Expected<std::vector<SuiteJob>> Plain = Suite.expand(true);
  ASSERT_TRUE(Plain.hasValue()) << Plain.error();

  setenv("WDM_SEED", "99", 1);
  Expected<std::vector<SuiteJob>> Env = Suite.expand(true);
  unsetenv("WDM_SEED");
  ASSERT_TRUE(Env.hasValue()) << Env.error();
  EXPECT_EQ(*(*Env)[0].Spec.Search.Seed, 99u); // env wins over matrix
  EXPECT_NE((*Env)[0].Id, (*Plain)[0].Id);     // identity follows content

  // Without ApplyEnvOverrides the env knobs are ignored entirely.
  setenv("WDM_SEED", "99", 1);
  Expected<std::vector<SuiteJob>> Off = Suite.expand(false);
  unsetenv("WDM_SEED");
  ASSERT_TRUE(Off.hasValue()) << Off.error();
  EXPECT_EQ((*Off)[0].Id, (*Plain)[0].Id);
}

//===----------------------------------------------------------------------===//
// SearchConfig::applyEnv precedence (satellite)
//===----------------------------------------------------------------------===//

TEST(ApplyEnvTest, EnvWinsOverExplicitSpecFields) {
  setenv("WDM_STARTS", "5", 1);
  setenv("WDM_THREADS", "3", 1);
  setenv("WDM_SEED", "0x12", 1); // hex accepted
  SearchConfig C;
  C.Starts = 2;
  C.Threads = 8;
  C.Seed = 7;
  C.MaxEvals = 4000;
  C.applyEnv();
  EXPECT_EQ(*C.Starts, 5u);
  EXPECT_EQ(*C.Threads, 3u);
  EXPECT_EQ(*C.Seed, 0x12u);
  EXPECT_EQ(*C.MaxEvals, 4000u); // untouched: no env knob for it

  SearchConfig FromEnv = SearchConfig::fromEnv();
  EXPECT_EQ(*FromEnv.Starts, 5u);
  EXPECT_EQ(*FromEnv.Threads, 3u);
  EXPECT_EQ(*FromEnv.Seed, 0x12u);
  unsetenv("WDM_STARTS");
  unsetenv("WDM_THREADS");
  unsetenv("WDM_SEED");
}

TEST(ApplyEnvTest, UnsetAndMalformedEnvLeaveFieldsAlone) {
  unsetenv("WDM_STARTS");
  unsetenv("WDM_THREADS");
  unsetenv("WDM_SEED");
  SearchConfig C;
  C.Starts = 7;
  C.applyEnv();
  EXPECT_EQ(*C.Starts, 7u); // explicit field survives unset env
  EXPECT_FALSE(C.Threads.has_value());
  EXPECT_FALSE(C.Seed.has_value());

  EXPECT_FALSE(SearchConfig::fromEnv().Starts.has_value());

  setenv("WDM_SEED", "not-a-number", 1);
  setenv("WDM_STARTS", "2000000", 1); // beyond envUnsigned plausibility
  SearchConfig D;
  D.Seed = 5;
  D.applyEnv();
  EXPECT_EQ(*D.Seed, 5u);
  EXPECT_FALSE(D.Starts.has_value());
  unsetenv("WDM_SEED");
  unsetenv("WDM_STARTS");

  // WDM_STARTS=0 clamps to 1 (a zero-start search is meaningless).
  setenv("WDM_STARTS", "0", 1);
  SearchConfig Z;
  Z.applyEnv();
  EXPECT_EQ(*Z.Starts, 1u);
  unsetenv("WDM_STARTS");
}

//===----------------------------------------------------------------------===//
// Report round trip
//===----------------------------------------------------------------------===//

TEST(ReportRoundTripTest, FromJsonIsExactInverse) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Overflow;
  Spec.Module = ModuleSource::builtin("bessel");
  Spec.Search.Seed = 0xbe55;
  Spec.Search.MaxEvals = 2000;
  Spec.Search.Starts = 2;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  ASSERT_FALSE(R->Findings.empty());

  Expected<Report> Back = Report::parse(R->toJsonText());
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->toJsonText(), R->toJsonText());

  EXPECT_FALSE(Report::parse("{\"no_task\": 1}").hasValue());
  EXPECT_FALSE(Report::parse("[]").hasValue());
}

TEST(ReportRoundTripTest, DeterministicViewStripsWallClock) {
  Value Doc = *Value::parse(
      R"({"task": "inconsistency", "seconds": 1.5,
          "extra": {"num_ops": 3, "detector_seconds": 0.7},
          "evals": 9})");
  Value Det = deterministicReportJson(Doc);
  EXPECT_EQ(Det.find("seconds"), nullptr);
  EXPECT_EQ(Det.find("extra")->find("detector_seconds"), nullptr);
  EXPECT_EQ(Det.find("extra")->find("num_ops")->asUint(), 3u);
  EXPECT_EQ(Det.find("evals")->asUint(), 9u);
  EXPECT_EQ(Det.find("task")->asString(), "inconsistency");
}

//===----------------------------------------------------------------------===//
// JobScheduler: modes, shards, identity
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, InProcessMatchesDirectAnalyzer) {
  // The GslStudy re-plumb bar: a one-job suite through the scheduler
  // reproduces the direct Analyzer::analyze call bit-for-bit.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::inlineText(QuickstartIr);
  Spec.Search.Seed = 2019;
  Spec.Search.MaxEvals = 40000;
  Expected<Report> Direct = Analyzer::analyze(Spec);
  ASSERT_TRUE(Direct.hasValue()) << Direct.error();

  SuiteSpec Suite;
  Suite.Name = "one";
  Suite.addJob(Spec);
  SuiteRunOptions Opts;
  Opts.Shards = 1;
  Expected<SuiteReport> R = JobScheduler::execute(Suite, Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();
  ASSERT_EQ(R->Executed, 1u);
  EXPECT_EQ(deterministicReportJson(R->Results[0].R.toJson()).dump(),
            deterministicReportJson(Direct->toJson()).dump());
  EXPECT_EQ(R->Findings, Direct->Findings.size());
  EXPECT_EQ(R->Evals, Direct->Evals);
  ASSERT_EQ(R->PerTask.size(), 1u);
  EXPECT_EQ(R->PerTask[0].Task, "boundary");
  EXPECT_EQ(R->exitCode(), 1); // findings → 1 per the contract
}

TEST(SchedulerTest, ShardCountInvariance) {
  SuiteRunOptions Seq;
  Seq.Shards = 1;
  Expected<SuiteReport> A = JobScheduler::execute(smallMatrixSuite(), Seq);
  ASSERT_TRUE(A.hasValue()) << A.error();
  ASSERT_EQ(A->Executed, 4u);

  SuiteRunOptions Wide;
  Wide.Shards = 4;
  Expected<SuiteReport> B =
      JobScheduler::execute(smallMatrixSuite(), Wide);
  ASSERT_TRUE(B.hasValue()) << B.error();

  EXPECT_EQ(deterministicHashes(*A), deterministicHashes(*B));
  EXPECT_EQ(aggregateKey(*A), aggregateKey(*B));
  EXPECT_EQ(B->Shards, 4u);
}

TEST(SchedulerTest, WorkStealingMatchesRoundRobinBitForBit) {
  // The dispatch policy moves jobs between shards, never into them:
  // per-job Reports and the aggregates are bit-identical across the
  // work-stealing deques and the legacy shared-counter pop.
  SuiteRunOptions Steal;
  Steal.Shards = 4;
  Steal.Dispatch = SuiteDispatch::WorkStealing;
  Expected<SuiteReport> A =
      JobScheduler::execute(smallMatrixSuite(), Steal);
  ASSERT_TRUE(A.hasValue()) << A.error();
  ASSERT_EQ(A->Executed, 4u);

  SuiteRunOptions Legacy;
  Legacy.Shards = 4;
  Legacy.Dispatch = SuiteDispatch::RoundRobin;
  Expected<SuiteReport> B =
      JobScheduler::execute(smallMatrixSuite(), Legacy);
  ASSERT_TRUE(B.hasValue()) << B.error();

  EXPECT_EQ(deterministicHashes(*A), deterministicHashes(*B));
  EXPECT_EQ(aggregateKey(*A), aggregateKey(*B));
}

TEST(SchedulerTest, WorkStealingShardCountInvariance) {
  // And under stealing specifically, any shard count produces the same
  // deterministic reports (the bar round-robin already clears).
  std::map<std::string, std::string> Baseline;
  std::string BaselineAgg;
  for (unsigned Shards : {1u, 2u, 4u}) {
    SuiteRunOptions Opts;
    Opts.Shards = Shards;
    Opts.Dispatch = SuiteDispatch::WorkStealing;
    Expected<SuiteReport> R =
        JobScheduler::execute(smallMatrixSuite(), Opts);
    ASSERT_TRUE(R.hasValue()) << R.error();
    ASSERT_EQ(R->Executed, 4u);
    if (Shards == 1) {
      Baseline = deterministicHashes(*R);
      BaselineAgg = aggregateKey(*R);
      continue;
    }
    EXPECT_EQ(deterministicHashes(*R), Baseline) << Shards << " shards";
    EXPECT_EQ(aggregateKey(*R), BaselineAgg) << Shards << " shards";
  }
}

TEST(SchedulerTest, DispatchNamesRoundTrip) {
  EXPECT_STREQ(suiteDispatchName(SuiteDispatch::WorkStealing), "steal");
  EXPECT_STREQ(suiteDispatchName(SuiteDispatch::RoundRobin),
               "roundrobin");
  SuiteDispatch D;
  EXPECT_TRUE(suiteDispatchByName("steal", D));
  EXPECT_EQ(D, SuiteDispatch::WorkStealing);
  EXPECT_TRUE(suiteDispatchByName("roundrobin", D));
  EXPECT_EQ(D, SuiteDispatch::RoundRobin);
  EXPECT_FALSE(suiteDispatchByName("random", D));
}

TEST(SchedulerTest, StopFlagDrainsLikeASignal) {
  // The serve daemon's drain seam: a pre-set StopFlag stops dispatch
  // before the first job and stamps the report "stopped".
  std::atomic<bool> Stop{true};
  SuiteRunOptions Opts;
  Opts.Shards = 2;
  Opts.StopFlag = &Stop;
  Expected<SuiteReport> R =
      JobScheduler::execute(smallMatrixSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_EQ(R->Executed, 0u);
  EXPECT_EQ(R->Stopped, "stopped");
  EXPECT_EQ(R->exitCode(), 4); // Interrupted, by the shared contract.
}

TEST(SchedulerTest, DryModeExecutesNothing) {
  SuiteRunOptions Opts;
  Opts.Mode = SuiteMode::Dry;
  Expected<SuiteReport> R =
      JobScheduler::execute(smallMatrixSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_EQ(R->Jobs, 4u);
  EXPECT_EQ(R->Executed, 0u);
  EXPECT_EQ(R->Evals, 0u);
  for (const JobResult &J : R->Results)
    EXPECT_EQ(J.S, JobResult::State::Listed);
  EXPECT_EQ(R->exitCode(), 0);
}

TEST(SchedulerTest, FailedJobIsIsolated) {
  SuiteSpec Suite;
  AnalysisSpec Good;
  Good.Task = TaskKind::Boundary;
  Good.Module = ModuleSource::builtin("fig2");
  Good.Search.Seed = 3;
  Good.Search.MaxEvals = 20000;
  Suite.addJob(Good);
  AnalysisSpec Bad = Good;
  Bad.Module = ModuleSource::file("/nonexistent/suite_job.wir");
  Suite.addJob(Bad);

  SuiteRunOptions Opts;
  Opts.Shards = 1;
  Expected<SuiteReport> R = JobScheduler::execute(Suite, Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_EQ(R->Executed, 1u);
  EXPECT_EQ(R->Failed, 1u);
  EXPECT_EQ(R->Results[0].S, JobResult::State::Executed);
  EXPECT_TRUE(R->Results[0].R.Success);
  EXPECT_EQ(R->Results[1].S, JobResult::State::Failed);
  EXPECT_FALSE(R->Results[1].Error.empty());
  EXPECT_EQ(R->exitCode(), 3); // worker failure dominates
}

//===----------------------------------------------------------------------===//
// Event log + resume
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, EventLogSchemaAndResume) {
  std::string LogPath = tempPath("events.ndjson");
  SuiteRunOptions Opts;
  Opts.Shards = 1;
  Opts.EventLog = LogPath;
  Expected<SuiteReport> Full =
      JobScheduler::execute(smallMatrixSuite(), Opts);
  ASSERT_TRUE(Full.hasValue()) << Full.error();
  ASSERT_EQ(Full->Executed, 4u);

  // -- Schema: suite_started, 4×(job_started + job_finished with the
  // full report + matching hashes), suite_done.
  auto Events = json::readNdjsonFile(LogPath);
  ASSERT_TRUE(Events.hasValue()) << Events.error();
  ASSERT_EQ(Events->size(), 10u);
  EXPECT_EQ(Events->front().find("event")->asString(), "suite_started");
  // Every event is timestamped, and suite_started carries build info.
  for (const Value &Ev : *Events) {
    const Value *Ts = Ev.find("ts");
    ASSERT_NE(Ts, nullptr);
    EXPECT_EQ(Ts->asString().size(), 24u); // ISO-8601 UTC, fixed width
    EXPECT_EQ(Ts->asString().back(), 'Z');
  }
  const Value *Build = Events->front().find("build");
  ASSERT_NE(Build, nullptr);
  EXPECT_NE(Build->find("git"), nullptr);
  EXPECT_NE(Build->find("compiler"), nullptr);
  EXPECT_EQ(Events->back().find("event")->asString(), "suite_done");
  EXPECT_EQ(Events->back().find("executed")->asUint(), 4u);
  unsigned Started = 0, Finished = 0;
  std::vector<std::string> FinishedLines;
  {
    std::ifstream In(LogPath);
    std::string Line;
    while (std::getline(In, Line))
      if (Line.find("\"event\": \"job_finished\"") != std::string::npos)
        FinishedLines.push_back(Line);
  }
  for (const Value &Ev : *Events) {
    std::string Kind = Ev.find("event")->asString();
    Started += Kind == "job_started";
    if (Kind != "job_finished")
      continue;
    ++Finished;
    EXPECT_EQ(Ev.find("job")->asString(), Ev.find("spec_hash")->asString());
    const Value *Rep = Ev.find("report");
    ASSERT_NE(Rep, nullptr);
    EXPECT_EQ(Ev.find("report_hash")->asString(),
              fnv1a64Hex(deterministicReportJson(*Rep).dump()));
  }
  EXPECT_EQ(Started, 4u);
  EXPECT_EQ(Finished, 4u);

  // -- Kill simulation: a log holding only 2 finished records (plus a
  // crash-truncated partial line) resumes the remaining 2 jobs and
  // reproduces the uninterrupted aggregates and per-job reports.
  std::string Partial = tempPath("partial.ndjson");
  writeFile(Partial, FinishedLines[0] + "\n" + FinishedLines[2] + "\n" +
                         FinishedLines[1].substr(0, 40));
  SuiteRunOptions Resume;
  Resume.Shards = 1;
  Resume.EventLog = Partial;
  Resume.Resume = true;
  Expected<SuiteReport> Resumed =
      JobScheduler::execute(smallMatrixSuite(), Resume);
  ASSERT_TRUE(Resumed.hasValue()) << Resumed.error();
  EXPECT_EQ(Resumed->Skipped, 2u);
  EXPECT_EQ(Resumed->Executed, 2u);
  EXPECT_EQ(aggregateKey(*Resumed), aggregateKey(*Full));
  EXPECT_EQ(deterministicHashes(*Resumed), deterministicHashes(*Full));

  // -- Resume idempotence: a second resume over the now-complete log
  // executes zero jobs and still reports identical aggregates.
  Expected<SuiteReport> Again =
      JobScheduler::execute(smallMatrixSuite(), Resume);
  ASSERT_TRUE(Again.hasValue()) << Again.error();
  EXPECT_EQ(Again->Executed, 0u);
  EXPECT_EQ(Again->Skipped, 4u);
  EXPECT_EQ(aggregateKey(*Again), aggregateKey(*Full));
  EXPECT_EQ(deterministicHashes(*Again), deterministicHashes(*Full));

  // -- Changing the suite changes job identity: nothing resumes.
  SuiteSpec Changed = smallMatrixSuite();
  Changed.Matrix.SeedBase = 400;
  Expected<SuiteReport> Fresh = JobScheduler::execute(Changed, Resume);
  ASSERT_TRUE(Fresh.hasValue()) << Fresh.error();
  EXPECT_EQ(Fresh->Skipped, 0u);
  EXPECT_EQ(Fresh->Executed, 4u);

  // -- Without --resume the log is truncated and rewritten.
  Expected<SuiteReport> Overwrite =
      JobScheduler::execute(smallMatrixSuite(), Opts);
  ASSERT_TRUE(Overwrite.hasValue());
  EXPECT_EQ(Overwrite->Executed, 4u);

  // Resume without a log path is a driver error.
  SuiteRunOptions NoLog;
  NoLog.Resume = true;
  EXPECT_FALSE(JobScheduler::execute(smallMatrixSuite(), NoLog).hasValue());

  std::remove(LogPath.c_str());
  std::remove(Partial.c_str());
}

//===----------------------------------------------------------------------===//
// job_progress heartbeats (LiveProgress)
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, LiveProgressStreamsJobHeartbeats) {
  std::string LogPath = tempPath("progress.ndjson");
  SuiteRunOptions Opts;
  Opts.Shards = 2;
  Opts.EventLog = LogPath;
  Opts.LiveProgress = true;
  Opts.ProgressPeriodSec = 0; // every search tick
  Expected<SuiteReport> R =
      JobScheduler::execute(smallMatrixSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();
  ASSERT_EQ(R->Executed, 4u);

  auto Events = json::readNdjsonFile(LogPath);
  ASSERT_TRUE(Events.hasValue()) << Events.error();
  std::set<std::string> JobsWithTicks;
  unsigned Heartbeats = 0;
  for (const Value &Ev : *Events) {
    if (Ev.find("event")->asString() != "job_progress")
      continue;
    ++Heartbeats;
    ASSERT_NE(Ev.find("job"), nullptr);
    JobsWithTicks.insert(Ev.find("job")->asString());
    EXPECT_NE(Ev.find("evals"), nullptr);
    EXPECT_NE(Ev.find("best_w"), nullptr);
    EXPECT_NE(Ev.find("evals_per_sec"), nullptr);
    EXPECT_NE(Ev.find("ts"), nullptr);
  }
  EXPECT_GE(Heartbeats, 4u);            // at least the final tick per job
  EXPECT_EQ(JobsWithTicks.size(), 4u);  // attributed to every job

  // The heartbeat stream does not perturb the checkpoint protocol: the
  // same log still resumes to zero executed jobs.
  SuiteRunOptions Resume = Opts;
  Resume.Resume = true;
  Resume.LiveProgress = false;
  Expected<SuiteReport> Again =
      JobScheduler::execute(smallMatrixSuite(), Resume);
  ASSERT_TRUE(Again.hasValue()) << Again.error();
  EXPECT_EQ(Again->Executed, 0u);
  EXPECT_EQ(Again->Skipped, 4u);
  std::remove(LogPath.c_str());
}

TEST(SchedulerTest, NoHeartbeatsWithoutLiveProgress) {
  // Off by default: the event log holds exactly the historical kinds.
  std::string LogPath = tempPath("no_progress.ndjson");
  SuiteRunOptions Opts;
  Opts.Shards = 1;
  Opts.EventLog = LogPath;
  Expected<SuiteReport> R =
      JobScheduler::execute(smallMatrixSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();
  auto Events = json::readNdjsonFile(LogPath);
  ASSERT_TRUE(Events.hasValue()) << Events.error();
  for (const Value &Ev : *Events) {
    std::string Kind = Ev.find("event")->asString();
    EXPECT_TRUE(Kind == "suite_started" || Kind == "job_started" ||
                Kind == "job_finished" || Kind == "job_failed" ||
                Kind == "job_skipped" || Kind == "suite_done")
        << Kind;
  }
  std::remove(LogPath.c_str());
}

//===----------------------------------------------------------------------===//
// Subprocess mode + the CLI exit-code contract (drives the wdm binary)
//===----------------------------------------------------------------------===//

#ifdef WDM_CLI_EXE

TEST(SubprocessTest, MatchesInProcessBitForBit) {
  SuiteRunOptions InP;
  InP.Shards = 2;
  Expected<SuiteReport> A = JobScheduler::execute(smallMatrixSuite(), InP);
  ASSERT_TRUE(A.hasValue()) << A.error();

  SuiteRunOptions Sub;
  Sub.Mode = SuiteMode::Subprocess;
  Sub.Shards = 2;
  Sub.WorkerExe = WDM_CLI_EXE;
  Expected<SuiteReport> B = JobScheduler::execute(smallMatrixSuite(), Sub);
  ASSERT_TRUE(B.hasValue()) << B.error();
  ASSERT_EQ(B->Executed, 4u) << B->Results[0].Error;

  EXPECT_EQ(deterministicHashes(*A), deterministicHashes(*B));
  EXPECT_EQ(aggregateKey(*A), aggregateKey(*B));
}

TEST(SubprocessTest, LiveProgressForwardsChildHeartbeats) {
  // Subprocess heartbeats ride the existing stdout protocol: the child
  // prints job_progress event lines, the driver peels and re-tags them,
  // and the final report line still parses bit-for-bit.
  std::string LogPath = tempPath("sub_progress.ndjson");
  SuiteRunOptions Sub;
  Sub.Mode = SuiteMode::Subprocess;
  Sub.Shards = 2;
  Sub.WorkerExe = WDM_CLI_EXE;
  Sub.EventLog = LogPath;
  Sub.LiveProgress = true;
  Sub.ProgressPeriodSec = 0;
  Expected<SuiteReport> R =
      JobScheduler::execute(smallMatrixSuite(), Sub);
  ASSERT_TRUE(R.hasValue()) << R.error();
  ASSERT_EQ(R->Executed, 4u) << R->Results[0].Error;

  auto Events = json::readNdjsonFile(LogPath);
  ASSERT_TRUE(Events.hasValue()) << Events.error();
  std::set<std::string> JobsWithTicks;
  for (const Value &Ev : *Events)
    if (Ev.find("event")->asString() == "job_progress") {
      ASSERT_NE(Ev.find("job"), nullptr); // driver re-tags child ticks
      JobsWithTicks.insert(Ev.find("job")->asString());
      EXPECT_NE(Ev.find("evals"), nullptr);
    }
  EXPECT_EQ(JobsWithTicks.size(), 4u);

  // Identical deterministic reports to a quiet inprocess run.
  SuiteRunOptions InP;
  InP.Shards = 1;
  Expected<SuiteReport> A = JobScheduler::execute(smallMatrixSuite(), InP);
  ASSERT_TRUE(A.hasValue()) << A.error();
  EXPECT_EQ(deterministicHashes(*A), deterministicHashes(*R));
  std::remove(LogPath.c_str());
}

TEST(SubprocessTest, CrashIsolationAndInlineIr) {
  // Inline-IR specs survive the canonical-text handoff to the worker,
  // and one failing shard (unreadable module) cannot take down the
  // study.
  SuiteSpec Suite;
  AnalysisSpec Inline;
  Inline.Task = TaskKind::Boundary;
  Inline.Module = ModuleSource::inlineText(QuickstartIr);
  Inline.Search.Seed = 2019;
  Inline.Search.MaxEvals = 40000;
  Suite.addJob(Inline);
  AnalysisSpec Bad = Inline;
  Bad.Module = ModuleSource::file("/nonexistent/suite_job.wir");
  Suite.addJob(Bad);

  SuiteRunOptions Sub;
  Sub.Mode = SuiteMode::Subprocess;
  Sub.Shards = 2;
  Sub.WorkerExe = WDM_CLI_EXE;
  Expected<SuiteReport> R = JobScheduler::execute(Suite, Sub);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_EQ(R->Executed, 1u);
  EXPECT_EQ(R->Failed, 1u);
  EXPECT_TRUE(R->Results[0].R.Success);
  EXPECT_NE(R->Results[1].Error.find("worker exit 2"), std::string::npos)
      << R->Results[1].Error;
  EXPECT_EQ(R->exitCode(), 3);

  Expected<Report> Direct = Analyzer::analyze(Inline);
  ASSERT_TRUE(Direct.hasValue());
  EXPECT_EQ(deterministicReportJson(R->Results[0].R.toJson()).dump(),
            deterministicReportJson(Direct->toJson()).dump());
}

int runCli(const std::string &Args) {
  std::string Cmd = std::string(WDM_CLI_EXE) + " " + Args +
                    " > /dev/null 2> /dev/null";
  int Status = std::system(Cmd.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

TEST(ExitCodeTest, ContractSharedByRunAndRunJob) {
  // Findings → 1.
  std::string Findings = tempPath("findings.json");
  writeFile(Findings, R"({"task": "boundary",
                          "module": {"builtin": "fig2"},
                          "search": {"seed": 7, "max_evals": 20000}})");
  EXPECT_EQ(runCli("run " + Findings), 1);
  EXPECT_EQ(runCli("run-job " + Findings), 1);

  // Ran clean, no findings → 0 (a 10-eval search cannot hit the
  // boundary; pinned seed keeps it deterministic).
  std::string Clean = tempPath("clean.json");
  writeFile(Clean, R"({"task": "boundary",
                       "module": {"builtin": "fig2"},
                       "search": {"seed": 7, "max_evals": 10,
                                  "starts": 1, "threads": 1}})");
  EXPECT_EQ(runCli("run " + Clean), 0);
  EXPECT_EQ(runCli("run-job " + Clean), 0);

  // Spec/usage error → 2.
  std::string Bad = tempPath("bad.json");
  writeFile(Bad, R"({"task": "frobnicate"})");
  EXPECT_EQ(runCli("run " + Bad), 2);
  EXPECT_EQ(runCli("run-job " + Bad), 2);
  EXPECT_EQ(runCli("run /nonexistent/spec.json"), 2);
  EXPECT_EQ(runCli("frobnicate"), 2);

  // suite run shares the contract: findings → 1, and a failing worker
  // → 3 (exercised through the CLI to pin the documented behavior).
  std::string SuiteFindings = tempPath("suite_findings.json");
  writeFile(SuiteFindings,
            R"({"suite": "s", "jobs": [
                 {"task": "boundary", "module": {"builtin": "fig2"},
                  "search": {"seed": 7, "max_evals": 20000}}]})");
  EXPECT_EQ(runCli("suite run " + SuiteFindings), 1);
  std::string SuiteBad = tempPath("suite_bad.json");
  writeFile(SuiteBad,
            R"({"suite": "s", "jobs": [
                 {"task": "boundary",
                  "module": {"file": "/nonexistent/x.wir"}}]})");
  EXPECT_EQ(runCli("suite run " + SuiteBad), 3);
  EXPECT_EQ(runCli("suite run /nonexistent/suite.json"), 2);

  for (const std::string &P :
       {Findings, Clean, Bad, SuiteFindings, SuiteBad})
    std::remove(P.c_str());
}

TEST(ApplyEnvTest, CliFlagsOverrideEnvKnobs) {
  // Precedence is spec fields < env knobs < explicit CLI flags. The
  // deterministic report view makes runs with the same effective seed
  // comparable byte-for-byte.
  auto AnalyzeReport = [&](const std::string &Extra) {
    std::string Out = tempPath("env_cli.json");
    EXPECT_EQ(runCli("analyze --task=boundary --builtin=fig2 "
                     "--evals=20000 --threads=1 " +
                     Extra + " --json " + Out),
              1);
    auto Doc = json::Value::parse(readFileText(Out));
    EXPECT_TRUE(Doc.hasValue());
    std::remove(Out.c_str());
    return Doc ? deterministicReportJson(*Doc).dump() : std::string();
  };

  // A flag beats the env knob: env seed 123 + --seed=7 equals a plain
  // --seed=7 run.
  setenv("WDM_SEED", "123", 1);
  std::string FlagWithEnv = AnalyzeReport("--seed=7");
  unsetenv("WDM_SEED");
  EXPECT_EQ(FlagWithEnv, AnalyzeReport("--seed=7"));

  // The env knob alone behaves exactly like the flag it shadows.
  setenv("WDM_SEED", "123", 1);
  std::string EnvOnly = AnalyzeReport("");
  unsetenv("WDM_SEED");
  EXPECT_EQ(EnvOnly, AnalyzeReport("--seed=123"));
}

TEST(ExitCodeTest, SuiteResumeIdempotenceThroughCli) {
  std::string SuitePath = tempPath("resume_suite.json");
  std::string LogPath = tempPath("resume_log.ndjson");
  std::string OutPath = tempPath("resume_report.json");
  writeFile(SuitePath,
            R"({"suite": "r", "matrix": {
                 "subjects": ["fig2"], "tasks": ["boundary"],
                 "seeds": [1, 2],
                 "configs": [{"search": {"max_evals": 20000,
                                         "threads": 1}}]}})");
  EXPECT_EQ(runCli("suite run " + SuitePath + " --ndjson " + LogPath), 1);
  EXPECT_EQ(runCli("suite run " + SuitePath + " --resume --ndjson " +
                   LogPath + " --json " + OutPath),
            1);
  auto Doc = json::Value::parse(readFileText(OutPath));
  ASSERT_TRUE(Doc.hasValue()) << Doc.error();
  EXPECT_EQ(Doc->find("executed")->asUint(), 0u);
  EXPECT_EQ(Doc->find("skipped")->asUint(), 2u);

  std::remove(SuitePath.c_str());
  std::remove(LogPath.c_str());
  std::remove(OutPath.c_str());
}

#endif // WDM_CLI_EXE

} // namespace

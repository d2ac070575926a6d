//===--- wdm.cpp - The wdm command-line driver ----------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// One binary over the whole declarative surface:
//
//   wdm tasks [--json]             list task kinds, backends, builtins
//   wdm run spec.json [--json o]   run a JSON AnalysisSpec
//   wdm analyze --task=overflow --builtin=bessel --threads=4 [--json o]
//   wdm analyze --task=boundary --func=f file.wir
//   wdm suite run suite.json --shards=4 --mode=subprocess --resume
//   wdm suite expand suite.json    print the expanded job list
//   wdm run-job <spec.json | ->    internal suite worker (report on stdout)
//
// $WDM_STARTS / $WDM_THREADS / $WDM_SEED override the spec's search
// config (the shared SearchConfig::applyEnv policy), and explicit flags
// override both. run-job executes its spec verbatim — the suite driver
// already folded the env knobs into the canonical job specs.
//
// Exit-code contract, shared by `run`, `run-job`, and `suite run`:
//   0  ran clean, no findings
//   1  findings were produced (witnesses, overflows, tests, models, ...)
//   2  usage, spec, or subject-resolution error
//   3  internal/execution error (crashed or failing suite worker, I/O)
//   4  interrupted (suite run only: SIGINT/SIGTERM stopped the suite
//      gracefully; the --ndjson log is a valid --resume checkpoint)
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/Backends.h"
#include "api/JobScheduler.h"
#include "api/Subjects.h"
#include "jit/JITWeakDistance.h"
#include "obs/Progress.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/ResultCache.h"
#include "serve/Server.h"
#include "support/BuildInfo.h"
#include "support/FaultInject.h"
#include "support/StringUtils.h"
#include "vm/VMWeakDistance.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

using namespace wdm;
using namespace wdm::api;

namespace {

int usage() {
  std::cerr
      << "usage: wdm <command> [options]\n\n"
         "commands:\n"
         "  tasks [--json]             list task kinds, backends, and "
         "builtin subjects\n"
         "  run <spec.json> [--json <out.json>]\n"
         "                             run one JSON analysis spec\n"
         "  analyze --task=<kind> [subject] [options] [file.wir]\n"
         "                             build a spec from flags and run "
         "it\n"
         "  suite run <suite.json> [suite options]\n"
         "                             run a suite of jobs (see below)\n"
         "  suite expand <suite.json>  print the expanded job list as "
         "NDJSON\n"
         "  run-job <spec.json | ->    internal suite worker: spec in, "
         "report JSON on stdout\n"
         "  serve [serve options]      run the analysis daemon (HTTP, "
         "result cache, warm state)\n"
         "  submit <spec.json | -> --server=<host:port>\n"
         "                             run one spec on a daemon (same "
         "exit codes as run)\n"
         "  cache stats|clear --cache-dir=<dir>\n"
         "                             inspect / empty a daemon's "
         "on-disk result cache\n"
         "  version [--json]           build provenance (git describe, "
         "compiler, flags)\n\n"
         "analyze subject (one of):\n"
         "  <file.wir>                 positional or --module=<file>: "
         "textual IR file\n"
         "  --builtin=<name>           builtin subject (see `wdm "
         "tasks`)\n"
         "  --constraint=<sexpr>       fpsat constraint text\n\n"
         "analyze options:\n"
         "  --func=<name>              subject function (default: the "
         "module's only one)\n"
         "  --evals=<n> --starts=<n> --seed=<n> --threads=<n>\n"
         "  --batch=<n>                accepted and ignored (kept for old "
         "scripts)\n"
         "  --backends=<a,b,...>       portfolio by name\n"
         "  --engine=<e>               execution tier: vm (default) | "
         "interp | jit\n"
         "  --prune=<m>                static pre-pass: off (default) | "
         "sites (sites+box reads as sites)\n"
         "  --path=<leg,leg,...>       path legs, e.g. 0:taken,1:not\n"
         "  --boundary-form=<f>        product|min|minulp\n"
         "  --overflow-metric=<m>      ulpgap|absgap\n"
         "  --nfp=<n>                  overflow: max Algorithm 3 rounds\n"
         "  --json <out.json>          also write the report as JSON\n\n"
         "serve options:\n"
         "  --host=<ip> --port=<n>     bind address (default 127.0.0.1, "
         "port 0 = ephemeral)\n"
         "  --threads=<n>              request workers (0 = min(4, hw "
         "threads))\n"
         "  --cache-dir=<dir>          persistent result cache (default: "
         "memory only)\n"
         "  --cache-capacity=<n>       in-memory result entries (default "
         "256)\n"
         "  --warm-capacity=<n>        warm module entries (default 64)\n"
         "  --no-warm                  disable the warm execution cache\n"
         "  --state-dir=<dir>          suite job event logs (default: "
         "cache dir)\n"
         "  --shards=<n>               shards for POSTed suites (0 = "
         "hardware)\n"
         "  --max-body=<bytes>         request body cap (default 8 MiB)\n\n"
         "suite options:\n"
         "  --shards=<n>               concurrent jobs (0 = one per "
         "hardware thread)\n"
         "  --mode=<m>                 inprocess (default) | subprocess "
         "| dry\n"
         "  --ndjson <log.ndjson>      stream events (doubles as the "
         "checkpoint)\n"
         "  --resume                   skip jobs already finished in "
         "the --ndjson log\n"
         "  --json <out.json>          write the aggregate SuiteReport\n"
         "  --worker <exe>             subprocess worker binary "
         "(default: this wdm)\n"
         "  --progress                 stream job_progress heartbeats + "
         "live status line\n"
         "  --progress-every=<sec>     heartbeat period (default 2)\n\n"
         "suite fault tolerance (CLI flags override the suite's "
         "\"limits\" section):\n"
         "  --timeout=<sec>            per-job wall-clock deadline "
         "(subprocess mode)\n"
         "  --stall-timeout=<sec>      kill a worker with no "
         "output/heartbeat for N sec\n"
         "  --retries=<n>              extra attempts for "
         "failed/timed-out/stalled jobs\n"
         "  --backoff=<sec>            base retry delay; exponential "
         "with jitter (default 0.5)\n"
         "  --mem-limit=<mb>           child RLIMIT_AS (subprocess "
         "mode)\n"
         "  --cpu-limit=<sec>          child RLIMIT_CPU (subprocess "
         "mode)\n"
         "  --max-failures=<n>         abort the suite after N "
         "failed/quarantined jobs\n"
         "  --grace=<sec>              SIGTERM-to-SIGKILL escalation "
         "window (default 2)\n\n"
         "observability (run, analyze, run-job, suite run):\n"
         "  --trace=<out.json>         write Chrome trace-event JSON "
         "(phase spans; open in Perfetto)\n"
         "  --metrics                  collect telemetry counters; the "
         "report gains a \"metrics\" section\n\n"
         "exit codes (run, run-job, suite run):\n"
         "  0 = ran clean, no findings   1 = findings produced\n"
         "  2 = usage/spec error         3 = internal/worker error\n"
         "  4 = interrupted (suite run: stopped by SIGINT/SIGTERM; "
         "--ndjson log resumes)\n";
  return 2;
}

int fail(const std::string &Msg) {
  std::cerr << "wdm: " << Msg << "\n";
  return 2;
}

/// The observability flags every executing command shares: --metrics
/// flips the telemetry registry on (the Report gains its "metrics"
/// section), --trace=<out.json> collects phase spans and writes Chrome
/// trace-event JSON (load in Perfetto / chrome://tracing). Both are off
/// by default; without them nothing observable changes.
struct ObsCli {
  std::string TracePath;
  bool Metrics = false;
  /// run-job sets this: its stdout is the machine seam, so the human
  /// "trace written" note must not land there.
  bool Quiet = false;

  /// Consumes --trace=<path> / --metrics; false when \p A is not ours.
  bool consume(const std::string &Key, const std::string &Val,
               const std::string &A) {
    if (Key == "--trace" && !Val.empty()) {
      TracePath = Val;
      return true;
    }
    if (A == "--metrics") {
      Metrics = true;
      return true;
    }
    return false;
  }

  void begin() {
    if (Metrics)
      obs::setEnabled(true);
    if (!TracePath.empty())
      obs::startTrace();
  }

  /// Finalizes collection; returns \p Rc, or 3 when the trace file
  /// cannot be written.
  int end(int Rc) {
    if (TracePath.empty())
      return Rc;
    obs::stopTrace();
    if (!obs::writeTrace(TracePath)) {
      std::cerr << "wdm: cannot write trace '" << TracePath << "'\n";
      return 3;
    }
    if (!Quiet)
      std::cout << "trace:     " << TracePath << "\n";
    return Rc;
  }
};

int cmdVersion(int Argc, char **Argv) {
  bool Json = false;
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      Json = true;
    else
      return fail(std::string("unexpected argument '") + Argv[I] + "'");
  }
  const support::BuildInfo &B = support::buildInfo();
  if (Json) {
    std::cout << support::buildInfoJson().dump() << "\n";
    return 0;
  }
  std::cout << "wdm " << B.GitDescribe << " (" << B.BuildType << ")\n"
            << "compiler:  " << B.Compiler << "\n"
            << "flags:     " << (B.Flags.empty() ? "-" : B.Flags) << "\n";
  return 0;
}

/// The shared exit-code contract: findings drive the code, like a
/// linter — "success" of the task (witness found) means findings exist.
int exitCodeFor(const Report &R) { return R.Findings.empty() ? 0 : 1; }

Expected<std::string> readInput(const std::string &Path) {
  using E = Expected<std::string>;
  std::ostringstream Buf;
  if (Path == "-") {
    Buf << std::cin.rdbuf();
    return Buf.str();
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return E::error("cannot open '" + Path + "'");
  Buf << In.rdbuf();
  return Buf.str();
}

void printReport(const Report &R) {
  std::cout << "task:      " << taskKindName(R.Task) << "\n"
            << "subject:   " << R.Function << "\n"
            << "result:    " << (R.Success ? "SUCCESS" : "not found")
            << "\n";
  if (!R.Success && R.WStar > 0)
    std::cout << "w*:        " << formatDouble(R.WStar)
              << " (smallest weak distance seen)\n";
  for (const Finding &F : R.Findings) {
    std::cout << "  [" << F.Kind << "]";
    if (F.SiteId >= 0)
      std::cout << " site #" << F.SiteId;
    if (!F.Input.empty()) {
      std::cout << " input = (";
      for (size_t I = 0; I < F.Input.size(); ++I)
        std::cout << (I ? ", " : "") << formatDouble(F.Input[I]);
      std::cout << ")";
    }
    if (!F.Description.empty())
      std::cout << "  " << F.Description;
    if (const json::Value *RC =
            F.Details.isObject() ? F.Details.find("root_cause") : nullptr)
      std::cout << "  — " << RC->asString();
    std::cout << "\n";
  }
  std::cout << "evals:     " << R.Evals << "\n";
  if (!R.Engine.empty()) {
    std::cout << "engine:    " << R.Engine;
    if (!R.EngineFallback.empty())
      std::cout << " (fallback: " << R.EngineFallback << ")";
    std::cout << "\n";
  }
  if (R.Static.Ran) {
    std::cout << "static:    mode=" << R.Static.Mode << ", pruned "
              << R.Static.SitesPruned << "/" << R.Static.SitesTotal
              << " sites (" << R.Static.SitesProvedSafe
              << " proved safe)\n";
  }
  std::cout << "seconds:   " << formatf("%.3f", R.Seconds) << "\n"
            << "threads:   " << R.ThreadsUsed << "\n";
  if (R.UnsoundCandidates)
    std::cout << "unsound:   " << R.UnsoundCandidates
              << " candidate zeros rejected by verification\n";
}

int finish(const AnalysisSpec &Spec, const std::string &JsonOut) {
  Expected<Report> R = Analyzer::analyze(Spec);
  if (!R)
    return fail(R.error());
  printReport(*R);
  if (!JsonOut.empty()) {
    std::ofstream Out(JsonOut);
    if (!Out)
      return fail("cannot write '" + JsonOut + "'");
    Out << R->toJsonText();
    std::cout << "report:    " << JsonOut << "\n";
  }
  return exitCodeFor(*R);
}

int cmdTasks(int Argc, char **Argv) {
  bool Json = false;
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      Json = true;
    else
      return fail(std::string("unexpected argument '") + Argv[I] + "'");
  }

  if (Json) {
    using json::Value;
    Value Doc = Value::object();
    Value Tasks = Value::array();
    for (TaskKind K :
         {TaskKind::Boundary, TaskKind::Path, TaskKind::Coverage,
          TaskKind::Overflow, TaskKind::Inconsistency, TaskKind::FpSat})
      Tasks.push(Value::string(taskKindName(K)));
    Doc.set("tasks", std::move(Tasks));
    Value Backends = Value::array();
    for (const std::string &B : backendNames())
      Backends.push(Value::string(B));
    Doc.set("backends", std::move(Backends));
    Value Engines = Value::array();
    Engines.push(Value::string("vm"));
    Engines.push(Value::string("interp"));
    Engines.push(Value::object()
                     .set("name", Value::string("jit"))
                     .set("available", Value::boolean(jit::available())));
    Doc.set("engines", std::move(Engines));
    Value Modes = Value::array();
    for (SuiteMode M :
         {SuiteMode::InProcess, SuiteMode::Subprocess, SuiteMode::Dry})
      Modes.push(Value::string(suiteModeName(M)));
    Doc.set("suite_modes", std::move(Modes));
    Value Builtins = Value::array();
    for (const BuiltinInfo &I : builtinSubjects())
      Builtins.push(Value::object()
                        .set("name", Value::string(I.Name))
                        .set("function", Value::string(I.Function))
                        .set("summary", Value::string(I.Summary)));
    Doc.set("builtins", std::move(Builtins));
    std::cout << Doc.dump() << "\n";
    return 0;
  }

  std::cout << "task kinds:\n";
  for (TaskKind K :
       {TaskKind::Boundary, TaskKind::Path, TaskKind::Coverage,
        TaskKind::Overflow, TaskKind::Inconsistency, TaskKind::FpSat})
    std::cout << "  " << taskKindName(K) << "\n";
  std::cout << "\nbackends:\n ";
  for (const std::string &B : backendNames())
    std::cout << " " << B;
  std::cout << "\n\nengines:\n"
               "  vm          compiled tier: bytecode + threaded-code VM "
               "(default)\n"
               "  interp      tree-walking interpreter (automatic "
               "fallback target)\n"
               "  jit         native tier: template-JIT x86-64 code ";
  std::cout << (jit::available() ? "(available)"
                                 : "(unavailable on this platform)")
            << "\n";
  std::cout << "\nbuiltin subjects:\n";
  for (const BuiltinInfo &I : builtinSubjects())
    std::cout << "  " << formatf("%-12s", I.Name) << I.Summary << "\n";
  return 0;
}

int cmdRun(int Argc, char **Argv) {
  std::string SpecPath, JsonOut;
  ObsCli Obs;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Key = A, Val;
    if (size_t Eq = A.find('=');
        startsWith(A, "--") && Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    }
    if (A == "--json") {
      if (I + 1 >= Argc || startsWith(Argv[I + 1], "--"))
        return fail("--json needs an output path");
      JsonOut = Argv[++I];
    } else if (startsWith(A, "--json=")) {
      JsonOut = A.substr(7);
    } else if (Obs.consume(Key, Val, A)) {
    } else if (!startsWith(A, "--") && SpecPath.empty()) {
      SpecPath = A;
    } else {
      return fail("unexpected argument '" + A + "'");
    }
  }
  if (SpecPath.empty())
    return usage();

  Expected<std::string> Text = readInput(SpecPath);
  if (!Text)
    return fail(Text.error());
  Expected<AnalysisSpec> Spec = AnalysisSpec::parse(*Text);
  if (!Spec)
    return fail(SpecPath + ": " + Spec.error());
  Spec->Search.applyEnv();
  Obs.begin();
  return Obs.end(finish(*Spec, JsonOut));
}

/// The suite worker: spec text in (file or stdin), report JSON out.
/// No env overlay — the driver canonicalized the spec already — and no
/// human-readable report: stdout is the machine seam.
int cmdRunJob(int Argc, char **Argv) {
  std::string SpecPath, JsonOut;
  ObsCli Obs;
  Obs.Quiet = true;
  double ProgressEvery = -1;
  size_t FaultJob = 0;
  unsigned FaultAttempt = 0; ///< 0 = no --fault-tag.
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Key = A, Val;
    if (size_t Eq = A.find('=');
        startsWith(A, "--") && Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    }
    if (A == "--json") {
      if (I + 1 >= Argc || startsWith(Argv[I + 1], "--"))
        return fail("--json needs an output path");
      JsonOut = Argv[++I];
    } else if (startsWith(A, "--json=")) {
      JsonOut = A.substr(7);
    } else if (Key == "--progress-every") {
      char *End = nullptr;
      ProgressEvery = std::strtod(Val.c_str(), &End);
      if (Val.empty() || !End || *End || ProgressEvery < 0)
        return fail("bad --progress-every (seconds)");
    } else if (Key == "--fault-tag") {
      // Internal: "<job-index>.<attempt>", appended by the suite driver
      // whenever WDM_FAULT is set, so the child can look itself up in
      // the fault plan.
      size_t Dot = Val.find('.');
      char *E1 = nullptr, *E2 = nullptr;
      std::string JS = Val.substr(0, Dot);
      std::string AS = Dot == std::string::npos ? "" : Val.substr(Dot + 1);
      unsigned long long J = std::strtoull(JS.c_str(), &E1, 10);
      unsigned long AT = std::strtoul(AS.c_str(), &E2, 10);
      if (JS.empty() || AS.empty() || *E1 || *E2 || AT == 0)
        return fail("bad --fault-tag (expected <job>.<attempt>)");
      FaultJob = static_cast<size_t>(J);
      FaultAttempt = static_cast<unsigned>(AT);
    } else if (Obs.consume(Key, Val, A)) {
    } else if (SpecPath.empty() && (A == "-" || !startsWith(A, "--"))) {
      SpecPath = A;
    } else {
      return fail("unexpected argument '" + A + "'");
    }
  }
  if (SpecPath.empty())
    return usage();

  Expected<std::string> Text = readInput(SpecPath);
  if (!Text)
    return fail(Text.error());
  Expected<AnalysisSpec> Spec = AnalysisSpec::parse(*Text);
  if (!Spec)
    return fail(SpecPath + ": " + Spec.error());

  // Deterministic fault injection (tests/CI): when the driver tagged us
  // and WDM_FAULT names a fault for this (job, attempt), become that
  // fault — crash, hang, OOM, or a silent delay — as a real process.
  if (FaultAttempt && fault::enabled()) {
    Expected<std::vector<fault::Clause>> Plan =
        fault::parse(fault::envSpec());
    if (!Plan)
      return fail(Plan.error());
    if (std::optional<fault::Clause> C =
            fault::actionFor(*Plan, FaultJob, FaultAttempt))
      fault::injectChild(*C);
  }

  // Heartbeats for the suite driver: one job_progress NDJSON line per
  // period on stdout. The driver's poll loop peels event lines off the
  // stream; the report line below stays the protocol's payload.
  if (ProgressEvery >= 0)
    obs::setSearchListener(
        [ProgressEvery,
         Last = std::chrono::steady_clock::time_point()](
            const obs::SearchTick &T) mutable {
          auto Now = std::chrono::steady_clock::now();
          if (!T.Final &&
              Last != std::chrono::steady_clock::time_point() &&
              std::chrono::duration<double>(Now - Last).count() <
                  ProgressEvery)
            return;
          Last = Now;
          double Rate = T.Seconds > 0 ? T.Evals / T.Seconds : 0;
          std::cout << json::Value::object()
                           .set("event",
                                json::Value::string("job_progress"))
                           .set("evals", json::Value::number(T.Evals))
                           .set("best_w", json::Value::number(T.BestW))
                           .set("evals_per_sec",
                                json::Value::number(Rate))
                           .set("starts_done",
                                json::Value::number(T.StartsDone))
                           .set("starts", json::Value::number(T.Starts))
                           .dump()
                    << "\n"
                    << std::flush;
        });

  Obs.begin();
  Expected<Report> R = Analyzer::analyze(*Spec);
  obs::clearSearchListener();
  if (!R)
    return Obs.end(fail(R.error()));
  std::cout << R->toJsonText() << std::flush;
  if (!JsonOut.empty()) {
    std::ofstream Out(JsonOut);
    if (!Out) {
      std::cerr << "wdm: cannot write '" << JsonOut << "'\n";
      return Obs.end(3);
    }
    Out << R->toJsonText();
  }
  return Obs.end(exitCodeFor(*R));
}

void printSuiteReport(const SuiteReport &R) {
  if (!R.Suite.empty())
    std::cout << "suite:     " << R.Suite << "\n";
  std::cout << "mode:      " << R.Mode << " (shards: " << R.Shards
            << ")\n"
            << "jobs:      " << R.Jobs << "\n"
            << "executed:  " << R.Executed << "\n"
            << "skipped:   " << R.Skipped << "\n"
            << "failed:    " << R.Failed << "\n";
  if (R.Quarantined)
    std::cout << "quarantined: " << R.Quarantined << "\n";
  if (R.Interrupted)
    std::cout << "interrupted: " << R.Interrupted << "\n";
  std::cout << "findings:  " << R.Findings << "\n"
            << "evals:     " << R.Evals << "\n";
  if (R.Retries || R.Timeouts || R.Stalls)
    std::cout << "retries:   " << R.Retries << " (timeouts " << R.Timeouts
              << ", stalls " << R.Stalls << ")\n";
  std::cout << "seconds:   " << formatf("%.3f", R.Seconds)
            << " (job time " << formatf("%.3f", R.JobSeconds) << ")\n";
  if (!R.Stopped.empty())
    std::cout << "stopped:   " << R.Stopped
              << " (resume with --resume --ndjson <log>)\n";
  for (const SuiteReport::TaskStats &T : R.PerTask)
    std::cout << "  " << formatf("%-14s", T.Task.c_str()) << T.Jobs
              << " job(s), " << T.Succeeded << " succeeded, "
              << T.Findings << " finding(s), " << T.Evals << " evals, "
              << formatf("%.3fs", T.Seconds) << "\n";
  for (const JobResult &J : R.Results) {
    if (J.S == JobResult::State::Failed)
      std::cout << "  FAILED " << J.Id << " ("
                << taskKindName(J.Spec.Task) << " " << subjectText(J.Spec)
                << "): " << J.Error << "\n";
    else if (J.S == JobResult::State::Quarantined)
      std::cout << "  QUARANTINED " << J.Id << " ("
                << taskKindName(J.Spec.Task) << " " << subjectText(J.Spec)
                << ", " << J.Attempts.size() << " attempts): " << J.Error
                << "\n";
  }
}

int cmdSuite(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Sub = Argv[0];
  std::string SuitePath;
  SuiteRunOptions Opts;
  Opts.ApplyEnvOverrides = true;
  Opts.Progress = &std::cout;
  std::string JsonOut;
  ObsCli Obs;

  auto Uint = [](const std::string &V, uint64_t &Out) {
    char *End = nullptr;
    Out = std::strtoull(V.c_str(), &End, 0);
    return End && !*End && !V.empty();
  };

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Key = A, Val;
    if (size_t Eq = A.find('=');
        startsWith(A, "--") && Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    }
    uint64_t N = 0;
    if (Key == "--shards") {
      if (!Uint(Val, N))
        return fail("bad --shards");
      Opts.Shards = static_cast<unsigned>(N);
    } else if (Key == "--mode") {
      if (!suiteModeByName(Val, Opts.Mode))
        return fail("unknown mode '" + Val +
                    "' (expected inprocess|subprocess|dry)");
    } else if (A == "--resume") {
      Opts.Resume = true;
    } else if (A == "--ndjson") {
      if (I + 1 >= Argc || startsWith(Argv[I + 1], "--"))
        return fail("--ndjson needs an output path");
      Opts.EventLog = Argv[++I];
    } else if (Key == "--ndjson") {
      Opts.EventLog = Val;
    } else if (A == "--worker") {
      if (I + 1 >= Argc || startsWith(Argv[I + 1], "--"))
        return fail("--worker needs an executable path");
      Opts.WorkerExe = Argv[++I];
    } else if (Key == "--worker") {
      Opts.WorkerExe = Val;
    } else if (A == "--json") {
      if (I + 1 >= Argc || startsWith(Argv[I + 1], "--"))
        return fail("--json needs an output path");
      JsonOut = Argv[++I];
    } else if (Key == "--json") {
      JsonOut = Val;
    } else if (A == "--progress") {
      Opts.LiveProgress = true;
    } else if (Key == "--progress-every") {
      char *End = nullptr;
      double Sec = std::strtod(Val.c_str(), &End);
      if (Val.empty() || !End || *End || Sec < 0)
        return fail("bad --progress-every (seconds)");
      Opts.ProgressPeriodSec = Sec;
    } else if (Key == "--timeout" || Key == "--stall-timeout" ||
               Key == "--backoff" || Key == "--grace") {
      char *End = nullptr;
      double Sec = std::strtod(Val.c_str(), &End);
      if (Val.empty() || !End || *End || Sec < 0)
        return fail("bad " + Key + " (seconds)");
      if (Key == "--timeout")
        Opts.TimeoutSec = Sec;
      else if (Key == "--stall-timeout")
        Opts.StallTimeoutSec = Sec;
      else if (Key == "--backoff")
        Opts.BackoffSec = Sec;
      else
        Opts.GraceSec = Sec;
    } else if (Key == "--retries") {
      if (!Uint(Val, N))
        return fail("bad --retries");
      Opts.Retries = static_cast<unsigned>(N);
    } else if (Key == "--mem-limit") {
      if (!Uint(Val, N))
        return fail("bad --mem-limit (MiB)");
      Opts.MemLimitMb = static_cast<unsigned>(N);
    } else if (Key == "--cpu-limit") {
      if (!Uint(Val, N))
        return fail("bad --cpu-limit (seconds)");
      Opts.CpuLimitSec = static_cast<unsigned>(N);
    } else if (Key == "--max-failures") {
      if (!Uint(Val, N))
        return fail("bad --max-failures");
      Opts.MaxFailures = static_cast<unsigned>(N);
    } else if (Obs.consume(Key, Val, A)) {
    } else if (!startsWith(A, "--") && SuitePath.empty()) {
      SuitePath = A;
    } else {
      return fail("unexpected argument '" + A + "'");
    }
  }
  if (SuitePath.empty())
    return usage();

  Expected<std::string> Text = readInput(SuitePath);
  if (!Text)
    return fail(Text.error());
  Expected<SuiteSpec> Suite = SuiteSpec::parse(*Text);
  if (!Suite)
    return fail(SuitePath + ": " + Suite.error());

  if (Sub == "expand") {
    Expected<std::vector<SuiteJob>> Jobs = Suite->expand(true);
    if (!Jobs)
      return fail(Jobs.error());
    for (const SuiteJob &Job : *Jobs) {
      json::Value Line =
          json::Value::object()
              .set("job", json::Value::string(Job.Id))
              .set("index",
                   json::Value::number(static_cast<uint64_t>(Job.Index)));
      // Re-parse the canonical text so the printed spec is exactly what
      // a worker will receive.
      Line.set("spec", *json::Value::parse(Job.CanonicalSpec));
      std::cout << Line.dump() << "\n";
    }
    return 0;
  }
  if (Sub != "run")
    return fail("unknown suite subcommand '" + Sub +
                "' (try: run, expand)");

  if (Opts.Resume && Opts.EventLog.empty())
    return fail("--resume needs --ndjson <log> (the checkpoint)");

  // Ctrl-C / SIGTERM on the CLI driver = graceful shutdown: stop
  // dispatching, reap children, flush suite_interrupted, exit 4.
  Opts.HandleSignals = true;
  Obs.begin();
  Expected<SuiteReport> R =
      JobScheduler::execute(std::move(*Suite), std::move(Opts));
  if (!R)
    return Obs.end(fail(R.error()));

  bool Dry = R->Mode == suiteModeName(SuiteMode::Dry);
  if (Dry) {
    for (const JobResult &J : R->Results)
      std::cout << J.Id << "  " << taskKindName(J.Spec.Task) << "  "
                << subjectText(J.Spec)
                << (J.Spec.Search.Seed
                        ? "  seed=" + std::to_string(*J.Spec.Search.Seed)
                        : "")
                << "\n";
    std::cout << "jobs:      " << R->Jobs << " (dry run)\n";
  } else {
    printSuiteReport(*R);
  }
  if (!JsonOut.empty()) {
    std::ofstream Out(JsonOut);
    if (!Out) {
      std::cerr << "wdm: cannot write '" << JsonOut << "'\n";
      return Obs.end(3);
    }
    Out << R->toJsonText();
    std::cout << "report:    " << JsonOut << "\n";
  }
  return Obs.end(Dry ? 0 : R->exitCode());
}

int cmdServe(int Argc, char **Argv) {
  serve::ServerOptions SO;

  auto Uint = [](const std::string &V, uint64_t &Out) {
    char *End = nullptr;
    Out = std::strtoull(V.c_str(), &End, 0);
    return End && !*End && !V.empty();
  };

  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Key = A, Val;
    if (size_t Eq = A.find('=');
        startsWith(A, "--") && Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    }
    uint64_t N = 0;
    if (Key == "--host") {
      SO.Host = Val;
    } else if (Key == "--port") {
      if (!Uint(Val, N) || N > 65535)
        return fail("bad --port");
      SO.Port = static_cast<uint16_t>(N);
    } else if (Key == "--threads") {
      if (!Uint(Val, N))
        return fail("bad --threads");
      SO.Threads = static_cast<unsigned>(N);
    } else if (Key == "--max-connections") {
      if (!Uint(Val, N) || N == 0)
        return fail("bad --max-connections");
      SO.MaxConnections = static_cast<unsigned>(N);
    } else if (Key == "--cache-dir") {
      SO.CacheDir = Val;
    } else if (Key == "--cache-capacity") {
      if (!Uint(Val, N))
        return fail("bad --cache-capacity");
      SO.CacheCapacity = static_cast<size_t>(N);
    } else if (Key == "--warm-capacity") {
      if (!Uint(Val, N))
        return fail("bad --warm-capacity");
      SO.WarmCapacity = static_cast<size_t>(N);
    } else if (A == "--no-warm") {
      SO.Warm = false;
    } else if (Key == "--state-dir") {
      SO.StateDir = Val;
    } else if (Key == "--shards") {
      if (!Uint(Val, N))
        return fail("bad --shards");
      SO.SuiteShards = static_cast<unsigned>(N);
    } else if (Key == "--max-body") {
      if (!Uint(Val, N) || N == 0)
        return fail("bad --max-body (bytes)");
      SO.Limits.MaxBodyBytes = static_cast<size_t>(N);
    } else {
      return fail("unexpected argument '" + A + "'");
    }
  }

  serve::Server S(SO);
  Status St = S.serveForever([&](uint16_t Port) {
    // Parsed by scripts (tests, CI smoke) to discover an ephemeral port;
    // keep the format stable.
    std::cout << "listening on " << SO.Host << ":" << Port << "\n"
              << std::flush;
  });
  if (!St.ok())
    return fail(St.message());
  std::cout << "drained\n";
  return 0;
}

int cmdSubmit(int Argc, char **Argv) {
  std::string SpecPath, ServerSpec, JsonOut;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Key = A, Val;
    if (size_t Eq = A.find('=');
        startsWith(A, "--") && Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    }
    if (Key == "--server") {
      ServerSpec = Val;
    } else if (A == "--json") {
      if (I + 1 >= Argc || startsWith(Argv[I + 1], "--"))
        return fail("--json needs an output path");
      JsonOut = Argv[++I];
    } else if (Key == "--json") {
      JsonOut = Val;
    } else if (SpecPath.empty() && (A == "-" || !startsWith(A, "--"))) {
      SpecPath = A;
    } else {
      return fail("unexpected argument '" + A + "'");
    }
  }
  if (SpecPath.empty() || ServerSpec.empty())
    return usage();

  std::string Host;
  uint16_t Port = 0;
  if (!serve::parseHostPort(ServerSpec, Host, Port))
    return fail("bad --server '" + ServerSpec + "' (expected host:port)");

  Expected<std::string> Text = readInput(SpecPath);
  if (!Text)
    return fail(Text.error());

  Expected<serve::HttpResponse> Resp =
      serve::httpRequest(Host, Port, "POST", "/v1/run", *Text);
  if (!Resp) {
    std::cerr << "wdm: " << Resp.error() << "\n";
    return 3; // Could not reach / talk to the daemon: internal error.
  }
  Expected<json::Value> Doc = json::Value::parse(Resp->Body);
  if (Resp->Status != 200) {
    std::string Msg = "server answered " + std::to_string(Resp->Status);
    if (Doc && Doc->isObject())
      if (const json::Value *E = Doc->find("error"))
        Msg += ": " + E->asString();
    std::cerr << "wdm: " << Msg << "\n";
    return Resp->Status == 400 ? 2 : 3; // Spec errors keep the contract.
  }
  if (!Doc || !Doc->isObject())
    return fail("unparseable server response");
  const json::Value *Rep = Doc->find("report");
  if (!Rep)
    return fail("server response has no report");
  Expected<Report> R = Report::fromJson(*Rep);
  if (!R)
    return fail("bad report from server: " + R.error());

  const json::Value *Cached = Doc->find("cached");
  const json::Value *SpecHash = Doc->find("spec_hash");
  const json::Value *RepHash = Doc->find("report_hash");
  std::cout << "server:    " << Host << ":" << Port
            << (Cached && Cached->asBool() ? "  (cached)" : "") << "\n";
  if (SpecHash && RepHash)
    std::cout << "spec:      " << SpecHash->asString() << "\n"
              << "hash:      " << RepHash->asString() << "\n";
  printReport(*R);
  if (!JsonOut.empty()) {
    std::ofstream Out(JsonOut);
    if (!Out)
      return fail("cannot write '" + JsonOut + "'");
    Out << Rep->dump();
    std::cout << "report:    " << JsonOut << "\n";
  }
  return exitCodeFor(*R);
}

int cmdCache(int Argc, char **Argv) {
  if (Argc < 1)
    return usage();
  std::string Sub = Argv[0];
  std::string Dir;
  bool Json = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Key = A, Val;
    if (size_t Eq = A.find('=');
        startsWith(A, "--") && Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    }
    if (Key == "--cache-dir")
      Dir = Val;
    else if (A == "--json")
      Json = true;
    else
      return fail("unexpected argument '" + A + "'");
  }
  if (Dir.empty())
    return fail("cache " + Sub + " needs --cache-dir=<dir>");

  if (Sub == "stats") {
    uint64_t Entries = 0, Bytes = 0;
    Status St = serve::ResultCache::diskStats(Dir, Entries, Bytes);
    if (!St.ok())
      return fail(St.message());
    if (Json) {
      std::cout << json::Value::object()
                       .set("dir", json::Value::string(Dir))
                       .set("entries", json::Value::number(Entries))
                       .set("bytes", json::Value::number(Bytes))
                       .dump()
                << "\n";
    } else {
      std::cout << "cache:     " << Dir << "\n"
                << "entries:   " << Entries << "\n"
                << "bytes:     " << Bytes << "\n";
    }
    return 0;
  }
  if (Sub == "clear") {
    uint64_t Removed = 0;
    Status St = serve::ResultCache::diskClear(Dir, Removed);
    if (!St.ok())
      return fail(St.message());
    std::cout << "removed:   " << Removed << "\n";
    return 0;
  }
  return fail("unknown cache subcommand '" + Sub + "' (try: stats, clear)");
}

bool parsePathLegs(const std::string &Text,
                   std::vector<PathLegSpec> &Out) {
  for (const std::string &Leg : splitString(Text, ',')) {
    std::vector<std::string> Parts = splitString(Leg, ':');
    if (Parts.empty() || Parts.size() > 2 || Parts[0].empty())
      return false;
    char *End = nullptr;
    unsigned long Branch = std::strtoul(Parts[0].c_str(), &End, 10);
    if (!End || *End)
      return false;
    bool Taken = true;
    if (Parts.size() == 2) {
      if (Parts[1] == "taken")
        Taken = true;
      else if (Parts[1] == "not")
        Taken = false;
      else
        return false;
    }
    Out.push_back({static_cast<unsigned>(Branch), Taken});
  }
  return !Out.empty();
}

int cmdAnalyze(int Argc, char **Argv) {
  AnalysisSpec Spec;
  Spec.Search.applyEnv(); // Flags below override the env knobs.
  std::string JsonOut;
  bool HaveTask = false;
  ObsCli Obs;

  auto Uint = [](const std::string &V, uint64_t &Out) {
    char *End = nullptr;
    Out = std::strtoull(V.c_str(), &End, 0);
    return End && !*End && !V.empty();
  };

  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Key = A, Val;
    if (size_t Eq = A.find('='); startsWith(A, "--") && Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    }
    uint64_t N = 0;
    if (Key == "--task") {
      if (!taskKindByName(Val, Spec.Task))
        return fail("unknown task '" + Val + "'");
      HaveTask = true;
    } else if (Key == "--module") {
      Spec.Module = ModuleSource::file(Val);
    } else if (Key == "--builtin") {
      Spec.Module = ModuleSource::builtin(Val);
    } else if (Key == "--constraint") {
      Spec.Constraint = Val;
    } else if (Key == "--func") {
      Spec.Function = Val;
    } else if (Key == "--evals") {
      if (!Uint(Val, N))
        return fail("bad --evals");
      Spec.Search.MaxEvals = N;
    } else if (Key == "--starts") {
      if (!Uint(Val, N))
        return fail("bad --starts");
      Spec.Search.Starts = static_cast<unsigned>(N);
    } else if (Key == "--seed") {
      if (!Uint(Val, N))
        return fail("bad --seed");
      Spec.Search.Seed = N;
    } else if (Key == "--threads") {
      if (!Uint(Val, N))
        return fail("bad --threads");
      Spec.Search.Threads = static_cast<unsigned>(N);
    } else if (Key == "--batch") {
      if (!Uint(Val, N))
        return fail("bad --batch");
      Spec.Search.Batch = static_cast<unsigned>(N);
    } else if (Key == "--backends") {
      for (const std::string &B : splitString(Val, ','))
        Spec.Search.Backends.push_back(B);
    } else if (Key == "--engine") {
      vm::EngineKind EK;
      if (!vm::engineKindByName(Val, EK))
        return fail("bad --engine '" + Val + "': must be one of " +
                    jit::engineNamesForErrors());
      Spec.Search.Engine = Val;
    } else if (Key == "--prune") {
      PruneMode PM;
      if (!pruneModeByName(Val, PM))
        return fail("bad --prune '" + Val +
                    "': must be one of off|sites|sites+box");
      Spec.Search.Prune = Val;
    } else if (Key == "--path") {
      if (!parsePathLegs(Val, Spec.Path))
        return fail("bad --path (expected e.g. 0:taken,1:not)");
    } else if (Key == "--boundary-form") {
      Spec.BoundaryForm = Val;
    } else if (Key == "--overflow-metric") {
      Spec.OverflowMetric = Val;
    } else if (Key == "--nfp") {
      if (!Uint(Val, N))
        return fail("bad --nfp");
      Spec.NFP = static_cast<unsigned>(N);
    } else if (A == "--json") {
      if (I + 1 >= Argc || startsWith(Argv[I + 1], "--"))
        return fail("--json needs an output path");
      JsonOut = Argv[++I];
    } else if (Key == "--json") {
      JsonOut = Val;
    } else if (Obs.consume(Key, Val, A)) {
    } else if (!startsWith(A, "--") &&
               Spec.Module.K == ModuleSource::Kind::None) {
      Spec.Module = ModuleSource::file(A);
    } else {
      return fail("unexpected argument '" + A + "'");
    }
  }
  if (!HaveTask)
    return usage();

  // Round-trip through JSON so `analyze` exercises exactly the same
  // validation as `run`, and misconfigurations fail identically.
  Expected<AnalysisSpec> Checked = AnalysisSpec::parse(Spec.toJsonText());
  if (!Checked)
    return fail(Checked.error());
  Obs.begin();
  return Obs.end(finish(*Checked, JsonOut));
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "tasks")
    return cmdTasks(Argc - 2, Argv + 2);
  if (Cmd == "run")
    return cmdRun(Argc - 2, Argv + 2);
  if (Cmd == "run-job")
    return cmdRunJob(Argc - 2, Argv + 2);
  if (Cmd == "suite")
    return cmdSuite(Argc - 2, Argv + 2);
  if (Cmd == "analyze")
    return cmdAnalyze(Argc - 2, Argv + 2);
  if (Cmd == "serve")
    return cmdServe(Argc - 2, Argv + 2);
  if (Cmd == "submit")
    return cmdSubmit(Argc - 2, Argv + 2);
  if (Cmd == "cache")
    return cmdCache(Argc - 2, Argv + 2);
  if (Cmd == "version" || Cmd == "--version" || Cmd == "-V")
    return cmdVersion(Argc - 2, Argv + 2);
  if (Cmd == "--help" || Cmd == "-h" || Cmd == "help") {
    usage();
    return 0;
  }
  return fail("unknown command '" + Cmd +
              "' (try: tasks, run, analyze, suite, serve, submit, cache, "
              "run-job, version)");
}

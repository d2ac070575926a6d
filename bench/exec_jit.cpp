//===--- exec_jit.cpp - Native tier vs VM vs interpreter throughput ----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The execution-tier axis of the perf trajectory, extended to the native
// tier: evals/sec for interp / vm / jit on the four opt_microbench
// kernels (fig2, sin_model, bessel, boundary_weak_distance). Every
// kernel is also checked for bit-for-bit result identity across the
// tiers before it is timed — return bits, step counts, and outcome kind
// must agree, the same contract the VMTests differential sweep enforces.
//
// Results land in BENCH_exec_jit.json. --assert-jit-speedup turns "the
// JIT beats the VM >= 1.5x on at least 2 of the 4 kernels" (and bit
// identity everywhere) into an exit code for CI. On hosts where the
// native tier is unavailable the factory chain's VM fallback is
// exercised and recorded instead, and the assertion passes with an
// engine_fallback annotation rather than failing.
//
//===----------------------------------------------------------------------===//

#include "gsl/Bessel.h"
#include "instrument/BoundaryPass.h"
#include "jit/JITCompile.h"
#include "jit/JITWeakDistance.h"
#include "subjects/Fig2.h"
#include "subjects/SinModel.h"
#include "support/FPUtils.h"
#include "support/Json.h"
#include "vm/Lowering.h"
#include "vm/Machine.h"
#include "vm/VMWeakDistance.h"

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace wdm;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Throughput of one kernel on each tier (0 when the tier did not run).
struct TierRates {
  std::string Kernel;
  double Interp = 0, VM = 0, Jit = 0; // evals/sec
  bool JitRan = false;  ///< Native code actually executed.
  bool Identical = true;

  double jitSpeedupVsVM() const { return VM > 0 ? Jit / VM : 0; }
  double jitSpeedupVsInterp() const { return Interp > 0 ? Jit / Interp : 0; }
};

/// The cross-tier identity key of one execution: outcome kind, exact
/// step count, and the raw return bits.
struct ResultKey {
  int Kind = -1;
  uint64_t Steps = 0;
  uint64_t Bits = 0;

  explicit ResultKey(const exec::ExecResult &R)
      : Kind(static_cast<int>(R.Kind)), Steps(R.Steps) {
    if (R.ReturnValue.type() == ir::Type::Double)
      Bits = bitsOf(R.ReturnValue.asDouble());
    else if (R.ReturnValue.type() == ir::Type::Int)
      Bits = static_cast<uint64_t>(R.ReturnValue.asInt());
    else if (R.ReturnValue.type() == ir::Type::Bool)
      Bits = R.ReturnValue.asBool() ? 1 : 0;
  }
  bool operator==(const ResultKey &O) const {
    return Kind == O.Kind && Steps == O.Steps && Bits == O.Bits;
  }
};

volatile double Sink; // Keeps the timed loops honest under -O2.

/// One raw-function kernel timed through all three tiers. \p Drift
/// nudges the first argument every iteration (the opt_microbench input
/// pattern) so the loop cannot be hoisted.
TierRates benchRawKernel(const std::string &Name, ir::Module &M,
                         const ir::Function *F, std::vector<double> Args0,
                         bool Drift, uint64_t N, unsigned Reps) {
  TierRates R;
  R.Kernel = Name;

  exec::Engine E(M);
  vm::CompiledModule CM = vm::compile(M);
  const vm::CompiledFunction *CF = CM.lookup(F);
  jit::CompiledModule JM = jit::compile(CM);
  const jit::CompiledFunction *JF = JM.lookup(F);
  const bool UseJit = jit::available() && CF && JF && JF->Ok;
  if (!CF) {
    std::cerr << "exec_jit: VM lowering rejected kernel '" << Name << "'\n";
    std::exit(2);
  }

  auto rtArgs = [&](double X0) {
    std::vector<exec::RTValue> A;
    for (double D : Args0)
      A.push_back(exec::RTValue::ofDouble(D));
    A[0] = exec::RTValue::ofDouble(X0);
    return A;
  };

  // --- Bit identity across tiers on a probe sweep -----------------------
  {
    exec::ExecContext CtxI(M), CtxV(M), CtxJ(M);
    vm::Machine Mach(CM);
    double X = Args0[0];
    for (unsigned I = 0; I < 64; ++I) {
      std::vector<exec::RTValue> A = rtArgs(X);
      ResultKey KI(E.run(F, A, CtxI));
      ResultKey KV(Mach.run(*CF, A, CtxV));
      if (!(KI == KV))
        R.Identical = false;
      if (UseJit) {
        ResultKey KJ(jit::run(JM, *JF, A, CtxJ));
        if (!(KI == KJ))
          R.Identical = false;
      }
      if (Drift)
        X += 1e-7;
    }
    if (UseJit) {
      // The persistent-state Runner (the timed entry below) must agree
      // with jit::run — same sweep, fresh context.
      exec::ExecContext CtxI2(M), CtxR(M);
      jit::Runner Run(JM, CtxR);
      X = Args0[0];
      for (unsigned I = 0; I < 64; ++I) {
        std::vector<exec::RTValue> A = rtArgs(X);
        ResultKey KI(E.run(F, A, CtxI2));
        ResultKey KR(Run.run(*JF, A));
        if (!(KI == KR))
          R.Identical = false;
        if (Drift)
          X += 1e-7;
      }
    }
  }

  // --- Throughput, best of Reps per tier --------------------------------
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    { // interp
      exec::ExecContext Ctx(M);
      std::vector<exec::RTValue> A = rtArgs(Args0[0]);
      double X = Args0[0], Acc = 0;
      double T0 = now();
      for (uint64_t I = 0; I < N; ++I) {
        A[0] = exec::RTValue::ofDouble(X);
        exec::ExecResult ER = E.run(F, A, Ctx);
        Acc += static_cast<double>(ER.Steps);
        if (Drift)
          X += 1e-9;
      }
      double Dt = now() - T0;
      Sink = Acc;
      R.Interp = std::max(R.Interp, Dt > 0 ? N / Dt : 0);
    }
    { // vm
      vm::Machine Mach(CM);
      exec::ExecContext Ctx(M);
      std::vector<double> A = Args0;
      double Acc = 0;
      double T0 = now();
      for (uint64_t I = 0; I < N; ++I) {
        exec::ExecResult ER = Mach.run(*CF, A.data(), A.size(), Ctx);
        Acc += static_cast<double>(ER.Steps);
        if (Drift)
          A[0] += 1e-9;
      }
      double Dt = now() - T0;
      Sink = Acc;
      R.VM = std::max(R.VM, Dt > 0 ? N / Dt : 0);
    }
    if (UseJit) { // jit — the persistent Runner, the tier's Machine analogue
      exec::ExecContext Ctx(M);
      jit::Runner Run(JM, Ctx);
      std::vector<exec::RTValue> A = rtArgs(Args0[0]);
      double X = Args0[0], Acc = 0;
      double T0 = now();
      for (uint64_t I = 0; I < N; ++I) {
        A[0] = exec::RTValue::ofDouble(X);
        exec::ExecResult ER = Run.run(*JF, A);
        Acc += static_cast<double>(ER.Steps);
        if (Drift)
          X += 1e-9;
      }
      double Dt = now() - T0;
      Sink = Acc;
      R.Jit = std::max(R.Jit, Dt > 0 ? N / Dt : 0);
      R.JitRan = true;
    }
  }
  return R;
}

/// The boundary weak-distance kernel: the full factory path every
/// search actually pays, one minted evaluator per tier.
TierRates benchBoundaryKernel(uint64_t N, unsigned Reps,
                              std::string &FallbackReason) {
  TierRates R;
  R.Kernel = "boundary_weak_distance";

  ir::Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*P.F);
  exec::Engine E(M);
  exec::ExecContext Parent(M);

  auto bundle = [&](vm::EngineKind K) {
    return vm::makeWeakDistanceFactory(K, E, BI.Wrapped, BI.W, BI.WInit,
                                       Parent);
  };
  vm::FactoryBundle TInterp = bundle(vm::EngineKind::Interp);
  vm::FactoryBundle TVM = bundle(vm::EngineKind::VM);
  vm::FactoryBundle TJit = bundle(vm::EngineKind::JIT);
  R.JitRan = TJit.Effective == vm::EngineKind::JIT;
  FallbackReason = TJit.FallbackReason;

  // --- Bit identity across the minted evaluators ------------------------
  {
    std::unique_ptr<core::WeakDistance> WI = TInterp.Factory->make();
    std::unique_ptr<core::WeakDistance> WV = TVM.Factory->make();
    std::unique_ptr<core::WeakDistance> WJ = TJit.Factory->make();
    double X = 0.25;
    for (unsigned I = 0; I < 64; ++I) {
      uint64_t BI_ = bitsOf((*WI)({X}));
      uint64_t BV = bitsOf((*WV)({X}));
      uint64_t BJ = bitsOf((*WJ)({X}));
      if (BI_ != BV || BI_ != BJ)
        R.Identical = false;
      X += 1e-7;
    }
  }

  auto rate = [&](core::WeakDistanceFactory &Factory) {
    std::unique_ptr<core::WeakDistance> W = Factory.make();
    std::vector<double> X(W->dim(), 0.25);
    double Acc = 0;
    double T0 = now();
    for (uint64_t I = 0; I < N; ++I) {
      Acc += (*W)(X);
      X[0] += 1e-9;
    }
    double Dt = now() - T0;
    Sink = Acc;
    return Dt > 0 ? N / Dt : 0.0;
  };

  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    R.Interp = std::max(R.Interp, rate(*TInterp.Factory));
    R.VM = std::max(R.VM, rate(*TVM.Factory));
    if (R.JitRan)
      R.Jit = std::max(R.Jit, rate(*TJit.Factory));
  }
  return R;
}

} // namespace

int main(int argc, char **argv) {
  bool Assert = false;
  uint64_t N = 200'000;
  unsigned Reps = 3;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--assert-jit-speedup") == 0)
      Assert = true;
    else if (std::strncmp(argv[I], "--evals=", 8) == 0)
      N = std::strtoull(argv[I] + 8, nullptr, 0);
    else if (std::strncmp(argv[I], "--reps=", 7) == 0)
      Reps = static_cast<unsigned>(std::strtoul(argv[I] + 7, nullptr, 0));
  }

  std::cout << "== exec_jit: native tier vs vm vs interp ==\n"
            << "jit available: " << (jit::available() ? "yes" : "no")
            << "\n\n";

  std::vector<TierRates> Kernels;
  {
    ir::Module M;
    subjects::Fig2 P = subjects::buildFig2(M);
    Kernels.push_back(
        benchRawKernel("fig2", M, P.F, {0.25}, /*Drift=*/true, N, Reps));
  }
  {
    ir::Module M;
    subjects::SinModel P = subjects::buildSinModel(M);
    Kernels.push_back(
        benchRawKernel("sin_model", M, P.F, {1.5}, /*Drift=*/true, N, Reps));
  }
  {
    ir::Module M;
    gsl::SfFunction F = gsl::buildBesselKnuScaledAsympx(M);
    Kernels.push_back(benchRawKernel("bessel", M, F.F, {1.5, 2.0},
                                     /*Drift=*/false, N, Reps));
  }
  std::string FallbackReason;
  Kernels.push_back(benchBoundaryKernel(N, Reps, FallbackReason));

  json::BenchJson Json("exec_jit");
  Json.field("jit_available",
             std::string(jit::available() ? "yes" : "no"));
  if (!jit::available())
    Json.field("engine_fallback", FallbackReason.empty()
                                      ? std::string("jit unavailable; "
                                                    "vm tier measured")
                                      : FallbackReason);

  bool AllIdentical = true;
  unsigned JitWins = 0, JitKernels = 0;
  for (const TierRates &K : Kernels) {
    AllIdentical = AllIdentical && K.Identical;
    if (K.JitRan) {
      ++JitKernels;
      JitWins += K.jitSpeedupVsVM() >= 1.5;
    }
    Json.entry(K.Kernel)
        .field("interp_evals_per_sec", K.Interp)
        .field("vm_evals_per_sec", K.VM)
        .field("jit_evals_per_sec", K.Jit)
        .field("jit_speedup_vs_vm", K.jitSpeedupVsVM())
        .field("jit_speedup_vs_interp", K.jitSpeedupVsInterp())
        .field("bit_identical", K.Identical ? 1.0 : 0.0);
    std::cout << "tier throughput [" << K.Kernel << "]: interp " << K.Interp
              << " | vm " << K.VM << " | jit "
              << (K.JitRan ? std::to_string(K.Jit) : std::string("n/a"))
              << " evals/sec";
    if (K.JitRan)
      std::cout << "  (jit/vm " << K.jitSpeedupVsVM() << "x, jit/interp "
                << K.jitSpeedupVsInterp() << "x)";
    std::cout << "  identical=" << (K.Identical ? "yes" : "NO") << "\n";
  }
  if (!Json.write())
    std::cerr << "warning: could not write BENCH_exec_jit.json\n";

  if (Assert) {
    if (!AllIdentical) {
      std::cerr << "--assert-jit-speedup: tiers disagreed on some kernel "
                   "(bit identity violated)\n";
      return 1;
    }
    if (!jit::available()) {
      std::cout << "--assert-jit-speedup: native tier unavailable on this "
                   "host; VM fallback verified bit-identical, speedup "
                   "assertion vacuously ok\n";
      return 0;
    }
    if (JitWins < 2) {
      std::cerr << "--assert-jit-speedup: JIT beat the VM >= 1.5x on only "
                << JitWins << "/" << JitKernels
                << " kernels (need >= 2 of 4)\n";
      return 1;
    }
    std::cout << "--assert-jit-speedup: ok (JIT >= 1.5x over VM on "
              << JitWins << "/" << JitKernels
              << " kernels, results bit-identical)\n";
  }
  return 0;
}

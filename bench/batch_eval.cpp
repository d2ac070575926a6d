//===--- batch_eval.cpp - Batched vs scalar evaluation throughput ------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The batching axis of the perf trajectory: Differential Evolution —
// the generation-structured backend — driven scalar (batch = 1) versus
// batched (batch = 32) through the same weak distance on the compiled
// tier, on the fig2 boundary kernel and the bessel overflow kernel.
// Every pair is also checked for bit-for-bit result identity (the
// batching contract), and the superinstruction peephole is measured by
// running the min-form boundary weak distance with fusion on and off.
//
// Results land in BENCH_batch_eval.json. --assert-batch-speedup turns
// "batched DE beats scalar DE >= 1.5x on the fig2 kernel" (and result
// identity everywhere) into an exit code for CI.
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "gsl/Bessel.h"
#include "instrument/OverflowPass.h"
#include "opt/DifferentialEvolution.h"
#include "subjects/Fig2.h"
#include "support/FPUtils.h"
#include "support/Json.h"
#include "vm/VMWeakDistance.h"

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

using namespace wdm;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct DERun {
  double EvalsPerSec = 0;
  uint64_t Evals = 0;
  std::vector<double> BestX;
  double BestF = 0;
};

/// One full-budget DE minimization against a freshly minted evaluator.
/// StopAtTarget is off so both configurations consume the exact budget
/// and the timing compares like with like.
DERun runDE(core::WeakDistanceFactory &Factory, unsigned Batch,
            uint64_t Budget, uint64_t Seed) {
  std::unique_ptr<core::WeakDistance> Eval = Factory.make();
  const unsigned Dim = Eval->dim();

  opt::Objective Obj(
      [&Eval](const std::vector<double> &X) { return (*Eval)(X); }, Dim);
  Obj.setBatchFn([&Eval](const double *Xs, std::size_t K, double *Fs) {
    Eval->evalBatch(Xs, K, Fs);
  });
  Obj.MaxEvals = Budget;

  opt::DifferentialEvolution DE;
  opt::MinimizeOptions MO;
  MO.Batch = Batch;
  MO.StopAtTarget = false;
  MO.Lo = -50.0;
  MO.Hi = 50.0;
  RNG Rand(Seed);
  std::vector<double> Start(Dim, 7.5);

  double T0 = now();
  opt::MinimizeResult MR = DE.minimize(Obj, Start, Rand, MO);
  double Dt = now() - T0;

  DERun R;
  R.Evals = MR.Evals;
  R.BestX = MR.X;
  R.BestF = MR.F;
  R.EvalsPerSec = Dt > 0 ? static_cast<double>(MR.Evals) / Dt : 0;
  return R;
}

bool sameBits(const DERun &A, const DERun &B) {
  if (A.Evals != B.Evals || bitsOf(A.BestF) != bitsOf(B.BestF) ||
      A.BestX.size() != B.BestX.size())
    return false;
  for (size_t I = 0; I < A.BestX.size(); ++I)
    if (bitsOf(A.BestX[I]) != bitsOf(B.BestX[I]))
      return false;
  return true;
}

struct KernelReport {
  double ScalarRate = 0;
  double BatchRate = 0;
  double Speedup = 0;
  bool Identical = false;
};

/// Best-of-N scalar-vs-batched comparison on one weak-distance factory.
KernelReport benchKernel(core::WeakDistanceFactory &Factory,
                         uint64_t Budget, unsigned Reps) {
  KernelReport Rep;
  Rep.Identical = true;
  for (unsigned R = 0; R < Reps; ++R) {
    DERun Scalar = runDE(Factory, 1, Budget, 0xba7c);
    DERun Batched = runDE(Factory, 32, Budget, 0xba7c);
    Rep.ScalarRate = std::max(Rep.ScalarRate, Scalar.EvalsPerSec);
    Rep.BatchRate = std::max(Rep.BatchRate, Batched.EvalsPerSec);
    Rep.Identical = Rep.Identical && sameBits(Scalar, Batched);
  }
  Rep.Speedup = Rep.ScalarRate > 0 ? Rep.BatchRate / Rep.ScalarRate : 0;
  return Rep;
}

/// Scalar weak-distance evaluation throughput of one minted evaluator.
double evalRate(core::WeakDistanceFactory &Factory, uint64_t N) {
  std::unique_ptr<core::WeakDistance> Eval = Factory.make();
  std::vector<double> X(Eval->dim(), 0.25);
  double Acc = 0;
  double T0 = now();
  for (uint64_t I = 0; I < N; ++I) {
    Acc += (*Eval)(X);
    X[0] += 1e-9;
  }
  double Dt = now() - T0;
  // Keep Acc alive.
  if (Acc == 0.12345)
    std::cerr << "";
  return Dt > 0 ? static_cast<double>(N) / Dt : 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Assert = false;
  uint64_t Budget = 200'000;
  unsigned Reps = 3;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--assert-batch-speedup") == 0)
      Assert = true;
    else if (std::strncmp(argv[I], "--evals=", 8) == 0)
      Budget = std::strtoull(argv[I] + 8, nullptr, 0);
    else if (std::strncmp(argv[I], "--reps=", 7) == 0)
      Reps = static_cast<unsigned>(std::strtoul(argv[I] + 7, nullptr, 0));
  }

  json::BenchJson Json("batch_eval");
  bool AllIdentical = true;
  double Fig2Speedup = 0;

  // --- fig2: the boundary weak distance of the paper's Fig. 2 ----------
  {
    ir::Module M;
    subjects::Fig2 P = subjects::buildFig2(M);
    analyses::BoundaryAnalysis BVA(M, *P.F); // VM tier by default
    KernelReport R = benchKernel(BVA.factory(), Budget, Reps);
    Fig2Speedup = R.Speedup;
    AllIdentical = AllIdentical && R.Identical;
    Json.entry("fig2_de")
        .field("scalar_evals_per_sec", R.ScalarRate)
        .field("batch_evals_per_sec", R.BatchRate)
        .field("speedup", R.Speedup)
        .field("bit_identical", R.Identical ? 1.0 : 0.0);
    std::cout << "batch speedup [fig2/DE, vm]:   " << R.Speedup
              << "x (scalar " << R.ScalarRate << " -> batch "
              << R.BatchRate << " evals/sec, identical="
              << (R.Identical ? "yes" : "NO") << ")\n";
  }

  // --- bessel: the overflow weak distance on the GSL bessel model ------
  {
    ir::Module M;
    gsl::SfFunction F = gsl::buildBesselKnuScaledAsympx(M);
    instr::OverflowInstrumentation OI = instr::instrumentOverflow(*F.F);
    exec::Engine E(M);
    exec::ExecContext Parent(M);
    vm::FactoryBundle Tier = vm::makeWeakDistanceFactory(
        vm::EngineKind::VM, E, OI.Wrapped, OI.W, OI.WInit, Parent);
    KernelReport R = benchKernel(*Tier.Factory, Budget, Reps);
    AllIdentical = AllIdentical && R.Identical;
    Json.entry("bessel_de")
        .field("scalar_evals_per_sec", R.ScalarRate)
        .field("batch_evals_per_sec", R.BatchRate)
        .field("speedup", R.Speedup)
        .field("bit_identical", R.Identical ? 1.0 : 0.0);
    std::cout << "batch speedup [bessel/DE, vm]: " << R.Speedup
              << "x (scalar " << R.ScalarRate << " -> batch "
              << R.BatchRate << " evals/sec, identical="
              << (R.Identical ? "yes" : "NO") << ")\n";
  }

  // --- superinstruction fusion: min-form boundary, fused vs not --------
  {
    auto Rate = [&](bool Fuse) {
      ir::Module M;
      subjects::Fig2 P = subjects::buildFig2(M);
      instr::BoundaryInstrumentation BI =
          instr::instrumentBoundary(*P.F, instr::BoundaryForm::Min);
      exec::Engine E(M);
      exec::ExecContext Parent(M);
      vm::Limits L;
      L.Fuse = Fuse;
      vm::VMWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit,
                                        Parent, {}, L);
      double Best = 0;
      for (unsigned R = 0; R < Reps; ++R)
        Best = std::max(Best, evalRate(Factory, Budget / 2));
      return Best;
    };
    double Plain = Rate(false), Fused = Rate(true);
    double Speedup = Plain > 0 ? Fused / Plain : 0;
    Json.entry("fig2_min_superinstruction")
        .field("unfused_evals_per_sec", Plain)
        .field("fused_evals_per_sec", Fused)
        .field("speedup", Speedup);
    std::cout << "fusion speedup [fig2/min, vm]: " << Speedup
              << "x (unfused " << Plain << " -> fused " << Fused
              << " evals/sec)\n";
  }

  if (!Json.write())
    std::cerr << "warning: could not write BENCH_batch_eval.json\n";

  if (Assert) {
    if (!AllIdentical) {
      std::cerr << "--assert-batch-speedup: batched results diverged "
                   "from scalar (bit identity violated)\n";
      return 1;
    }
    if (Fig2Speedup < 1.5) {
      std::cerr << "--assert-batch-speedup: batched DE managed only "
                << Fig2Speedup << "x on the fig2 kernel (need >= 1.5x)\n";
      return 1;
    }
    std::cout << "--assert-batch-speedup: ok (" << Fig2Speedup
              << "x on fig2, results bit-identical)\n";
  }
  return 0;
}

//===--- DifferentialEvolution.cpp - Storn's DE -----------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// Generational DE/rand/1/bin: each generation's NP trial vectors are
// built from the *previous* generation's population, then evaluated and
// selected one by one. Building the whole generation before any
// selection fixes the order of the RNG draws, and with it every result
// bit.
//
//===----------------------------------------------------------------------===//

#include "opt/DifferentialEvolution.h"

#include <algorithm>
#include <cmath>

using namespace wdm::opt;

MinimizeResult DifferentialEvolution::minimize(
    Objective &Obj, const std::vector<double> &Start, RNG &Rand,
    const MinimizeOptions &Opts) {
  applyStopRule(Obj, Opts);
  uint64_t Before = Obj.numEvals();
  if (Obj.done())
    return harvest(Obj, Before);
  unsigned Dim = Obj.dim();

  unsigned NP = Opts.PopSize ? Opts.PopSize
                             : std::min(64u, std::max(8u, 15 * Dim));
  // DE is the box-constrained backend: init and every trial stay inside
  // the (sanitized) box.
  auto [Lo, Hi] = sanitizedBox(Opts);

  auto Clip = [&](double V) { return std::fmin(std::fmax(V, Lo), Hi); };

  // Flat row-major population and one generation-sized trial block, both
  // allocated once: rows are evaluated straight out of these buffers,
  // and the generation loop never reconstructs them.
  std::vector<double> Pop(static_cast<std::size_t>(NP) * Dim);
  std::vector<double> Fit(NP);
  std::vector<double> Trials(static_cast<std::size_t>(NP) * Dim);

  // Initialize: the provided start plus uniform draws over the box.
  for (unsigned I = 0; I < Dim; ++I)
    Pop[I] = Clip(Start[I]);
  for (unsigned P = 1; P < NP; ++P)
    for (unsigned I = 0; I < Dim; ++I)
      Pop[static_cast<std::size_t>(P) * Dim + I] = Rand.uniform(Lo, Hi);
  for (unsigned P = 0; P < NP && !Obj.done(); ++P)
    Fit[P] = Obj.eval(Pop.data() + static_cast<std::size_t>(P) * Dim);

  while (!Obj.done()) {
    // Build the whole generation's trials from the current population.
    for (unsigned P = 0; P < NP; ++P) {
      // Pick three distinct partners != P.
      unsigned R1, R2, R3;
      do
        R1 = static_cast<unsigned>(Rand.below(NP));
      while (R1 == P);
      do
        R2 = static_cast<unsigned>(Rand.below(NP));
      while (R2 == P || R2 == R1);
      do
        R3 = static_cast<unsigned>(Rand.below(NP));
      while (R3 == P || R3 == R1 || R3 == R2);

      // Dithered differential weight stabilizes convergence (Storn).
      double F = Opts.DEWeight + 0.3 * (Rand.uniform() - 0.5);
      unsigned ForcedDim = static_cast<unsigned>(Rand.below(Dim));
      const double *B1 = Pop.data() + static_cast<std::size_t>(R1) * Dim;
      const double *B2 = Pop.data() + static_cast<std::size_t>(R2) * Dim;
      const double *B3 = Pop.data() + static_cast<std::size_t>(R3) * Dim;
      const double *Cur = Pop.data() + static_cast<std::size_t>(P) * Dim;
      double *Trial = Trials.data() + static_cast<std::size_t>(P) * Dim;
      for (unsigned I = 0; I < Dim; ++I) {
        bool Cross = I == ForcedDim || Rand.chance(Opts.DECrossover);
        Trial[I] = Cross ? Clip(B1[I] + F * (B2[I] - B3[I])) : Cur[I];
      }
    }

    // Evaluate and select in population order, as far as the budget and
    // the early stop let through.
    for (std::size_t P = 0; P < NP && !Obj.done(); ++P) {
      const double *Trial = Trials.data() + P * Dim;
      double F = Obj.eval(Trial);
      if (F <= Fit[P]) {
        std::copy_n(Trial, Dim, Pop.data() + P * Dim);
        Fit[P] = F;
      }
    }
  }
  return harvest(Obj, Before);
}

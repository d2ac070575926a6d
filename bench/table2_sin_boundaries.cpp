//===--- table2_sin_boundaries.cpp - Paper Table 2 ------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// Reproduces Table 2: per-branch boundary values found on GNU sin — the
// developer-suggested reference value, the min/max of the found boundary
// values, and the hit counts, for both signs of x. The two conditions of
// the k < 0x7ff00000 branch are unreachable, as in the paper. Exits 1
// unless all 8 reachable conditions are hit with no soundness violation.
//
//===----------------------------------------------------------------------===//

#include "SinStudy.h"
#include "support/StringUtils.h"
#include "support/TableWriter.h"

#include <iostream>

using namespace wdm;
using namespace wdm::bench;

int main() {
  std::cout << "== Table 2: case study with Glibc sin: boundary value "
               "analysis ==\n\n";

  ir::Module M;
  subjects::SinModel Sin = subjects::buildSinModel(M);

  SinStudyResult R = runSinStudy(/*MaxEvals=*/400'000, /*Seed=*/1729);

  const char *BranchNames[5] = {"k<0x3e500000", "k<0x3feb6000",
                                "k<0x400368fd", "k<0x419921fb",
                                "k<0x7ff00000"};

  Table T({"sign", "branch", "ref", "min", "max", "hits"});
  for (int Positive = 1; Positive >= 0; --Positive) {
    for (unsigned Branch = 0; Branch < 5; ++Branch) {
      double Ref = Sin.refBoundary(Branch) * (Positive ? 1.0 : -1.0);
      auto It = R.Groups.find({Branch, Positive == 1});
      if (It == R.Groups.end()) {
        T.addRow({Positive ? "+" : "-", BranchNames[Branch],
                  Branch == 4 ? "2^1024 (unreachable)"
                              : formatDoubleCompact(Ref, 7),
                  "-", "-", "0"});
        continue;
      }
      const SinStudyResult::Group &G = It->second;
      T.addRow({Positive ? "+" : "-", BranchNames[Branch],
                formatDoubleCompact(Ref, 7), formatDoubleCompact(G.Min, 7),
                formatDoubleCompact(G.Max, 7),
                formatf("%llu", static_cast<unsigned long long>(G.Hits))});
    }
    T.addSeparator();
  }
  T.print(std::cout);

  std::cout << "\nTriggered " << R.Groups.size()
            << " of 8 reachable boundary conditions; " << R.ZeroSamples
            << " boundary values in " << R.TotalSamples << " samples; "
            << R.UnsoundZeros << " soundness violations; "
            << formatf("%.1f s.\n", R.Seconds);
  std::cout << "(Paper: 8/8 conditions, 945,314 boundary values in "
               "6,365,201 samples, 0 violations.)\n";
  return R.Groups.size() >= 8 && R.UnsoundZeros == 0 ? 0 : 1;
}

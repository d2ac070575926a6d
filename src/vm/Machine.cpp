//===--- Machine.cpp - Threaded-code VM for the compiled tier --------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// This translation unit is compiled with -frounding-math (see CMakeLists)
// for exactly the same reason exec/Interpreter.cpp is: the compiler must
// not constant-fold or reorder FP operations across the fesetround calls
// that implement RoundingMode. Arithmetic here must stay bit-for-bit the
// interpreter's.
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "support/FPUtils.h"

#include <cassert>
#include <cmath>

using namespace wdm;
using namespace wdm::vm;
using namespace wdm::exec;

namespace {

/// The arithmetic of a FusedGRmwD superinstruction — exactly the fused
/// source opcode's (this TU is -frounding-math, like the unfused path).
inline double fusedEval(FusedFOp Kind, double X, double Y) {
  switch (Kind) {
  case FusedFOp::FAdd:
    return X + Y;
  case FusedFOp::FSub:
    return X - Y;
  case FusedFOp::FMul:
    return X * Y;
  case FusedFOp::FDiv:
    return X / Y;
  case FusedFOp::FMin:
    return std::fmin(X, Y);
  case FusedFOp::FMax:
    return std::fmax(X, Y);
  }
  return 0;
}

/// The compare of a FusedFCmpBr superinstruction — exactly the fused
/// FCmp opcode's (NaN makes every ordered predicate false and NE true,
/// like the C operators the unfused handlers use).
inline int64_t fusedCmpEval(FusedCmp Pred, double X, double Y) {
  switch (Pred) {
  case FusedCmp::EQ:
    return X == Y;
  case FusedCmp::NE:
    return X != Y;
  case FusedCmp::LT:
    return X < Y;
  case FusedCmp::LE:
    return X <= Y;
  case FusedCmp::GT:
    return X > Y;
  case FusedCmp::GE:
    return X >= Y;
  }
  return 0;
}

/// The interpreter's saturating double->int64 conversion, bit-for-bit.
int64_t saturatingFPToSI(double X) {
  if (std::isnan(X))
    return 0;
  constexpr double Lo = -9.223372036854775808e18;
  constexpr double Hi = 9.223372036854775807e18;
  if (X <= Lo)
    return INT64_MIN;
  if (X >= Hi)
    return INT64_MAX;
  return static_cast<int64_t>(X);
}

} // namespace

void Machine::initFrame(const CompiledFunction &F, size_t Base) {
  Reg *R = Stack.data() + Base;
  const uint64_t *CB = F.ConstBits.data();
  for (unsigned K = 0; K < F.NumConsts; ++K)
    R[F.NumArgs + K].U = CB[K];
  for (unsigned K = 0; K < F.NumSlots; ++K)
    R[F.FirstSlotReg + K].U = 0;
}

// These three start on a cache line, so edits elsewhere in the file
// cannot shift the dispatch loop's code alignment and with it eval speed.
__attribute__((aligned(64))) ExecResult
Machine::run(const CompiledFunction &F, const double *Args, size_t NumArgs,
             ExecContext &Ctx, const ExecOptions &Opts) {
  assert(F.Ok && "running a rejected function");
  assert(NumArgs == F.NumArgs && "argument count mismatch");
  (void)NumArgs;
  RoundingScope Rounding(Opts.Rounding);
  if (Stack.size() < F.NumRegs)
    Stack.resize(std::max<size_t>(F.NumRegs, 256));
  for (unsigned I = 0; I < F.NumArgs; ++I)
    Stack[I].D = Args[I];
  initFrame(F, 0);
  uint64_t Steps = 0;
  return runFrame(F, 0, Ctx, Opts, Steps, 0);
}

__attribute__((aligned(64))) ExecResult
Machine::run(const CompiledFunction &F, const std::vector<RTValue> &Args,
             ExecContext &Ctx, const ExecOptions &Opts) {
  assert(F.Ok && "running a rejected function");
  assert(Args.size() == F.NumArgs && "argument count mismatch");
  RoundingScope Rounding(Opts.Rounding);
  if (Stack.size() < F.NumRegs)
    Stack.resize(std::max<size_t>(F.NumRegs, 256));
  for (unsigned I = 0; I < F.NumArgs; ++I) {
    switch (Args[I].type()) {
    case ir::Type::Double:
      Stack[I].D = Args[I].asDouble();
      break;
    case ir::Type::Int:
      Stack[I].I = Args[I].asInt();
      break;
    case ir::Type::Bool:
      Stack[I].I = Args[I].asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      assert(false && "void argument");
      Stack[I].U = 0;
      break;
    }
  }
  initFrame(F, 0);
  uint64_t Steps = 0;
  return runFrame(F, 0, Ctx, Opts, Steps, 0);
}

__attribute__((aligned(64))) ExecResult
Machine::runFrame(const CompiledFunction &F, size_t Base, ExecContext &Ctx,
                  const ExecOptions &Opts, uint64_t &Steps, unsigned Depth) {
  Reg *R = Stack.data() + Base;
  const Inst *const Code = F.Code.data();
  const Inst *IP = Code;

  // Frame-hoisted context state: no hash lookups and no virtual calls on
  // the dispatch path. None of these move during a run.
  ExecObserver *const Obs = Ctx.observer();
  RTValue *const GS = Ctx.globalSlots();
  const uint8_t *const Dis = Ctx.siteDisabledTable().data();
  const int64_t NDis =
      static_cast<int64_t>(Ctx.siteDisabledTable().size());
  const uint64_t MaxSteps = Opts.MaxSteps;

  ExecResult Result;

  // Threaded dispatch (computed goto, a GNU extension): one label per
  // Op, in exact enum order.
  static const void *const Lbl[] = {
      &&L_FAdd,   &&L_FSub,   &&L_FMul,   &&L_FDiv,   &&L_FRem,
      &&L_FNeg,   &&L_FAbs,   &&L_Sqrt,   &&L_Sin,    &&L_Cos,
      &&L_Tan,    &&L_Exp,    &&L_Log,    &&L_Pow,    &&L_FMin,
      &&L_FMax,   &&L_Floor,  &&L_FCmpEQ, &&L_FCmpNE, &&L_FCmpLT,
      &&L_FCmpLE, &&L_FCmpGT, &&L_FCmpGE, &&L_ICmpEQ, &&L_ICmpNE,
      &&L_ICmpLT, &&L_ICmpLE, &&L_ICmpGT, &&L_ICmpGE, &&L_IAdd,
      &&L_ISub,   &&L_IMul,   &&L_IAnd,   &&L_IOr,    &&L_IXor,
      &&L_IShl,   &&L_ILShr,  &&L_BAnd,   &&L_BOr,    &&L_BNot,
      &&L_SIToFP, &&L_FPToSI, &&L_HighWord, &&L_UlpDiff, &&L_Select,
      &&L_SlotAddr, &&L_SlotLoad, &&L_SlotStore, &&L_GLoadD,
      &&L_GLoadI, &&L_GStoreD, &&L_GStoreI, &&L_SiteEnabled, &&L_Call,
      &&L_Jmp,    &&L_CondBr, &&L_RetD,   &&L_RetI,   &&L_RetB,
      &&L_RetVoid, &&L_Trap,  &&L_FusedGRmwD, &&L_FusedFCmpBr,
  };
#define VM_CASE(op) L_##op:
#define VM_NEXT()                                                         \
  do {                                                                    \
    ++IP;                                                                 \
    if (++Steps > MaxSteps)                                               \
      goto L_StepLimit;                                                   \
    goto *Lbl[static_cast<uint8_t>(IP->Opc)];                             \
  } while (0)
#define VM_JUMP(pc)                                                       \
  do {                                                                    \
    IP = Code + (pc);                                                     \
    if (++Steps > MaxSteps)                                               \
      goto L_StepLimit;                                                   \
    goto *Lbl[static_cast<uint8_t>(IP->Opc)];                             \
  } while (0)

  if (++Steps > MaxSteps)
    goto L_StepLimit;
  goto *Lbl[static_cast<uint8_t>(IP->Opc)];

  VM_CASE(FAdd) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D + R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FSub) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D - R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FMul) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D * R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FDiv) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D / R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FRem) {
    R[IP->Dest].D = canonicalizeNaN(std::fmod(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(FNeg) {
    R[IP->Dest].D = canonicalizeNaN(-R[IP->A].D);
    VM_NEXT();
  }
  VM_CASE(FAbs) {
    R[IP->Dest].D = canonicalizeNaN(std::fabs(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Sqrt) {
    R[IP->Dest].D = canonicalizeNaN(std::sqrt(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Sin) {
    R[IP->Dest].D = canonicalizeNaN(std::sin(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Cos) {
    R[IP->Dest].D = canonicalizeNaN(std::cos(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Tan) {
    R[IP->Dest].D = canonicalizeNaN(std::tan(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Exp) {
    R[IP->Dest].D = canonicalizeNaN(std::exp(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Log) {
    R[IP->Dest].D = canonicalizeNaN(std::log(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Pow) {
    R[IP->Dest].D = canonicalizeNaN(std::pow(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(FMin) {
    R[IP->Dest].D = canonicalizeNaN(std::fmin(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(FMax) {
    R[IP->Dest].D = canonicalizeNaN(std::fmax(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(Floor) {
    R[IP->Dest].D = canonicalizeNaN(std::floor(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(FCmpEQ) {
    R[IP->Dest].I = R[IP->A].D == R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpNE) {
    R[IP->Dest].I = R[IP->A].D != R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpLT) {
    R[IP->Dest].I = R[IP->A].D < R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpLE) {
    R[IP->Dest].I = R[IP->A].D <= R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpGT) {
    R[IP->Dest].I = R[IP->A].D > R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpGE) {
    R[IP->Dest].I = R[IP->A].D >= R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(ICmpEQ) {
    R[IP->Dest].I = R[IP->A].I == R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpNE) {
    R[IP->Dest].I = R[IP->A].I != R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpLT) {
    R[IP->Dest].I = R[IP->A].I < R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpLE) {
    R[IP->Dest].I = R[IP->A].I <= R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpGT) {
    R[IP->Dest].I = R[IP->A].I > R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpGE) {
    R[IP->Dest].I = R[IP->A].I >= R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IAdd) {
    R[IP->Dest].I = static_cast<int64_t>(R[IP->A].U + R[IP->B].U);
    VM_NEXT();
  }
  VM_CASE(ISub) {
    R[IP->Dest].I = static_cast<int64_t>(R[IP->A].U - R[IP->B].U);
    VM_NEXT();
  }
  VM_CASE(IMul) {
    R[IP->Dest].I = static_cast<int64_t>(R[IP->A].U * R[IP->B].U);
    VM_NEXT();
  }
  VM_CASE(IAnd) {
    R[IP->Dest].I = R[IP->A].I & R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IOr) {
    R[IP->Dest].I = R[IP->A].I | R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IXor) {
    R[IP->Dest].I = R[IP->A].I ^ R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IShl) {
    R[IP->Dest].I =
        static_cast<int64_t>(R[IP->A].U << (R[IP->B].U & 63));
    VM_NEXT();
  }
  VM_CASE(ILShr) {
    R[IP->Dest].I =
        static_cast<int64_t>(R[IP->A].U >> (R[IP->B].U & 63));
    VM_NEXT();
  }
  VM_CASE(BAnd) {
    R[IP->Dest].I = R[IP->A].I & R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(BOr) {
    R[IP->Dest].I = R[IP->A].I | R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(BNot) {
    R[IP->Dest].I = R[IP->A].I ^ 1;
    VM_NEXT();
  }
  VM_CASE(SIToFP) {
    R[IP->Dest].D = static_cast<double>(R[IP->A].I);
    VM_NEXT();
  }
  VM_CASE(FPToSI) {
    R[IP->Dest].I = saturatingFPToSI(R[IP->A].D);
    VM_NEXT();
  }
  VM_CASE(HighWord) {
    R[IP->Dest].I = static_cast<int64_t>(highWord(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(UlpDiff) {
    R[IP->Dest].D = ulpDistanceAsDouble(R[IP->A].D, R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(Select) {
    R[IP->Dest].U = R[IP->A].I ? R[IP->B].U : R[IP->C].U;
    VM_NEXT();
  }
  VM_CASE(SlotAddr) {
    R[IP->Dest].I = IP->Imm;
    VM_NEXT();
  }
  VM_CASE(SlotLoad) {
    R[IP->Dest].U = R[IP->Imm2].U;
    VM_NEXT();
  }
  VM_CASE(SlotStore) {
    R[IP->Imm2].U = R[IP->A].U;
    VM_NEXT();
  }
  VM_CASE(GLoadD) {
    R[IP->Dest].D = GS[IP->Imm].asDouble();
    VM_NEXT();
  }
  VM_CASE(GLoadI) {
    R[IP->Dest].I = GS[IP->Imm].asInt();
    VM_NEXT();
  }
  VM_CASE(GStoreD) {
    GS[IP->Imm] = RTValue::ofDouble(R[IP->A].D);
    VM_NEXT();
  }
  VM_CASE(GStoreI) {
    GS[IP->Imm] = RTValue::ofInt(R[IP->A].I);
    VM_NEXT();
  }
  VM_CASE(SiteEnabled) {
    const int64_t Id = IP->Imm;
    R[IP->Dest].I = (Id < 0 || Id >= NDis) ? 1 : (Dis[Id] ? 0 : 1);
    VM_NEXT();
  }
  VM_CASE(Call) {
    const CompiledFunction &Callee = CM.Functions[IP->Imm2];
    if (Depth + 1 >= Opts.MaxCallDepth) {
      Result.Kind = ExecResult::Outcome::StepLimitExceeded;
      Result.Steps = Steps;
      return Result;
    }
    const size_t CalleeBase = Base + F.NumRegs;
    if (Stack.size() < CalleeBase + Callee.NumRegs) {
      Stack.resize(
          std::max<size_t>(CalleeBase + Callee.NumRegs, Stack.size() * 2));
      R = Stack.data() + Base;
    }
    const uint16_t *ArgRegs = F.CallArgPool.data() + IP->Imm;
    for (unsigned K = 0; K < Callee.NumArgs; ++K)
      Stack[CalleeBase + K].U = R[ArgRegs[K]].U;
    initFrame(Callee, CalleeBase);
    ExecResult Sub =
        runFrame(Callee, CalleeBase, Ctx, Opts, Steps, Depth + 1);
    R = Stack.data() + Base; // The callee may have grown the stack.
    if (!Sub.ok()) {
      Sub.Steps = Steps;
      return Sub;
    }
    switch (Callee.RetType) {
    case ir::Type::Double:
      R[IP->Dest].D = Sub.ReturnValue.asDouble();
      break;
    case ir::Type::Int:
      R[IP->Dest].I = Sub.ReturnValue.asInt();
      break;
    case ir::Type::Bool:
      R[IP->Dest].I = Sub.ReturnValue.asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      break;
    }
    VM_NEXT();
  }
  VM_CASE(Jmp) { VM_JUMP(IP->Imm); }
  VM_CASE(CondBr) {
    const bool Taken = R[IP->A].I != 0;
    if (Obs)
      Obs->onBranch(F.Branches[IP->Dest], Taken);
    VM_JUMP(Taken ? IP->Imm : IP->Imm2);
  }
  VM_CASE(RetD) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.ReturnValue = RTValue::ofDouble(R[IP->A].D);
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(RetI) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.ReturnValue = RTValue::ofInt(R[IP->A].I);
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(RetB) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.ReturnValue = RTValue::ofBool(R[IP->A].I != 0);
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(RetVoid) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(Trap) {
    Result.Kind = ExecResult::Outcome::Trapped;
    Result.TrapId = IP->Imm;
    Result.TrapMessage = F.TrapMessages[IP->Imm2];
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(FusedGRmwD) {
    // The dispatch step covered the fused loadg; the fop and the storeg
    // cost one step each, with the limit checked at every virtual
    // instruction boundary — bit-for-bit the unfused accounting. The
    // global is only written once all three steps fit (an unfused run
    // crossing the limit mid-triple never reached its storeg either).
    if (Steps + 2 > MaxSteps) {
      Steps = (Steps + 1 > MaxSteps) ? Steps + 1 : Steps + 2;
      goto L_StepLimit;
    }
    Steps += 2;
    const double T = GS[IP->Imm].asDouble();
    R[IP->Dest].D = T; // the loadg result may have later uses
    const double V = canonicalizeNaN(fusedEval(
        static_cast<FusedFOp>(IP->Imm2), R[IP->A].D, R[IP->B].D));
    R[IP->C].D = V;
    GS[IP->Imm] = RTValue::ofDouble(V);
    IP += 2; // skip the fused-away fop and storeg
    VM_NEXT();
  }
  VM_CASE(FusedFCmpBr) {
    // The dispatch step covered the compare; the condbr costs one more,
    // checked at its virtual boundary before the observer fires (an
    // unfused run crossing the limit there never reached the condbr
    // either — but had already written the compare result).
    const int64_t T = fusedCmpEval(static_cast<FusedCmp>(IP->Imm2),
                                   R[IP->A].D, R[IP->B].D);
    R[IP->Dest].I = T; // the compare result may have later uses
    if (++Steps > MaxSteps)
      goto L_StepLimit;
    const Inst &Br = IP[1]; // the fused-away condbr carries the targets
    const bool Taken = T != 0;
    if (Obs)
      Obs->onBranch(F.Branches[Br.Dest], Taken);
    VM_JUMP(Taken ? Br.Imm : Br.Imm2);
  }

L_StepLimit:
  Result.Kind = ExecResult::Outcome::StepLimitExceeded;
  Result.Steps = Steps;
  return Result;

#undef VM_CASE
#undef VM_NEXT
#undef VM_JUMP
}

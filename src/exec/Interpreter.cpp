//===--- Interpreter.cpp - Mini-IR interpreter ----------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// This translation unit is compiled with -frounding-math (see CMakeLists)
// so the compiler cannot constant-fold or reorder FP operations across the
// fesetround calls that implement RoundingMode.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "support/Casting.h"
#include "support/FPUtils.h"

#include <cmath>

using namespace wdm;
using namespace wdm::exec;
using namespace wdm::ir;

ExecObserver::~ExecObserver() = default;

Engine::Engine(const Module &M) : M(M) {
  for (const auto &F : M) {
    FunctionLayout &Layout = Layouts[F.get()];
    unsigned NextValue = 0;
    unsigned NextSlot = 0;
    for (unsigned I = 0; I < F->numArgs(); ++I)
      Layout.ValueIndex[F->arg(I)] = NextValue++;
    F->forEachInst([&](const Instruction *Inst) {
      if (Inst->type() != Type::Void)
        Layout.ValueIndex[Inst] = NextValue++;
      if (Inst->opcode() == Opcode::Alloca)
        Layout.SlotIndex[Inst] = NextSlot++;
    });
    Layout.NumValues = NextValue;
    Layout.NumSlots = NextSlot;
  }
}

const Engine::FunctionLayout &Engine::layoutOf(const Function *F) const {
  auto It = Layouts.find(F);
  assert(It != Layouts.end() && "function from another module");
  return It->second;
}

namespace {

bool evalCmp(CmpPred P, double A, double B) {
  // C comparison semantics give exactly IEEE-754 ordered comparisons:
  // every predicate except != is false when an operand is NaN.
  switch (P) {
  case CmpPred::EQ:
    return A == B;
  case CmpPred::NE:
    return A != B;
  case CmpPred::LT:
    return A < B;
  case CmpPred::LE:
    return A <= B;
  case CmpPred::GT:
    return A > B;
  case CmpPred::GE:
    return A >= B;
  }
  return false;
}

bool evalCmp(CmpPred P, int64_t A, int64_t B) {
  switch (P) {
  case CmpPred::EQ:
    return A == B;
  case CmpPred::NE:
    return A != B;
  case CmpPred::LT:
    return A < B;
  case CmpPred::LE:
    return A <= B;
  case CmpPred::GT:
    return A > B;
  case CmpPred::GE:
    return A >= B;
  }
  return false;
}

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

ExecResult Engine::run(const Function *F, const std::vector<RTValue> &Args,
                       ExecContext &Ctx, const ExecOptions &Opts) const {
  RoundingScope Rounding(Opts.Rounding);
  uint64_t Steps = 0;
  return runFrame(F, Args, Ctx, Opts, Steps, 0);
}

ExecResult Engine::runFrame(const Function *F,
                            const std::vector<RTValue> &Args,
                            ExecContext &Ctx, const ExecOptions &Opts,
                            uint64_t &Steps, unsigned Depth) const {
  assert(Args.size() == F->numArgs() && "argument count mismatch");
  const FunctionLayout &Layout = layoutOf(F);

  std::vector<RTValue> Values(Layout.NumValues);
  std::vector<RTValue> Slots(Layout.NumSlots);
  for (unsigned I = 0; I < F->numArgs(); ++I) {
    assert(Args[I].type() == F->arg(I)->type() && "argument type mismatch");
    Values[Layout.ValueIndex.at(F->arg(I))] = Args[I];
  }

  auto ValueOf = [&](const Value *V) -> RTValue {
    if (const auto *CD = dyn_cast<ConstantDouble>(V))
      return RTValue::ofDouble(CD->value());
    if (const auto *CI = dyn_cast<ConstantInt>(V))
      return RTValue::ofInt(CI->value());
    if (const auto *CB = dyn_cast<ConstantBool>(V))
      return RTValue::ofBool(CB->value());
    assert(V->kind() != Value::Kind::Global &&
           "globals are only read via loadg");
    return Values[Layout.ValueIndex.at(V)];
  };

  ExecResult Result;
  const BasicBlock *BB = F->entry();
  assert(BB && "function has no entry block");

  // Observers cannot be attached mid-run, so resolve the notification
  // target once per frame — the common zero-observer case then pays no
  // per-instruction dispatch at all.
  ExecObserver *const Obs = Ctx.observer();

  size_t InstIdx = 0;
  while (true) {
    if (InstIdx >= BB->size()) {
      // The verifier guarantees terminated blocks; in release builds fall
      // back to a graceful stop instead of running off the block.
      assert(false && "fell off an unterminated block");
      Result.Kind = ExecResult::Outcome::Ok;
      Result.Steps = Steps;
      return Result;
    }
    const Instruction *I = BB->inst(InstIdx);

    if (++Steps > Opts.MaxSteps) {
      Result.Kind = ExecResult::Outcome::StepLimitExceeded;
      Result.Steps = Steps;
      return Result;
    }

    // Evaluate operands into a small stack buffer (calls use a vector).
    RTValue OpBuf[3];
    unsigned NumOps = I->numOperands();
    bool SkipOperandEval = I->opcode() == Opcode::LoadGlobal ||
                           I->opcode() == Opcode::StoreGlobal ||
                           I->opcode() == Opcode::Load ||
                           I->opcode() == Opcode::Store ||
                           I->opcode() == Opcode::Call;
    if (!SkipOperandEval) {
      assert(NumOps <= 3 && "fixed-arity opcode with >3 operands");
      for (unsigned Idx = 0; Idx < NumOps; ++Idx)
        OpBuf[Idx] = ValueOf(I->operand(Idx));
    }

    // FP computation results canonicalize NaNs (see canonicalizeNaN)
    // so the interpreter and the VM agree bit-for-bit; data moves below
    // (select, load/store, globals, ret) keep raw bits.
    auto FP = [](double V) { return RTValue::ofDouble(canonicalizeNaN(V)); };

    RTValue Out;
    switch (I->opcode()) {
    case Opcode::FAdd:
      Out = FP(OpBuf[0].asDouble() + OpBuf[1].asDouble());
      break;
    case Opcode::FSub:
      Out = FP(OpBuf[0].asDouble() - OpBuf[1].asDouble());
      break;
    case Opcode::FMul:
      Out = FP(OpBuf[0].asDouble() * OpBuf[1].asDouble());
      break;
    case Opcode::FDiv:
      Out = FP(OpBuf[0].asDouble() / OpBuf[1].asDouble());
      break;
    case Opcode::FRem:
      Out = FP(std::fmod(OpBuf[0].asDouble(), OpBuf[1].asDouble()));
      break;
    case Opcode::FNeg:
      Out = FP(-OpBuf[0].asDouble());
      break;
    case Opcode::FAbs:
      Out = FP(std::fabs(OpBuf[0].asDouble()));
      break;
    case Opcode::Sqrt:
      Out = FP(std::sqrt(OpBuf[0].asDouble()));
      break;
    case Opcode::Sin:
      Out = FP(std::sin(OpBuf[0].asDouble()));
      break;
    case Opcode::Cos:
      Out = FP(std::cos(OpBuf[0].asDouble()));
      break;
    case Opcode::Tan:
      Out = FP(std::tan(OpBuf[0].asDouble()));
      break;
    case Opcode::Exp:
      Out = FP(std::exp(OpBuf[0].asDouble()));
      break;
    case Opcode::Log:
      Out = FP(std::log(OpBuf[0].asDouble()));
      break;
    case Opcode::Pow:
      Out = FP(std::pow(OpBuf[0].asDouble(), OpBuf[1].asDouble()));
      break;
    case Opcode::FMin:
      Out = FP(std::fmin(OpBuf[0].asDouble(), OpBuf[1].asDouble()));
      break;
    case Opcode::FMax:
      Out = FP(std::fmax(OpBuf[0].asDouble(), OpBuf[1].asDouble()));
      break;
    case Opcode::Floor:
      Out = FP(std::floor(OpBuf[0].asDouble()));
      break;
    case Opcode::FCmp:
      Out = RTValue::ofBool(
          evalCmp(I->pred(), OpBuf[0].asDouble(), OpBuf[1].asDouble()));
      break;
    case Opcode::ICmp:
      Out = RTValue::ofBool(
          evalCmp(I->pred(), OpBuf[0].asInt(), OpBuf[1].asInt()));
      break;
    case Opcode::IAdd:
      Out = RTValue::ofInt(static_cast<int64_t>(
          static_cast<uint64_t>(OpBuf[0].asInt()) +
          static_cast<uint64_t>(OpBuf[1].asInt())));
      break;
    case Opcode::ISub:
      Out = RTValue::ofInt(static_cast<int64_t>(
          static_cast<uint64_t>(OpBuf[0].asInt()) -
          static_cast<uint64_t>(OpBuf[1].asInt())));
      break;
    case Opcode::IMul:
      Out = RTValue::ofInt(static_cast<int64_t>(
          static_cast<uint64_t>(OpBuf[0].asInt()) *
          static_cast<uint64_t>(OpBuf[1].asInt())));
      break;
    case Opcode::IAnd:
      Out = RTValue::ofInt(OpBuf[0].asInt() & OpBuf[1].asInt());
      break;
    case Opcode::IOr:
      Out = RTValue::ofInt(OpBuf[0].asInt() | OpBuf[1].asInt());
      break;
    case Opcode::IXor:
      Out = RTValue::ofInt(OpBuf[0].asInt() ^ OpBuf[1].asInt());
      break;
    case Opcode::IShl:
      Out = RTValue::ofInt(static_cast<int64_t>(
          static_cast<uint64_t>(OpBuf[0].asInt())
          << (static_cast<uint64_t>(OpBuf[1].asInt()) & 63)));
      break;
    case Opcode::ILShr:
      Out = RTValue::ofInt(static_cast<int64_t>(
          static_cast<uint64_t>(OpBuf[0].asInt()) >>
          (static_cast<uint64_t>(OpBuf[1].asInt()) & 63)));
      break;
    case Opcode::BAnd:
      Out = RTValue::ofBool(OpBuf[0].asBool() && OpBuf[1].asBool());
      break;
    case Opcode::BOr:
      Out = RTValue::ofBool(OpBuf[0].asBool() || OpBuf[1].asBool());
      break;
    case Opcode::BNot:
      Out = RTValue::ofBool(!OpBuf[0].asBool());
      break;
    case Opcode::SIToFP:
      Out = RTValue::ofDouble(static_cast<double>(OpBuf[0].asInt()));
      break;
    case Opcode::FPToSI:
      Out = RTValue::ofInt(saturatingFPToSI(OpBuf[0].asDouble()));
      break;
    case Opcode::HighWord:
      Out = RTValue::ofInt(
          static_cast<int64_t>(highWord(OpBuf[0].asDouble())));
      break;
    case Opcode::UlpDiff:
      Out = RTValue::ofDouble(
          ulpDistanceAsDouble(OpBuf[0].asDouble(), OpBuf[1].asDouble()));
      break;
    case Opcode::Select:
      Out = OpBuf[0].asBool() ? OpBuf[1] : OpBuf[2];
      break;
    case Opcode::Alloca:
      // Slot storage exists for the whole frame; executing the alloca
      // itself produces a reference modeled by the slot index.
      Out = RTValue::ofInt(Layout.SlotIndex.at(I));
      break;
    case Opcode::Load: {
      const auto *Slot = cast<Instruction>(I->operand(0));
      Out = Slots[Layout.SlotIndex.at(Slot)];
      break;
    }
    case Opcode::Store: {
      const auto *Slot = cast<Instruction>(I->operand(0));
      Slots[Layout.SlotIndex.at(Slot)] = ValueOf(I->operand(1));
      break;
    }
    case Opcode::LoadGlobal:
      Out = Ctx.getGlobal(cast<GlobalVar>(I->operand(0)));
      break;
    case Opcode::StoreGlobal:
      Ctx.setGlobal(cast<GlobalVar>(I->operand(0)),
                    ValueOf(I->operand(1)));
      break;
    case Opcode::SiteEnabled:
      Out = RTValue::ofBool(Ctx.isSiteEnabled(I->id()));
      break;
    case Opcode::Call: {
      std::vector<RTValue> CallArgs;
      CallArgs.reserve(NumOps);
      for (unsigned Idx = 0; Idx < NumOps; ++Idx)
        CallArgs.push_back(ValueOf(I->operand(Idx)));
      if (Depth + 1 >= Opts.MaxCallDepth) {
        Result.Kind = ExecResult::Outcome::StepLimitExceeded;
        Result.Steps = Steps;
        return Result;
      }
      ExecResult Sub =
          runFrame(I->callee(), CallArgs, Ctx, Opts, Steps, Depth + 1);
      if (!Sub.ok()) {
        Sub.Steps = Steps;
        return Sub;
      }
      Out = Sub.ReturnValue;
      break;
    }
    case Opcode::Br:
      BB = I->successor(0);
      InstIdx = 0;
      continue;
    case Opcode::CondBr: {
      bool Taken = OpBuf[0].asBool();
      if (Obs)
        Obs->onBranch(I, Taken);
      BB = I->successor(Taken ? 0 : 1);
      InstIdx = 0;
      continue;
    }
    case Opcode::Ret:
      Result.Kind = ExecResult::Outcome::Ok;
      if (I->numOperands() == 1)
        Result.ReturnValue = ValueOf(I->operand(0));
      Result.Steps = Steps;
      return Result;
    case Opcode::Trap:
      Result.Kind = ExecResult::Outcome::Trapped;
      Result.TrapId = I->id();
      Result.TrapMessage = I->annotation();
      Result.Steps = Steps;
      return Result;
    }

    if (I->type() != Type::Void)
      Values[Layout.ValueIndex.at(I)] = Out;

    if (Obs)
      if (!SkipOperandEval && I->type() != Type::Void)
        Obs->onInstruction(I, OpBuf, NumOps, Out);

    ++InstIdx;
  }
}

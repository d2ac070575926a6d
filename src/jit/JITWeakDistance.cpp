//===--- JITWeakDistance.cpp - Native-tier weak distance -------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "jit/JITWeakDistance.h"

#include "obs/Telemetry.h"
#include "support/FPUtils.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

using namespace wdm;
using namespace wdm::jit;
using namespace wdm::exec;

// The native entry's outcome codes ARE ExecResult::Outcome values; the
// emitter hard-codes them, so pin the correspondence here.
static_assert(static_cast<uint32_t>(ExecResult::Outcome::Ok) == 0 &&
                  static_cast<uint32_t>(ExecResult::Outcome::Trapped) == 1 &&
                  static_cast<uint32_t>(
                      ExecResult::Outcome::StepLimitExceeded) == 2,
              "emitted code returns ExecResult::Outcome by value");

std::string wdm::jit::engineNamesForErrors() {
  std::string S = "'interp', 'vm', 'jit'";
  if (!available())
    S += " (unavailable on this platform)";
  return S;
}

namespace {

void pullGlobalsRaw(const ExecContext &Ctx, std::vector<uint64_t> &Raw) {
  const RTValue *GS = Ctx.globalSlots();
  const size_t NG = Ctx.module().numGlobals();
  Raw.resize(NG);
  for (size_t G = 0; G < NG; ++G) {
    Reg V;
    V.U = 0;
    switch (GS[G].type()) {
    case ir::Type::Double:
      V.D = GS[G].asDouble();
      break;
    case ir::Type::Int:
      V.I = GS[G].asInt();
      break;
    case ir::Type::Bool:
      V.I = GS[G].asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      break;
    }
    Raw[G] = V.U;
  }
}

void pushGlobalsRaw(ExecContext &Ctx, const std::vector<uint64_t> &Raw) {
  // The declared slot types are fixed (the lowering specializes
  // GLoadD/GLoadI by them), so the typed slots still carry the right
  // tags to write back through.
  RTValue *GS = Ctx.globalSlots();
  for (size_t G = 0; G < Raw.size(); ++G) {
    Reg V;
    V.U = Raw[G];
    switch (GS[G].type()) {
    case ir::Type::Double:
      GS[G] = RTValue::ofDouble(V.D);
      break;
    case ir::Type::Int:
      GS[G] = RTValue::ofInt(V.I);
      break;
    case ir::Type::Bool:
      GS[G] = RTValue::ofBool(V.I != 0);
      break;
    case ir::Type::Void:
      break;
    }
  }
}

/// Fills the JitRT fields that stay fixed across runs against one
/// (module, context, options) binding. \p RawGlob and \p Arena are
/// sized here — the data pointers baked into RT must never move, so
/// callers keep both vectors untouched afterwards. Steps and Obs are
/// per-run state and are NOT set here.
void fillInvariantRT(JitRT &RT, const CompiledModule &JM,
                     const ExecContext &Ctx, const ExecOptions &Opts,
                     std::vector<uint64_t> &RawGlob,
                     std::vector<Reg> &Arena) {
  RawGlob.resize(Ctx.module().numGlobals());
  Arena.resize(static_cast<size_t>(Opts.MaxCallDepth) * JM.MaxCalleeRegs);
  RT.MaxSteps = Opts.MaxSteps;
  RT.Globals = RawGlob.data();
  RT.Dis = Ctx.siteDisabledTable().data();
  RT.NDis = static_cast<int64_t>(Ctx.siteDisabledTable().size());
  RT.QNaN = bitsOf(std::numeric_limits<double>::quiet_NaN());
  RT.MaxCallDepth = Opts.MaxCallDepth;
  RT.ArenaTop = Arena.data();
  RT.ArenaEnd = Arena.data() + Arena.size();
  RT.JM = &JM;
}

/// The subject frame's initial contents: zeros everywhere, consts at
/// NumArgs.. — a memcpy source so repeated runs skip the per-slot
/// zero/const loops.
void buildFrameImage(const vm::CompiledFunction &VF, std::vector<Reg> &Img) {
  Reg Zero;
  Zero.U = 0;
  Img.assign(VF.NumRegs, Zero);
  for (unsigned K = 0; K < VF.NumConsts; ++K)
    Img[VF.NumArgs + K].U = VF.ConstBits[K];
}

/// Translates a native entry's outcome into an ExecResult.
ExecResult finishNative(uint32_t Out, const JitRT &RT,
                        const vm::CompiledFunction &VF) {
  ExecResult R;
  R.Steps = RT.Steps;
  switch (Out) {
  case 0:
    R.Kind = ExecResult::Outcome::Ok;
    switch (VF.RetType) {
    case ir::Type::Double:
      R.ReturnValue = RTValue::ofDouble(fromBits(RT.RetBits));
      break;
    case ir::Type::Int:
      R.ReturnValue = RTValue::ofInt(static_cast<int64_t>(RT.RetBits));
      break;
    case ir::Type::Bool:
      R.ReturnValue = RTValue::ofBool(RT.RetBits != 0);
      break;
    case ir::Type::Void:
      break;
    }
    break;
  case 1:
    R.Kind = ExecResult::Outcome::Trapped;
    R.TrapId = RT.TrapId;
    R.TrapMessage = *static_cast<const std::string *>(RT.TrapMsg);
    break;
  default:
    R.Kind = ExecResult::Outcome::StepLimitExceeded;
    break;
  }
  return R;
}

/// The native-run core behind jit::run: stage the raw global mirror,
/// build the frame, invoke the entry, write state back, and translate
/// the outcome. Expects the rounding mode to be installed by the caller
/// and \p Args to hold NumArgs pre-converted raw register values.
ExecResult invokeNative(const CompiledModule &JM, const CompiledFunction &JF,
                        ExecContext &Ctx, const ExecOptions &Opts,
                        const Reg *Args, std::vector<uint64_t> &RawGlob,
                        std::vector<Reg> &Frame, std::vector<Reg> &Arena) {
  assert(JF.Ok && "running a rejected function");
  const vm::CompiledFunction &VF = *JF.VF;

  JitRT RT;
  fillInvariantRT(RT, JM, Ctx, Opts, RawGlob, Arena);
  pullGlobalsRaw(Ctx, RawGlob);
  RT.Steps = 0;
  RT.Obs = Ctx.observer();

  Reg Zero;
  Zero.U = 0;
  Frame.assign(VF.NumRegs, Zero);
  for (unsigned K = 0; K < VF.NumArgs; ++K)
    Frame[K] = Args[K];
  for (unsigned K = 0; K < VF.NumConsts; ++K)
    Frame[VF.NumArgs + K].U = VF.ConstBits[K];

  const uint32_t Out =
      JM.entry(static_cast<unsigned>(&JF - JM.Functions.data()))(
          &RT, Frame.data());
  pushGlobalsRaw(Ctx, RawGlob);
  return finishNative(Out, RT, VF);
}

} // namespace

ExecResult wdm::jit::run(const CompiledModule &JM, const CompiledFunction &JF,
                         const std::vector<RTValue> &Args, ExecContext &Ctx,
                         const ExecOptions &Opts) {
  assert(Args.size() == JF.VF->NumArgs && "argument count mismatch");
  RoundingScope Rounding(Opts.Rounding);
  // Persistent per-thread buffers: like vm::Machine's stack, repeated
  // runs must not pay a frame/arena allocation per call. Native code
  // never re-enters this function, so reuse is safe.
  static thread_local std::vector<Reg> ArgBits;
  static thread_local std::vector<uint64_t> RawGlob;
  static thread_local std::vector<Reg> Frame, Arena;
  ArgBits.assign(Args.size(), Reg{});
  for (size_t I = 0; I < Args.size(); ++I) {
    switch (Args[I].type()) {
    case ir::Type::Double:
      ArgBits[I].D = Args[I].asDouble();
      break;
    case ir::Type::Int:
      ArgBits[I].I = Args[I].asInt();
      break;
    case ir::Type::Bool:
      ArgBits[I].I = Args[I].asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      assert(false && "void argument");
      ArgBits[I].U = 0;
      break;
    }
  }
  return invokeNative(JM, JF, Ctx, Opts, ArgBits.data(), RawGlob, Frame,
                      Arena);
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

Runner::Runner(const CompiledModule &JM, ExecContext &Ctx, ExecOptions Opts)
    : JM(JM), Ctx(Ctx), Opts(Opts) {
  fillInvariantRT(RT, JM, Ctx, Opts, RawGlob, Arena);
  FrameImages.resize(JM.Functions.size());
}

ExecResult Runner::run(const CompiledFunction &JF,
                       const std::vector<RTValue> &Args) {
  assert(JF.Ok && "running a rejected function");
  const vm::CompiledFunction &VF = *JF.VF;
  assert(Args.size() == VF.NumArgs && "argument count mismatch");
  RoundingScope Rounding(Opts.Rounding);

  const size_t Idx = static_cast<size_t>(&JF - JM.Functions.data());
  std::vector<Reg> &Img = FrameImages[Idx];
  if (Img.size() != VF.NumRegs)
    buildFrameImage(VF, Img);
  Frame.resize(VF.NumRegs);
  std::memcpy(Frame.data(), Img.data(), VF.NumRegs * sizeof(Reg));
  for (size_t I = 0; I < Args.size(); ++I) {
    switch (Args[I].type()) {
    case ir::Type::Double:
      Frame[I].D = Args[I].asDouble();
      break;
    case ir::Type::Int:
      Frame[I].I = Args[I].asInt();
      break;
    case ir::Type::Bool:
      Frame[I].I = Args[I].asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      assert(false && "void argument");
      Frame[I].U = 0;
      break;
    }
  }

  pullGlobalsRaw(Ctx, RawGlob);
  RT.Steps = 0;
  // The observer and site-disabled flags may change between runs; the
  // rest of RT is invariant for this binding.
  RT.Obs = Ctx.observer();
  RT.Dis = Ctx.siteDisabledTable().data();
  RT.NDis = static_cast<int64_t>(Ctx.siteDisabledTable().size());

  const uint32_t Out =
      JM.entry(static_cast<unsigned>(Idx))(&RT, Frame.data());
  pushGlobalsRaw(Ctx, RawGlob);
  return finishNative(Out, RT, VF);
}

//===----------------------------------------------------------------------===//
// JITWeakDistance
//===----------------------------------------------------------------------===//

JITWeakDistance::JITWeakDistance(const CompiledModule &JM,
                                 const CompiledFunction &JF, unsigned WIdx,
                                 double WInit, const ExecContext &Parent,
                                 ExecOptions Opts)
    : JM(JM), JF(JF), WIdx(WIdx), WInit(WInit), Ctx(*JM.VM->M),
      Opts(Opts),
      Entry(JM.entry(static_cast<unsigned>(&JF - JM.Functions.data()))) {
  assert(JF.Ok && "minting a JIT evaluator for a rejected function");
  Ctx.adoptSiteState(Parent);
  fillInvariantRT(RT, JM, Ctx, Opts, RawGlob, Arena);
  buildFrameImage(*JF.VF, FrameImage);
  Frame.resize(JF.VF->NumRegs);
  // Capture the evaluation precondition once: globals reset to their
  // initializers, w seeded. Every evaluation starts from this image.
  Ctx.resetGlobals();
  Ctx.globalSlots()[WIdx] = RTValue::ofDouble(WInit);
  pullGlobalsRaw(Ctx, ResetRawImage);
}

void JITWeakDistance::runNative(const double *Args) {
  const vm::CompiledFunction &VF = *JF.VF;
  // Reset + seed + stage in one memcpy: resetGlobals() is
  // deterministic, so the cached image is bit-identical to the typed
  // reset/seed/pull sequence the slower tiers perform.
  std::memcpy(RawGlob.data(), ResetRawImage.data(),
              ResetRawImage.size() * sizeof(uint64_t));
  std::memcpy(Frame.data(), FrameImage.data(),
              FrameImage.size() * sizeof(Reg));
  for (unsigned K = 0; K < VF.NumArgs; ++K)
    Frame[K].D = Args[K];
  RT.Steps = 0;
  RT.Obs = Ctx.observer();
  const uint32_t Out = Entry(&RT, Frame.data());
  // Keep the typed slots current so context() readers (tests, the
  // search's site bookkeeping) observe exactly the post-run state the
  // VM tier would leave.
  pushGlobalsRaw(Ctx, RawGlob);
  Last = finishNative(Out, RT, VF);
}

double JITWeakDistance::operator()(const std::vector<double> &X) {
  assert(X.size() == JF.VF->NumArgs && "input dimension mismatch");
  RoundingScope Rounding(Opts.Rounding);
  runNative(X.data());
  if (Last.Kind == ExecResult::Outcome::StepLimitExceeded)
    return std::numeric_limits<double>::infinity();
  // Normal returns and traps both leave w meaningful (same policy as
  // instr::IRWeakDistance).
  return Ctx.globalSlots()[WIdx].asDouble();
}

//===----------------------------------------------------------------------===//
// JITWeakDistanceFactory
//===----------------------------------------------------------------------===//

JITWeakDistanceFactory::JITWeakDistanceFactory(
    const exec::Engine &E, const ir::Function *F, const ir::GlobalVar *WVar,
    double WInit, const ExecContext &Parent, ExecOptions Opts,
    const vm::Limits &VL, const Limits &JL)
    : F(F), WVar(WVar), WInit(WInit), Parent(Parent), Opts(Opts),
      VMFallback(E, F, WVar, WInit, Parent, Opts, VL),
      JITCompiled(compile(VMFallback.compiled(), JL)) {
  const CompiledFunction *JF = JITCompiled.lookup(F);
  assert(JF && "subject function outside the engine's module");
  if (JF->Ok) {
    Target = JF;
    WIdx = Parent.globalIndexOf(WVar);
  } else {
    Reason = JF->RejectReason;
  }
}

std::unique_ptr<core::WeakDistance> JITWeakDistanceFactory::make() {
  if (!Target)
    return VMFallback.make();
  return std::make_unique<JITWeakDistance>(JITCompiled, *Target, WIdx,
                                           WInit, Parent, Opts);
}

//===----------------------------------------------------------------------===//
// vm::makeWeakDistanceFactory
//
// Defined here (not in VMWeakDistance.cpp) so the EngineKind::JIT case
// can mint jit factories without the vm layer depending on this one.
//===----------------------------------------------------------------------===//

vm::FactoryBundle wdm::vm::makeWeakDistanceFactory(
    EngineKind Requested, const exec::Engine &E, const ir::Function *F,
    const ir::GlobalVar *WVar, double WInit, const ExecContext &Parent,
    ExecOptions Opts, const Limits &L) {
  FactoryBundle B;
  B.Requested = Requested;
  switch (Requested) {
  case EngineKind::Interp: {
    B.Factory = std::make_unique<instr::IRWeakDistanceFactory>(
        E, F, WVar, WInit, Parent, Opts);
    B.Effective = EngineKind::Interp;
    break;
  }
  case EngineKind::VM: {
    auto VF = std::make_unique<VMWeakDistanceFactory>(E, F, WVar, WInit,
                                                      Parent, Opts, L);
    B.Effective = VF->usingVM() ? EngineKind::VM : EngineKind::Interp;
    B.FallbackReason = VF->fallbackReason();
    B.Factory = std::move(VF);
    break;
  }
  case EngineKind::JIT: {
    auto JF = std::make_unique<jit::JITWeakDistanceFactory>(
        E, F, WVar, WInit, Parent, Opts, L);
    if (JF->usingJIT()) {
      B.Effective = EngineKind::JIT;
    } else {
      B.FallbackReason = JF->fallbackReason();
      if (JF->vmFallback().usingVM()) {
        B.Effective = EngineKind::VM;
      } else {
        B.Effective = EngineKind::Interp;
        B.FallbackReason += "; vm: " + JF->vmFallback().fallbackReason();
      }
    }
    B.Factory = std::move(JF);
    break;
  }
  }
  if (obs::enabled()) {
    obs::count(std::string("engine.effective.") +
               engineKindName(B.Effective));
    if (B.Effective != B.Requested)
      obs::count(std::string("engine.fallback.") +
                 engineKindName(B.Requested));
  }
  return B;
}

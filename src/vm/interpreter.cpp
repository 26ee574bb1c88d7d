#include "vm/interpreter.hpp"

#include <cmath>

#include "util/error.hpp"
#include "vm/runtime.hpp"

// Threaded (computed-goto) dispatch on GCC/Clang: each handler jumps
// straight to the next instruction's handler through a label table, so the
// branch predictor sees one indirect branch per *opcode* instead of the
// single shared switch branch.  Elsewhere the same handler bodies compile
// into a plain dispatch-loop switch; the two modes share one source of
// truth via the VM_CASE / VM_NEXT / VM_JUMP macros below.
#if defined(__GNUC__) || defined(__clang__)
#define CLIO_VM_THREADED_DISPATCH 1
#else
#define CLIO_VM_THREADED_DISPATCH 0
#endif

namespace clio::vm {

using util::check;
using util::ExecutionError;

Interpreter::Interpreter(ExecutionEngine& engine, Jit& jit,
                         std::size_t max_call_depth)
    : engine_(engine), jit_(jit), max_call_depth_(max_call_depth) {}

Value Interpreter::invoke(std::uint16_t index, std::span<const Value> args) {
  return run_frame(index, args, 0);
}

Value Interpreter::run_frame(std::uint16_t index, std::span<const Value> args,
                             std::size_t depth) {
  check<ExecutionError>(depth < max_call_depth_,
                        "interpreter: call stack overflow");
  const MethodDef& def = jit_.module().method(index);
  if (args.size() != def.num_args) {
    throw ExecutionError("interpreter: argument count mismatch calling '" +
                         def.name + "'");
  }
  const CompiledMethod& compiled = jit_.get(index);

  std::vector<Value> locals(def.num_locals);
  std::vector<Value> arg_slots(args.begin(), args.end());
  std::vector<Value> stack;
  stack.reserve(compiled.max_stack);

  auto pop = [&]() -> Value {
    Value v = std::move(stack.back());
    stack.pop_back();
    return v;
  };
  auto pop_int = [&]() -> std::int64_t { return pop().as_int(); };
  auto pop_float = [&]() -> double { return pop().as_float(); };

  // The verifier guarantees every reachable path ends in kRet and every
  // branch target is a decoded-instruction index, so dispatch needs no
  // per-instruction bounds check.  Executed-instruction accounting is kept
  // in a local and folded into the member on every exit path (including
  // ExecutionError unwinds) by the guard.
  const DecodedInsn* const code = compiled.code.data();
  std::size_t pc = 0;
  std::uint64_t executed = 0;
  struct CountGuard {
    std::uint64_t& total;
    const std::uint64_t& local;
    ~CountGuard() { total += local; }
  } count_guard{instructions_, executed};

#if CLIO_VM_THREADED_DISPATCH
  static_assert(static_cast<std::size_t>(Op::kOpCount_) == 44,
                "opcode added: update the threaded-dispatch label table");
  static const void* const kLabels[] = {
      &&lbl_kNop,    &&lbl_kLdcI8,   &&lbl_kLdcF64,  &&lbl_kLdStr,
      &&lbl_kLdLoc,  &&lbl_kStLoc,   &&lbl_kLdArg,   &&lbl_kStArg,
      &&lbl_kDup,    &&lbl_kPop,     &&lbl_kAdd,     &&lbl_kSub,
      &&lbl_kMul,    &&lbl_kDiv,     &&lbl_kRem,     &&lbl_kNeg,
      &&lbl_kAnd,    &&lbl_kOr,      &&lbl_kXor,     &&lbl_kShl,
      &&lbl_kShr,    &&lbl_kAddF,    &&lbl_kSubF,    &&lbl_kMulF,
      &&lbl_kDivF,   &&lbl_kNegF,    &&lbl_kConvI2F, &&lbl_kConvF2I,
      &&lbl_kCmpEq,  &&lbl_kCmpNe,   &&lbl_kCmpLt,   &&lbl_kCmpLe,
      &&lbl_kCmpGt,  &&lbl_kCmpGe,   &&lbl_kBr,      &&lbl_kBrTrue,
      &&lbl_kBrFalse, &&lbl_kCall,   &&lbl_kRet,     &&lbl_kNewArr,
      &&lbl_kLdElem, &&lbl_kStElem,  &&lbl_kArrLen,  &&lbl_kSysCall,
  };
#define VM_DISPATCH()                                                   \
  do {                                                                  \
    ++executed;                                                         \
    goto* kLabels[static_cast<std::size_t>(code[pc].op)];               \
  } while (0)
#define VM_CASE(name) lbl_##name:
#else
#define VM_DISPATCH() goto dispatch_loop
#define VM_CASE(name) case Op::name:
#endif
#define VM_NEXT() \
  do {            \
    ++pc;         \
    VM_DISPATCH(); \
  } while (0)
#define VM_JUMP(target)                        \
  do {                                         \
    pc = static_cast<std::size_t>(target);     \
    VM_DISPATCH();                             \
  } while (0)

#if CLIO_VM_THREADED_DISPATCH
  VM_DISPATCH();
#else
dispatch_loop:
  ++executed;
  switch (code[pc].op) {
#endif

  VM_CASE(kNop) { VM_NEXT(); }
  VM_CASE(kLdcI8) {
    stack.push_back(Value::from_int(code[pc].imm));
    VM_NEXT();
  }
  VM_CASE(kLdcF64) {
    stack.push_back(Value::from_float(code[pc].fimm));
    VM_NEXT();
  }
  VM_CASE(kLdStr) {
    // Per-module interning: pushes a shared reference; no allocation here.
    stack.push_back(Value::from_obj(
        jit_.interned_string(static_cast<std::size_t>(code[pc].imm))));
    VM_NEXT();
  }
  VM_CASE(kLdLoc) {
    stack.push_back(locals[static_cast<std::size_t>(code[pc].imm)]);
    VM_NEXT();
  }
  VM_CASE(kStLoc) {
    locals[static_cast<std::size_t>(code[pc].imm)] = pop();
    VM_NEXT();
  }
  VM_CASE(kLdArg) {
    stack.push_back(arg_slots[static_cast<std::size_t>(code[pc].imm)]);
    VM_NEXT();
  }
  VM_CASE(kStArg) {
    arg_slots[static_cast<std::size_t>(code[pc].imm)] = pop();
    VM_NEXT();
  }
  VM_CASE(kDup) {
    stack.push_back(stack.back());
    VM_NEXT();
  }
  VM_CASE(kPop) {
    stack.pop_back();
    VM_NEXT();
  }
  // ---- integer ----
  VM_CASE(kAdd) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a + b));
    VM_NEXT();
  }
  VM_CASE(kSub) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a - b));
    VM_NEXT();
  }
  VM_CASE(kMul) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a * b));
    VM_NEXT();
  }
  VM_CASE(kDiv) {
    const auto b = pop_int();
    const auto a = pop_int();
    check<ExecutionError>(b != 0, "interpreter: division by zero");
    check<ExecutionError>(!(a == INT64_MIN && b == -1),
                          "interpreter: division overflow");
    stack.push_back(Value::from_int(a / b));
    VM_NEXT();
  }
  VM_CASE(kRem) {
    const auto b = pop_int();
    const auto a = pop_int();
    check<ExecutionError>(b != 0, "interpreter: remainder by zero");
    check<ExecutionError>(!(a == INT64_MIN && b == -1),
                          "interpreter: remainder overflow");
    stack.push_back(Value::from_int(a % b));
    VM_NEXT();
  }
  VM_CASE(kNeg) {
    stack.push_back(Value::from_int(-pop_int()));
    VM_NEXT();
  }
  VM_CASE(kAnd) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a & b));
    VM_NEXT();
  }
  VM_CASE(kOr) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a | b));
    VM_NEXT();
  }
  VM_CASE(kXor) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a ^ b));
    VM_NEXT();
  }
  VM_CASE(kShl) {
    const auto b = pop_int();
    const auto a = pop_int();
    check<ExecutionError>(b >= 0 && b < 64, "interpreter: bad shift");
    stack.push_back(Value::from_int(
        static_cast<std::int64_t>(static_cast<std::uint64_t>(a) << b)));
    VM_NEXT();
  }
  VM_CASE(kShr) {
    const auto b = pop_int();
    const auto a = pop_int();
    check<ExecutionError>(b >= 0 && b < 64, "interpreter: bad shift");
    stack.push_back(Value::from_int(
        static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >> b)));
    VM_NEXT();
  }
  // ---- float ----
  VM_CASE(kAddF) {
    const auto b = pop_float();
    const auto a = pop_float();
    stack.push_back(Value::from_float(a + b));
    VM_NEXT();
  }
  VM_CASE(kSubF) {
    const auto b = pop_float();
    const auto a = pop_float();
    stack.push_back(Value::from_float(a - b));
    VM_NEXT();
  }
  VM_CASE(kMulF) {
    const auto b = pop_float();
    const auto a = pop_float();
    stack.push_back(Value::from_float(a * b));
    VM_NEXT();
  }
  VM_CASE(kDivF) {
    const auto b = pop_float();
    const auto a = pop_float();
    stack.push_back(Value::from_float(a / b));
    VM_NEXT();
  }
  VM_CASE(kNegF) {
    stack.push_back(Value::from_float(-pop_float()));
    VM_NEXT();
  }
  VM_CASE(kConvI2F) {
    stack.push_back(Value::from_float(static_cast<double>(pop_int())));
    VM_NEXT();
  }
  VM_CASE(kConvF2I) {
    const double f = pop_float();
    // llround of NaN or anything outside i64 range is undefined behaviour
    // in C++; managed semantics trap instead (ECMA-335 conv.ovf).  The
    // upper bound is exclusive: 2^63 is exactly representable, INT64_MAX
    // is not.
    check<ExecutionError>(std::isfinite(f) && f >= -9223372036854775808.0 &&
                              f < 9223372036854775808.0,
                          "interpreter: float to int conversion overflow");
    stack.push_back(
        Value::from_int(static_cast<std::int64_t>(std::llround(f))));
    VM_NEXT();
  }
  // ---- comparisons ----
  VM_CASE(kCmpEq) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a == b ? 1 : 0));
    VM_NEXT();
  }
  VM_CASE(kCmpNe) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a != b ? 1 : 0));
    VM_NEXT();
  }
  VM_CASE(kCmpLt) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a < b ? 1 : 0));
    VM_NEXT();
  }
  VM_CASE(kCmpLe) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a <= b ? 1 : 0));
    VM_NEXT();
  }
  VM_CASE(kCmpGt) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a > b ? 1 : 0));
    VM_NEXT();
  }
  VM_CASE(kCmpGe) {
    const auto b = pop_int();
    const auto a = pop_int();
    stack.push_back(Value::from_int(a >= b ? 1 : 0));
    VM_NEXT();
  }
  // ---- control ----
  VM_CASE(kBr) { VM_JUMP(code[pc].imm); }
  VM_CASE(kBrTrue) {
    if (pop_int() != 0) VM_JUMP(code[pc].imm);
    VM_NEXT();
  }
  VM_CASE(kBrFalse) {
    if (pop_int() == 0) VM_JUMP(code[pc].imm);
    VM_NEXT();
  }
  VM_CASE(kCall) {
    const auto callee = static_cast<std::uint16_t>(code[pc].imm);
    const auto nargs = jit_.module().method(callee).num_args;
    std::vector<Value> callee_args(nargs);
    for (std::size_t i = nargs; i-- > 0;) callee_args[i] = pop();
    stack.push_back(run_frame(callee, callee_args, depth + 1));
    VM_NEXT();
  }
  VM_CASE(kRet) { return pop(); }
  // ---- arrays & buffers ----
  VM_CASE(kNewArr) {
    const auto len = pop_int();
    check<ExecutionError>(len >= 0 && len <= (1 << 28),
                          "interpreter: bad array length");
    stack.push_back(Value::from_obj(std::make_shared<Obj>(
        std::vector<Value>(static_cast<std::size_t>(len)))));
    VM_NEXT();
  }
  VM_CASE(kLdElem) {
    const auto idx = pop_int();
    const auto obj = pop().as_obj();
    if (obj->is_buffer()) {
      const auto& bytes = obj->bytes();
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < bytes.size(),
          "interpreter: buffer index out of range");
      stack.push_back(Value::from_int(std::to_integer<std::uint8_t>(
          bytes[static_cast<std::size_t>(idx)])));
    } else {
      check<ExecutionError>(obj->is_array(),
                            "interpreter: ldelem needs an array or buffer");
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < obj->arr().size(),
          "interpreter: array index out of range");
      stack.push_back(obj->arr()[static_cast<std::size_t>(idx)]);
    }
    VM_NEXT();
  }
  VM_CASE(kStElem) {
    Value v = pop();
    const auto idx = pop_int();
    const auto obj = pop().as_obj();
    if (obj->is_buffer()) {
      auto& bytes = obj->bytes();
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < bytes.size(),
          "interpreter: buffer index out of range");
      bytes[static_cast<std::size_t>(idx)] =
          static_cast<std::byte>(v.as_int() & 0xff);
    } else {
      check<ExecutionError>(obj->is_array(),
                            "interpreter: stelem needs an array or buffer");
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < obj->arr().size(),
          "interpreter: array index out of range");
      obj->arr()[static_cast<std::size_t>(idx)] = std::move(v);
    }
    VM_NEXT();
  }
  VM_CASE(kArrLen) {
    const auto obj = pop().as_obj();
    const std::size_t len = obj->is_string()   ? obj->str().size()
                            : obj->is_buffer() ? obj->bytes().size()
                                               : obj->arr().size();
    stack.push_back(Value::from_int(static_cast<std::int64_t>(len)));
    VM_NEXT();
  }
  // ---- services ----
  VM_CASE(kSysCall) {
    const auto id = static_cast<SysCall>(code[pc].imm);
    const int arity = syscall_arity(id);
    std::vector<Value> sys_args(static_cast<std::size_t>(arity));
    for (std::size_t i = sys_args.size(); i-- > 0;) sys_args[i] = pop();
    stack.push_back(engine_.dispatch_syscall(id, sys_args));
    VM_NEXT();
  }

#if !CLIO_VM_THREADED_DISPATCH
    case Op::kOpCount_:
      break;
  }
  throw ExecutionError("interpreter: invalid opcode");
#endif

#undef VM_JUMP
#undef VM_NEXT
#undef VM_CASE
#undef VM_DISPATCH
}

}  // namespace clio::vm

#include "vm/interpreter.hpp"

#include <algorithm>
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

  // One flat frame: args, then locals, then the operand stack, sized by the
  // verifier's max_stack so a push needs no capacity check.  `sp` points
  // one past the top operand.  Invariant: a slot at or above `sp` holds no
  // object reference, so every pop of a possible object resets its slot.
  // Handlers keep no owning local across VM_NEXT(): a computed goto leaves
  // the handler's scope without running destructors.
  std::vector<Value> frame(def.num_args + def.num_locals + compiled.max_stack);
  std::copy(args.begin(), args.end(), frame.begin());
  Value* const arg_slots = frame.data();
  Value* const locals = arg_slots + def.num_args;
  Value* sp = locals + def.num_locals;

  // The verifier guarantees every reachable path ends in kRet and every
  // branch target is a decoded-instruction index, so dispatch needs no
  // per-instruction bounds check.  Executed-instruction accounting is kept
  // in a local and folded into the member on every exit path (including
  // ExecutionError unwinds) by the guard.
  const DecodedInsn* const code = compiled.code.data();
  const DecodedInsn* ip = code;
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
#define VM_DISPATCH()                                \
  do {                                               \
    ++executed;                                      \
    goto* kLabels[static_cast<std::size_t>(ip->op)]; \
  } while (0)
#define VM_CASE(name) lbl_##name:
#else
#define VM_DISPATCH() goto dispatch_loop
#define VM_CASE(name) case Op::name:
#endif
#define VM_NEXT()  \
  do {             \
    ++ip;          \
    VM_DISPATCH(); \
  } while (0)
#define VM_JUMP(target)                             \
  do {                                              \
    ip = code + static_cast<std::size_t>(target);   \
    VM_DISPATCH();                                  \
  } while (0)
// Binary ops pop b, then a, and leave the result in a's slot.
#define VM_INT_BINOP(expr)                   \
  do {                                       \
    const std::int64_t b = sp[-1].as_int();  \
    const std::int64_t a = sp[-2].as_int();  \
    --sp;                                    \
    sp[-1].set_int(expr);                    \
    VM_NEXT();                               \
  } while (0)
#define VM_FLOAT_BINOP(expr)                 \
  do {                                       \
    const double b = sp[-1].as_float();      \
    const double a = sp[-2].as_float();      \
    --sp;                                    \
    sp[-1].set_float(expr);                  \
    VM_NEXT();                               \
  } while (0)

#if CLIO_VM_THREADED_DISPATCH
  VM_DISPATCH();
#else
dispatch_loop:
  ++executed;
  switch (ip->op) {
#endif

  VM_CASE(kNop) { VM_NEXT(); }
  VM_CASE(kLdcI8) {
    (sp++)->set_int(ip->imm);
    VM_NEXT();
  }
  VM_CASE(kLdcF64) {
    (sp++)->set_float(ip->fimm);
    VM_NEXT();
  }
  VM_CASE(kLdStr) {
    // Per-module interning: pushes a shared reference; no allocation here.
    *sp++ = Value::from_obj(
        jit_.interned_string(static_cast<std::size_t>(ip->imm)));
    VM_NEXT();
  }
  VM_CASE(kLdLoc) {
    *sp++ = locals[ip->imm];
    VM_NEXT();
  }
  VM_CASE(kStLoc) {
    locals[ip->imm] = std::move(*--sp);
    VM_NEXT();
  }
  VM_CASE(kLdArg) {
    *sp++ = arg_slots[ip->imm];
    VM_NEXT();
  }
  VM_CASE(kStArg) {
    arg_slots[ip->imm] = std::move(*--sp);
    VM_NEXT();
  }
  VM_CASE(kDup) {
    *sp = sp[-1];
    ++sp;
    VM_NEXT();
  }
  VM_CASE(kPop) {
    *--sp = Value();
    VM_NEXT();
  }
  // ---- integer ----
  VM_CASE(kAdd) { VM_INT_BINOP(a + b); }
  VM_CASE(kSub) { VM_INT_BINOP(a - b); }
  VM_CASE(kMul) { VM_INT_BINOP(a * b); }
  VM_CASE(kDiv) {
    const std::int64_t b = sp[-1].as_int();
    const std::int64_t a = sp[-2].as_int();
    check<ExecutionError>(b != 0, "interpreter: division by zero");
    check<ExecutionError>(!(a == INT64_MIN && b == -1),
                          "interpreter: division overflow");
    --sp;
    sp[-1].set_int(a / b);
    VM_NEXT();
  }
  VM_CASE(kRem) {
    const std::int64_t b = sp[-1].as_int();
    const std::int64_t a = sp[-2].as_int();
    check<ExecutionError>(b != 0, "interpreter: remainder by zero");
    check<ExecutionError>(!(a == INT64_MIN && b == -1),
                          "interpreter: remainder overflow");
    --sp;
    sp[-1].set_int(a % b);
    VM_NEXT();
  }
  VM_CASE(kNeg) {
    sp[-1].set_int(-sp[-1].as_int());
    VM_NEXT();
  }
  VM_CASE(kAnd) { VM_INT_BINOP(a & b); }
  VM_CASE(kOr) { VM_INT_BINOP(a | b); }
  VM_CASE(kXor) { VM_INT_BINOP(a ^ b); }
  VM_CASE(kShl) {
    const std::int64_t b = sp[-1].as_int();
    const std::int64_t a = sp[-2].as_int();
    check<ExecutionError>(b >= 0 && b < 64, "interpreter: bad shift");
    --sp;
    sp[-1].set_int(
        static_cast<std::int64_t>(static_cast<std::uint64_t>(a) << b));
    VM_NEXT();
  }
  VM_CASE(kShr) {
    const std::int64_t b = sp[-1].as_int();
    const std::int64_t a = sp[-2].as_int();
    check<ExecutionError>(b >= 0 && b < 64, "interpreter: bad shift");
    --sp;
    sp[-1].set_int(
        static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >> b));
    VM_NEXT();
  }
  // ---- float ----
  VM_CASE(kAddF) { VM_FLOAT_BINOP(a + b); }
  VM_CASE(kSubF) { VM_FLOAT_BINOP(a - b); }
  VM_CASE(kMulF) { VM_FLOAT_BINOP(a * b); }
  VM_CASE(kDivF) { VM_FLOAT_BINOP(a / b); }
  VM_CASE(kNegF) {
    sp[-1].set_float(-sp[-1].as_float());
    VM_NEXT();
  }
  VM_CASE(kConvI2F) {
    sp[-1].set_float(static_cast<double>(sp[-1].as_int()));
    VM_NEXT();
  }
  VM_CASE(kConvF2I) {
    const double f = sp[-1].as_float();
    // llround of NaN or anything outside i64 range is undefined behaviour
    // in C++; managed semantics trap instead (ECMA-335 conv.ovf).  The
    // upper bound is exclusive: 2^63 is exactly representable, INT64_MAX
    // is not.
    check<ExecutionError>(std::isfinite(f) && f >= -9223372036854775808.0 &&
                              f < 9223372036854775808.0,
                          "interpreter: float to int conversion overflow");
    sp[-1].set_int(static_cast<std::int64_t>(std::llround(f)));
    VM_NEXT();
  }
  // ---- comparisons ----
  VM_CASE(kCmpEq) { VM_INT_BINOP(a == b ? 1 : 0); }
  VM_CASE(kCmpNe) { VM_INT_BINOP(a != b ? 1 : 0); }
  VM_CASE(kCmpLt) { VM_INT_BINOP(a < b ? 1 : 0); }
  VM_CASE(kCmpLe) { VM_INT_BINOP(a <= b ? 1 : 0); }
  VM_CASE(kCmpGt) { VM_INT_BINOP(a > b ? 1 : 0); }
  VM_CASE(kCmpGe) { VM_INT_BINOP(a >= b ? 1 : 0); }
  // ---- control ----
  VM_CASE(kBr) { VM_JUMP(ip->imm); }
  VM_CASE(kBrTrue) {
    if ((--sp)->as_int() != 0) VM_JUMP(ip->imm);
    VM_NEXT();
  }
  VM_CASE(kBrFalse) {
    if ((--sp)->as_int() == 0) VM_JUMP(ip->imm);
    VM_NEXT();
  }
  VM_CASE(kCall) {
    // The callee copies its arguments out of the top `nargs` slots; the
    // result lands in the lowest of them and the rest are released.
    const auto callee = static_cast<std::uint16_t>(ip->imm);
    const std::size_t nargs = jit_.module().method(callee).num_args;
    Value* const base = sp - nargs;
    *base = run_frame(callee, std::span<const Value>(base, nargs), depth + 1);
    while (sp > base + 1) *--sp = Value();
    sp = base + 1;
    VM_NEXT();
  }
  VM_CASE(kRet) { return std::move(sp[-1]); }
  // ---- arrays & buffers ----
  VM_CASE(kNewArr) {
    const auto len = sp[-1].as_int();
    check<ExecutionError>(len >= 0 && len <= (1 << 28),
                          "interpreter: bad array length");
    sp[-1] = Value::from_obj(std::make_shared<Obj>(
        std::vector<Value>(static_cast<std::size_t>(len))));
    VM_NEXT();
  }
  VM_CASE(kLdElem) {
    // The object is borrowed from its stack slot; storing the element
    // into that slot is what releases it.
    const auto idx = sp[-1].as_int();
    const Obj& obj = *sp[-2].as_obj();
    if (obj.is_buffer()) {
      const auto& bytes = obj.bytes();
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < bytes.size(),
          "interpreter: buffer index out of range");
      --sp;
      sp[-1] = Value::from_int(std::to_integer<std::uint8_t>(
          bytes[static_cast<std::size_t>(idx)]));
    } else {
      check<ExecutionError>(obj.is_array(),
                            "interpreter: ldelem needs an array or buffer");
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < obj.arr().size(),
          "interpreter: array index out of range");
      --sp;
      // Copy the element out before the assignment can drop the array.
      sp[-1] = Value(obj.arr()[static_cast<std::size_t>(idx)]);
    }
    VM_NEXT();
  }
  VM_CASE(kStElem) {
    const auto idx = sp[-2].as_int();
    Obj& obj = *sp[-3].as_obj();
    if (obj.is_buffer()) {
      auto& bytes = obj.bytes();
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < bytes.size(),
          "interpreter: buffer index out of range");
      bytes[static_cast<std::size_t>(idx)] =
          static_cast<std::byte>(sp[-1].as_int() & 0xff);
    } else {
      check<ExecutionError>(obj.is_array(),
                            "interpreter: stelem needs an array or buffer");
      check<ExecutionError>(
          idx >= 0 && static_cast<std::size_t>(idx) < obj.arr().size(),
          "interpreter: array index out of range");
      obj.arr()[static_cast<std::size_t>(idx)] = std::move(sp[-1]);
    }
    sp -= 3;
    *sp = Value();
    VM_NEXT();
  }
  VM_CASE(kArrLen) {
    const Obj& obj = *sp[-1].as_obj();
    const std::size_t len = obj.is_string()   ? obj.str().size()
                            : obj.is_buffer() ? obj.bytes().size()
                                              : obj.arr().size();
    sp[-1] = Value::from_int(static_cast<std::int64_t>(len));
    VM_NEXT();
  }
  // ---- services ----
  VM_CASE(kSysCall) {
    // Arguments are the top `arity` slots, passed in place; the result
    // lands in the lowest of them and the rest are released.
    const auto id = static_cast<SysCall>(ip->imm);
    const auto arity = static_cast<std::size_t>(syscall_arity(id));
    Value* const base = sp - arity;
    *base = engine_.dispatch_syscall(id, std::span<const Value>(base, arity));
    while (sp > base + 1) *--sp = Value();
    sp = base + 1;
    VM_NEXT();
  }

#if !CLIO_VM_THREADED_DISPATCH
    case Op::kOpCount_:
      break;
  }
  throw ExecutionError("interpreter: invalid opcode");
#endif

#undef VM_FLOAT_BINOP
#undef VM_INT_BINOP
#undef VM_JUMP
#undef VM_NEXT
#undef VM_CASE
#undef VM_DISPATCH
}

}  // namespace clio::vm

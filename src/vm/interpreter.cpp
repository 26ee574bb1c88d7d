#include "vm/interpreter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "util/error.hpp"
#include "vm/runtime.hpp"

// Threaded (computed-goto) dispatch: each handler jumps straight to the
// next instruction's handler through a label table, so the branch
// predictor sees one indirect branch per handler instead of one shared
// switch branch.  Computed goto is a GNU extension; the build only supports
// GCC and Clang (CMakeLists.txt passes GNU-style warning flags to every
// compiler), so there is no portable fallback to keep in step.
#if !defined(__GNUC__)
#error "the VM interpreter needs computed goto (GCC or Clang)"
#endif

namespace clio::vm {

using util::check;
using util::ExecutionError;

namespace {

constexpr std::uint64_t bits(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}
constexpr std::int64_t wrap(std::uint64_t v) {
  return static_cast<std::int64_t>(v);
}

/// Integer binary op `kOp` (one of CLIO_VM_FUSED_BINOPS), shared by its
/// base handler and every superinstruction that carries it.  add, sub and
/// mul wrap modulo 2^64 as ECMA-335 says (signed overflow is undefined in
/// C++, so they compute in uint64_t); shifts trap outside [0, 64).
template <Op kOp>
std::int64_t int_binop(std::int64_t a, std::int64_t b) {
  if constexpr (kOp == Op::kAdd) {
    return wrap(bits(a) + bits(b));
  } else if constexpr (kOp == Op::kSub) {
    return wrap(bits(a) - bits(b));
  } else if constexpr (kOp == Op::kMul) {
    return wrap(bits(a) * bits(b));
  } else if constexpr (kOp == Op::kAnd) {
    return a & b;
  } else if constexpr (kOp == Op::kOr) {
    return a | b;
  } else if constexpr (kOp == Op::kXor) {
    return a ^ b;
  } else {
    static_assert(kOp == Op::kShl || kOp == Op::kShr);
    check<ExecutionError>(b >= 0 && b < 64, "interpreter: bad shift");
    return kOp == Op::kShl ? wrap(bits(a) << b) : wrap(bits(a) >> b);
  }
}

/// Comparison `kCmp` (kCmpEq ... kCmpGe), shared like int_binop.
template <Op kCmp>
bool int_relation(std::int64_t a, std::int64_t b) {
  if constexpr (kCmp == Op::kCmpEq) {
    return a == b;
  } else if constexpr (kCmp == Op::kCmpNe) {
    return a != b;
  } else if constexpr (kCmp == Op::kCmpLt) {
    return a < b;
  } else if constexpr (kCmp == Op::kCmpLe) {
    return a <= b;
  } else if constexpr (kCmp == Op::kCmpGt) {
    return a > b;
  } else {
    static_assert(kCmp == Op::kCmpGe);
    return a >= b;
  }
}

/// Byte `idx` of a buffer, and element `idx` of an array: ldelem's
/// bounds checks on both tiers.
[[gnu::always_inline]] inline std::int64_t byte_at(
    const std::vector<std::byte>& bytes, std::int64_t idx) {
  const auto at = static_cast<std::size_t>(idx);
  check<ExecutionError>(idx >= 0 && at < bytes.size(),
                        "interpreter: buffer index out of range");
  return std::to_integer<std::uint8_t>(bytes[at]);
}
[[gnu::always_inline]] inline const Value& array_at(
    const std::vector<Value>& arr, std::int64_t idx) {
  const auto at = static_cast<std::size_t>(idx);
  check<ExecutionError>(idx >= 0 && at < arr.size(),
                        "interpreter: array index out of range");
  return arr[at];
}

/// The plain ldelem's body: element `idx` of the array or buffer
/// `container` holds.  The caller has checked the index's kind; this
/// checks the container's kind, then the bounds.
[[gnu::always_inline]] inline Value element(const Value& container,
                                            std::int64_t idx) {
  const Obj& obj = *container.as_obj();
  if (const auto* bytes = obj.bytes_if()) {
    return Value::from_int(byte_at(*bytes, idx));
  }
  const auto* arr = obj.arr_if();
  check<ExecutionError>(arr != nullptr,
                        "interpreter: ldelem needs an array or buffer");
  return array_at(*arr, idx);
}

}  // namespace

Interpreter::Interpreter(ExecutionEngine& engine, Jit& jit)
    : engine_(engine), jit_(jit) {}

Value Interpreter::invoke(std::uint16_t index, std::span<const Value> args) {
  return run_frame(index, args, 0);
}

Value Interpreter::run_frame(std::uint16_t index, std::span<const Value> args,
                             std::size_t depth) {
  check<ExecutionError>(depth < kMaxCallDepth,
                        "interpreter: call stack overflow");
  const MethodDef& def = jit_.module().method(index);
  if (args.size() != def.num_args) {
    throw ExecutionError("interpreter: argument count mismatch calling '" +
                         def.name + "'");
  }
  const CompiledMethod& compiled = jit_.get(index, args);

  // One flat frame: args, then locals, then the operand stack, sized by the
  // verifier's max_stack so a push needs no capacity check.  `sp` points
  // one past the top operand.  Invariant: a slot at or above `sp` holds no
  // object reference, so every pop of a possible object resets its slot.
  // Handlers keep no owning local across VM_NEXT(): a computed goto leaves
  // the handler's scope without running destructors.
  std::vector<Value> frame(def.num_args + def.num_locals + compiled.max_stack);
  std::copy(args.begin(), args.end(), frame.begin());
  Value* const slots = frame.data();  // args, then locals
  Value* const locals = slots + def.num_args;
  Value* sp = locals + def.num_locals;

  // The verifier guarantees every reachable path ends in kRet and every
  // branch target is a decoded-instruction index, so dispatch needs no
  // per-instruction bounds check.  Each dispatch counts one; a
  // superinstruction standing for n source instructions adds the other
  // n - 1 to `fused_extra`: those before a checking instruction before
  // its check can trap, the rest after it, so a trap leaves the count the
  // plain decode would.  Both are kept in locals and folded into the
  // members on every exit path (including ExecutionError unwinds).
  const DecodedInsn* const code = compiled.code.data();
  const DecodedInsn* ip = code;
  std::uint64_t dispatched = 0;
  std::uint64_t fused_extra = 0;
  struct CountGuard {
    Interpreter& self;
    const std::uint64_t& dispatched;
    const std::uint64_t& fused_extra;
    ~CountGuard() {
      self.dispatches_ += dispatched;
      self.instructions_ += dispatched + fused_extra;
    }
  } count_guard{*this, dispatched, fused_extra};

  // The try block holds every handler (a computed goto may not jump into
  // it from outside); its catch finishes the count of a trapping frame.
  try {
  // Indexed by Op: the bytecode opcodes in enum order, then the
  // superinstructions in the order opcodes.hpp declares them.
#define VM_RELATION_LABELS(rel) \
  &&lbl_kBr##rel##SS, &&lbl_kBr##rel##TS, &&lbl_kBr##rel##ElemSIS,
#define VM_BINOP_LABELS(op) &&lbl_k##op##SI, &&lbl_k##op##TS, &&lbl_k##op##TI,
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
      // superinstructions
      &&lbl_kBrTrueS, &&lbl_kBrFalseS, &&lbl_kBrTrueAndSS,
      &&lbl_kBrFalseAndSS, &&lbl_kIncS, &&lbl_kIncSBr, &&lbl_kStSI,
      &&lbl_kLdElemS, &&lbl_kLdElemSS, &&lbl_kLdElemSIS,
      CLIO_VM_FUSED_RELATIONS(VM_RELATION_LABELS)
      CLIO_VM_FUSED_BINOPS(VM_BINOP_LABELS)
  };
#undef VM_BINOP_LABELS
#undef VM_RELATION_LABELS
  static_assert(std::size(kLabels) ==
                    static_cast<std::size_t>(Op::kHandlerCount_),
                "opcode or superinstruction added: update the label table");

#define VM_CASE(name) lbl_##name:
#define VM_DISPATCH()                                \
  do {                                               \
    ++dispatched;                                    \
    goto* kLabels[static_cast<std::size_t>(ip->op)]; \
  } while (0)
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

  VM_DISPATCH();

  VM_CASE(kNop) { VM_NEXT(); }
  VM_CASE(kLdcI8) {
    (sp++)->set_int(ip->imm);
    VM_NEXT();
  }
  VM_CASE(kLdcF64) {
    (sp++)->set_float(std::bit_cast<double>(ip->imm));
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
    *sp++ = slots[ip->imm];
    VM_NEXT();
  }
  VM_CASE(kStArg) {
    slots[ip->imm] = std::move(*--sp);
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
#define VM_BINOP_HANDLER(op) \
  VM_CASE(k##op) { VM_INT_BINOP(int_binop<Op::k##op>(a, b)); }
  CLIO_VM_FUSED_BINOPS(VM_BINOP_HANDLER)
#undef VM_BINOP_HANDLER
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
    sp[-1].set_int(wrap(std::uint64_t{0} - bits(sp[-1].as_int())));
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
#define VM_RELATION_HANDLER(rel) \
  VM_CASE(kCmp##rel) { VM_INT_BINOP(int_relation<Op::kCmp##rel>(a, b)); }
  CLIO_VM_FUSED_RELATIONS(VM_RELATION_HANDLER)
#undef VM_RELATION_HANDLER
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
    // The popped index slot held an int (as_int proved it), so it needs
    // no reset.  The element is copied out before the assignment can drop
    // the container.
    const std::int64_t idx = sp[-1].as_int();
    sp[-2] = element(sp[-2], idx);
    --sp;
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

  // ---- superinstructions (fused tier, vm/jit.cpp) ----
  // The fuser forms one only where the kind pass proved every slot and
  // stack operand it reads an int and every container it borrows a buffer
  // (kLdElemS: a buffer or an array), so each reads payloads without a
  // kind check and writes a proven int's payload without its kind byte.
  // What stays checked is what a proof cannot show: bounds and shift
  // counts, with the plain handlers' texts.  Each comment gives the source
  // run and its remaining checks, with "(k of n)": k of the run's n
  // instructions come before that check, and are counted before it runs.
  // `slots` indexes args and locals alike.
#define VM_INT(slot) slots[slot].proven_int()
  VM_CASE(kBrTrueS) {  // ldS a; brtrue t
    ++fused_extra;
    if (VM_INT(ip->slot) != 0) VM_JUMP(ip->target);
    VM_NEXT();
  }
  VM_CASE(kBrFalseS) {  // ldS a; brfalse t
    ++fused_extra;
    if (VM_INT(ip->slot) == 0) VM_JUMP(ip->target);
    VM_NEXT();
  }
  VM_CASE(kBrTrueAndSS) {  // ldS a; ldS b; and; brtrue t
    fused_extra += 3;
    if ((VM_INT(ip->slot) & VM_INT(ip->slot2)) != 0) VM_JUMP(ip->target);
    VM_NEXT();
  }
  VM_CASE(kBrFalseAndSS) {  // ldS a; ldS b; and; brfalse t
    fused_extra += 3;
    if ((VM_INT(ip->slot) & VM_INT(ip->slot2)) == 0) VM_JUMP(ip->target);
    VM_NEXT();
  }
  VM_CASE(kIncS) {  // ldS a; ldc i; add; stS a
    fused_extra += 3;
    Value& v = slots[ip->slot];
    v.set_proven_int(int_binop<Op::kAdd>(v.proven_int(), ip->imm));
    VM_NEXT();
  }
  VM_CASE(kIncSBr) {  // ldS a; ldc i; add; stS a; br t
    fused_extra += 4;
    Value& v = slots[ip->slot];
    v.set_proven_int(int_binop<Op::kAdd>(v.proven_int(), ip->imm));
    VM_JUMP(ip->target);
  }
  VM_CASE(kStSI) {  // ldc i; stS a -- the slot may hold an object
    ++fused_extra;
    slots[ip->slot] = Value::from_int(ip->imm);
    VM_NEXT();
  }
  // The borrowed element loads read the container in its slot, which the
  // borrow rule (vm/jit.cpp) guarantees still holds it: no reference
  // count moves.  Each counts its elided load before its bounds check; a
  // trap between that load and here is counted when the frame unwinds.
  // The container's variant is still read through its checked access, so
  // a wrong proof that hands it another kind of object throws instead of
  // reading out of bounds.
  VM_CASE(kLdElemS) {  // ldS c (elided) ... ldelem -- bounds
    ++fused_extra;
    const std::int64_t idx = sp[-1].proven_int();
    const Obj& obj = slots[ip->slot].proven_obj();
    if (const auto* bytes = obj.bytes_if()) {
      sp[-1].set_proven_int(byte_at(*bytes, idx));
    } else {
      sp[-1] = array_at(obj.arr(), idx);
    }
    VM_NEXT();
  }
  VM_CASE(kLdElemSS) {  // ldS c; ldS i; ldelem -- bounds (2 of 3)
    fused_extra += 2;
    const std::int64_t e =
        byte_at(slots[ip->slot].proven_obj().bytes(), VM_INT(ip->slot2));
    (sp++)->set_int(e);
    VM_NEXT();
  }
  VM_CASE(kLdElemSIS) {  // ldS c; ldS a; ldc i; add; ldS b; add; ldelem
    // -- bounds (6 of 7)
    fused_extra += 6;
    const std::int64_t e = byte_at(
        slots[ip->slot].proven_obj().bytes(),
        int_binop<Op::kAdd>(int_binop<Op::kAdd>(VM_INT(ip->slot2), ip->imm),
                            VM_INT(ip->slot3)));
    (sp++)->set_int(e);
    VM_NEXT();
  }
#define VM_RELATION_FUSED_HANDLERS(rel)                                  \
  VM_CASE(kBr##rel##SS) { /* ldS a; ldS b; cmp; br* */                  \
    fused_extra += 3;                                                    \
    if (int_relation<Op::kCmp##rel>(VM_INT(ip->slot), VM_INT(ip->slot2))) \
      VM_JUMP(ip->target);                                               \
    VM_NEXT();                                                           \
  }                                                                      \
  VM_CASE(kBr##rel##TS) { /* ldS b; cmp; br* */                         \
    fused_extra += 2;                                                    \
    const std::int64_t a = (--sp)->proven_int();                         \
    if (int_relation<Op::kCmp##rel>(a, VM_INT(ip->slot)))                \
      VM_JUMP(ip->target);                                               \
    VM_NEXT();                                                           \
  }                                                                      \
  VM_CASE(kBr##rel##ElemSIS) { /* kLdElemSIS's run; ldS d; cmp; br*   \
                                  -- bounds (6 of 10) */                 \
    fused_extra += 6;                                                    \
    const std::int64_t e = byte_at(                                      \
        slots[ip->slot].proven_obj().bytes(),                            \
        int_binop<Op::kAdd>(                                             \
            int_binop<Op::kAdd>(VM_INT(ip->slot2), ip->imm),             \
            VM_INT(ip->slot3)));                                         \
    fused_extra += 3;                                                    \
    if (int_relation<Op::kCmp##rel>(e, VM_INT(ip->slot4)))               \
      VM_JUMP(ip->target);                                               \
    VM_NEXT();                                                           \
  }
  CLIO_VM_FUSED_RELATIONS(VM_RELATION_FUSED_HANDLERS)
#undef VM_RELATION_FUSED_HANDLERS
#define VM_BINOP_FUSED_HANDLERS(op)                                      \
  VM_CASE(k##op##SI) { /* ldS a; ldc i; op -- shift count (2 of 3) */   \
    fused_extra += 2;                                                    \
    const std::int64_t r = int_binop<Op::k##op>(VM_INT(ip->slot), ip->imm); \
    (sp++)->set_int(r);                                                  \
    VM_NEXT();                                                           \
  }                                                                      \
  VM_CASE(k##op##TS) { /* ldS b; op -- shift count (1 of 2) */          \
    ++fused_extra;                                                       \
    sp[-1].set_proven_int(                                               \
        int_binop<Op::k##op>(sp[-1].proven_int(), VM_INT(ip->slot)));    \
    VM_NEXT();                                                           \
  }                                                                      \
  VM_CASE(k##op##TI) { /* ldc i; op -- shift count (1 of 2) */          \
    ++fused_extra;                                                       \
    sp[-1].set_proven_int(                                               \
        int_binop<Op::k##op>(sp[-1].proven_int(), ip->imm));             \
    VM_NEXT();                                                           \
  }
  CLIO_VM_FUSED_BINOPS(VM_BINOP_FUSED_HANDLERS)
#undef VM_BINOP_FUSED_HANDLERS
#undef VM_INT
  } catch (...) {
    // A trap between an elided container load and its ldelem: the plain
    // decode had counted that load.
    if (!compiled.uncounted_loads.empty()) {
      fused_extra +=
          compiled.uncounted_loads[static_cast<std::size_t>(ip - code)];
    }
    throw;
  }

#undef VM_FLOAT_BINOP
#undef VM_INT_BINOP
#undef VM_JUMP
#undef VM_NEXT
#undef VM_DISPATCH
#undef VM_CASE
}

}  // namespace clio::vm

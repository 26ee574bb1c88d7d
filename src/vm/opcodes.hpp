#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace clio::vm {

/// The integer binary ops a superinstruction can carry (each names an Op:
/// kAdd, kSub, ...), and the relations a fused compare-and-branch can test
/// (each names a comparison: kCmpEq, ...).  The fused tier emits, and the
/// interpreter handles, one superinstruction per entry and operand shape.
#define CLIO_VM_FUSED_BINOPS(X) \
  X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Shl) X(Shr)
#define CLIO_VM_FUSED_RELATIONS(X) X(Eq) X(Ne) X(Lt) X(Le) X(Gt) X(Ge)

/// Instruction set of the mini-CLI: a stack-based intermediate language in
/// the spirit of ECMA-335 CIL, reduced to what I/O-intensive benchmark
/// kernels need (integer/float arithmetic, locals, arrays, branches, calls
/// and syscalls into the managed I/O subsystem).
enum class Op : std::uint8_t {
  kNop = 0,
  // Constants & data movement.
  kLdcI8,   ///< push i64 immediate (8-byte operand)
  kLdcF64,  ///< push f64 immediate (8-byte operand)
  kLdStr,   ///< push string object (u16 string-pool index)
  kLdLoc,   ///< push local (u16 index)
  kStLoc,   ///< pop into local (u16 index)
  kLdArg,   ///< push argument (u16 index)
  kStArg,   ///< pop into argument (u16 index)
  kDup,     ///< duplicate top of stack
  kPop,     ///< discard top of stack
  // Integer arithmetic (i64).
  kAdd,
  kSub,
  kMul,
  kDiv,  ///< traps on divide by zero
  kRem,
  kNeg,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  // Float arithmetic (f64).
  kAddF,
  kSubF,
  kMulF,
  kDivF,
  kNegF,
  kConvI2F,
  kConvF2I,
  // Comparisons (pop 2 ints, push 0/1).
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  // Control flow (u32 absolute byte offset operand).
  kBr,
  kBrTrue,   ///< pop; branch if != 0
  kBrFalse,  ///< pop; branch if == 0
  kCall,     ///< u16 method index; pops callee's args, pushes 1 result
  kRet,      ///< pop 1, return it
  // Arrays (reference objects).
  kNewArr,  ///< pop length, push new zeroed array
  kLdElem,  ///< pop index, pop array, push element
  kStElem,  ///< pop value, pop index, pop array
  kArrLen,  ///< pop array, push length
  // Runtime services (u16 syscall id) — see corelib.hpp.
  kSysCall,

  kOpCount_,  ///< number of bytecode opcodes

  // ---- Superinstructions ----
  // Emitted only by the fused tier (vm/jit.cpp), never encoded in bytecode:
  // decode_stream() rejects any byte >= kOpCount_.  In the names, S is a
  // frame slot (an argument or a local: both live in one flat frame), I an
  // immediate and T the top of the operand stack.  The comment gives the
  // source run each one replaces; docs/VM.md has the full table.
  kBrTrueS = kOpCount_,  ///< ldS a; brtrue t
  kBrFalseS,             ///< ldS a; brfalse t
  kBrTrueAndSS,          ///< ldS a; ldS b; and; brtrue t
  kBrFalseAndSS,         ///< ldS a; ldS b; and; brfalse t
  kIncS,                 ///< ldS a; ldc i; add|sub; stS a
  kIncSBr,               ///< ldS a; ldc i; add|sub; stS a; br t
  kStSI,                 ///< ldc i; stS a
  // The borrowed element loads: the container's ldS c is elided and its
  // slot read in place (the borrow rule, vm/jit.cpp).
  kLdElemS,              ///< ldelem of slot c, index on top
  kLdElemSS,             ///< ldS c; ldS i; ldelem
  kLdElemSIS,            ///< ldS c; ldS a; ldc i; add; ldS b; add; ldelem
  // The search loop: a head kBrGeSS j, n, then a body kBr{Eq,Ne}ElemSIS
  // c, a, i, j, x one of whose edges is a latch kIncSBr j, s back to the
  // head.  Only the head is rewritten (vm/jit.cpp).
  kSearchLoop,           ///< runs the head, body and latch to an exit
// ldS a; ldS b; cmp<rel>; br* t  and  ldS b; cmp<rel>; br* t  and
// ldS c; ldS a; ldc i; add; ldS b; add; ldelem; ldS d; cmp<rel>; br* t
// (borrowed, like kLdElemSIS)
#define CLIO_VM_RELATION_OPS(rel) \
  kBr##rel##SS, kBr##rel##TS, kBr##rel##ElemSIS,
  CLIO_VM_FUSED_RELATIONS(CLIO_VM_RELATION_OPS)
#undef CLIO_VM_RELATION_OPS
// ldS a; ldc i; <op>  and  ldS b; <op>  and  ldc i; <op>
#define CLIO_VM_BINOP_OPS(op) k##op##SI, k##op##TS, k##op##TI,
  CLIO_VM_FUSED_BINOPS(CLIO_VM_BINOP_OPS)
#undef CLIO_VM_BINOP_OPS

  kHandlerCount_,  ///< bytecode opcodes plus superinstructions
};

/// How an opcode's inline operand is encoded in the bytecode stream.
enum class OperandKind : std::uint8_t {
  kNone,   ///< no operand
  kImm64,  ///< 8 bytes (i64 or f64 bit pattern)
  kU16,    ///< 2 bytes (index)
  kU32,    ///< 4 bytes (branch target: absolute byte offset)
};

struct OpInfo {
  std::string_view name;
  OperandKind operand;
  /// Values popped from the evaluation stack.  -1 = variable (kCall).
  int pops;
  /// Values pushed.  Always >= 0.
  int pushes;
};

/// Metadata for every bytecode opcode; index with static_cast<size_t>(op).
/// Throws ConfigError for a superinstruction.
[[nodiscard]] const OpInfo& op_info(Op op);

/// Looks up a bytecode opcode by mnemonic; nullopt when unknown.
[[nodiscard]] std::optional<Op> op_by_name(std::string_view name);

/// Size in bytes of one encoded instruction (1 + operand size).
[[nodiscard]] std::size_t encoded_size(Op op);

}  // namespace clio::vm

#include "vm/verifier.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"
#include "vm/corelib.hpp"
#include "vm/decode.hpp"

namespace clio::vm {

namespace {

/// The kind `insn` pushes, from `state` on entry to it (frame slots, then
/// the stack); kUnknown for an instruction that pushes nothing.
VKind pushed_kind(const RawInsn& insn, const std::vector<VKind>& state,
                  std::size_t num_args) {
  const auto top = [&](std::size_t n) { return state[state.size() - 1 - n]; };
  switch (insn.op) {
    // ldc, convf2i and arrlen make ints.  Integer arithmetic and
    // comparisons trap on a non-int operand, so any result they produce is
    // an int.
    case Op::kLdcI8:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kRem:
    case Op::kNeg:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kCmpEq:
    case Op::kCmpNe:
    case Op::kCmpLt:
    case Op::kCmpLe:
    case Op::kCmpGt:
    case Op::kCmpGe:
    case Op::kConvF2I:
    case Op::kArrLen:
      return VKind::kInt;
    case Op::kLdcF64:
    case Op::kAddF:
    case Op::kSubF:
    case Op::kMulF:
    case Op::kDivF:
    case Op::kNegF:
    case Op::kConvI2F:
      return VKind::kFloat;
    case Op::kLdStr:
      return VKind::kString;
    case Op::kNewArr:
      return VKind::kArray;
    case Op::kLdArg:
      return state[insn.operand];
    case Op::kLdLoc:
      return state[num_args + insn.operand];
    case Op::kDup:
      return top(0);
    case Op::kLdElem:
      // A byte of a buffer; an array element may hold anything.
      return top(1) == VKind::kBuffer ? VKind::kInt : VKind::kUnknown;
    case Op::kSysCall: {
      const auto id = static_cast<SysCall>(insn.operand);
      switch (syscall_result(id)) {
        case SysResult::kInt:
          return VKind::kInt;
        case SysResult::kBuffer:
          return VKind::kBuffer;
        case SysResult::kFirstArg:
          return top(static_cast<std::size_t>(syscall_arity(id)) - 1);
      }
      return VKind::kUnknown;
    }
    default:
      return VKind::kUnknown;  // call, and ops that push nothing
  }
}

}  // namespace

VKind kind_of(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kInt:
      return VKind::kInt;
    case Value::Kind::kFloat:
      return VKind::kFloat;
    case Value::Kind::kObj:
      break;
  }
  const Obj* obj = value.obj_if();
  if (obj == nullptr) return VKind::kUnknown;
  if (obj->is_buffer()) return VKind::kBuffer;
  if (obj->is_array()) return VKind::kArray;
  return VKind::kString;
}

Verified verify_kinds(const Module& module, const MethodDef& method,
                      std::span<const VKind> arg_kinds) {
  util::check<util::ConfigError>(arg_kinds.size() == method.num_args,
                                 "verify: one argument kind per argument");
  const auto& code = method.code;
  verify_that(!code.empty(), "verify: empty body in '", method.name, "'");

  // Pass 1: linear decode — instruction boundaries and operands come from
  // the same decode_stream() the JIT compiles from, so the two layers can
  // never disagree on what counts as a branch target.
  const DecodedStream stream = decode_stream(method);
  const auto& insns = stream.insns;

  // Pass 2: operand validity.
  for (const auto& insn : insns) {
    switch (insn.op) {
      case Op::kLdLoc:
      case Op::kStLoc:
        verify_that(insn.operand < method.num_locals,
                    "verify: local index out of range in '", method.name,
                    "'");
        break;
      case Op::kLdArg:
      case Op::kStArg:
        verify_that(insn.operand < method.num_args,
                    "verify: arg index out of range in '", method.name, "'");
        break;
      case Op::kLdStr:
        verify_that(insn.operand < module.num_strings(),
                    "verify: string index out of range in '", method.name,
                    "'");
        break;
      case Op::kCall:
        verify_that(insn.operand < module.num_methods(),
                    "verify: call target out of range in '", method.name,
                    "'");
        break;
      case Op::kSysCall:
        verify_that(insn.operand < static_cast<std::uint64_t>(
                                       SysCall::kSysCallCount_),
                    "verify: unknown syscall in '", method.name, "'");
        break;
      case Op::kBr:
      case Op::kBrTrue:
      case Op::kBrFalse:
        // Throws the typed boundary error when the target is wild.
        (void)branch_target(stream, insn.operand, method);
        break;
      default:
        break;
    }
  }

  // Pass 3: abstract interpretation over all paths: the stack depth, and
  // a kind per frame slot and stack entry (Verified::kinds).
  const std::size_t num_slots =
      static_cast<std::size_t>(method.num_args) + method.num_locals;
  Verified out;
  out.kinds.resize(insns.size());
  std::vector<bool> reached(insns.size(), false);
  std::deque<std::size_t> worklist;
  out.kinds[0].assign(arg_kinds.begin(), arg_kinds.end());
  out.kinds[0].resize(num_slots, VKind::kInt);
  reached[0] = true;
  worklist.push_back(0);
  bool saw_ret = false;

  // Joins `state` into the target's entry kinds: a kind that differs
  // becomes kUnknown, and a target whose kinds changed is walked again.
  // Kinds only ever fall to kUnknown, so the walk ends.
  auto flow_to = [&](std::size_t target, const std::vector<VKind>& state) {
    std::vector<VKind>& entry = out.kinds[target];
    if (!reached[target]) {
      reached[target] = true;
      entry = state;
      worklist.push_back(target);
      return;
    }
    verify_that(entry.size() == state.size(),
                "verify: inconsistent stack depth at offset ",
                insns[target].offset, " in '", method.name, "' (",
                entry.size() - num_slots, " vs ", state.size() - num_slots,
                ")");
    bool changed = false;
    for (std::size_t i = 0; i < entry.size(); ++i) {
      if (entry[i] != state[i] && entry[i] != VKind::kUnknown) {
        entry[i] = VKind::kUnknown;
        changed = true;
      }
    }
    if (changed) worklist.push_back(target);
  };

  std::vector<VKind> state;
  while (!worklist.empty()) {
    const std::size_t idx = worklist.front();
    worklist.pop_front();
    const RawInsn& insn = insns[idx];
    state = out.kinds[idx];
    const auto depth = static_cast<int>(state.size() - num_slots);

    int pops = op_info(insn.op).pops;
    if (insn.op == Op::kCall) {
      pops = module.method(insn.operand).num_args;
    } else if (insn.op == Op::kSysCall) {
      pops = syscall_arity(static_cast<SysCall>(insn.operand));
    }
    verify_that(depth >= pops, "verify: stack underflow at offset ",
                insn.offset, " in '", method.name, "'");
    const VKind pushed = pushed_kind(insn, state, method.num_args);
    if (insn.op == Op::kStArg) {
      state[insn.operand] = state.back();
    } else if (insn.op == Op::kStLoc) {
      state[method.num_args + insn.operand] = state.back();
    }
    state.resize(state.size() - static_cast<std::size_t>(pops));
    state.resize(state.size() + static_cast<std::size_t>(
                                    op_info(insn.op).pushes),
                 pushed);
    out.max_stack = std::max(out.max_stack,
                             static_cast<std::uint32_t>(state.size() -
                                                        num_slots));

    switch (insn.op) {
      case Op::kRet:
        verify_that(state.size() == num_slots,
                    "verify: ret with residual stack in '", method.name, "'");
        saw_ret = true;
        continue;  // no fallthrough
      case Op::kBr:
        flow_to(branch_target(stream, insn.operand, method), state);
        continue;
      case Op::kBrTrue:
      case Op::kBrFalse:
        flow_to(branch_target(stream, insn.operand, method), state);
        break;
      default:
        break;
    }
    // Fallthrough successor.
    verify_that(idx + 1 < insns.size(),
                "verify: execution falls off the end of '", method.name, "'");
    flow_to(idx + 1, state);
  }
  verify_that(saw_ret, "verify: no reachable ret in '", method.name, "'");
  return out;
}

std::uint32_t verify_method(const Module& module, const MethodDef& method) {
  const std::vector<VKind> unknown(method.num_args, VKind::kUnknown);
  return verify_kinds(module, method, unknown).max_stack;
}

void verify_module(Module& module) {
  for (std::size_t m = 0; m < module.num_methods(); ++m) {
    module.method_mutable(m).max_stack =
        verify_method(module, module.method(m));
  }
}

}  // namespace clio::vm

#include "vm/jit.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "vm/decode.hpp"
#include "vm/verifier.hpp"

namespace clio::vm {
namespace {

bool is_branch(Op op) {
  return op == Op::kBr || op == Op::kBrTrue || op == Op::kBrFalse;
}

bool is_cond_branch(Op op) { return op == Op::kBrTrue || op == Op::kBrFalse; }

/// The frame slot an ldarg/ldloc reads: arguments and locals are
/// contiguous in the interpreter's frame, arguments first.
std::optional<std::uint32_t> load_slot(const DecodedInsn& insn,
                                       std::uint32_t num_args) {
  const auto index = static_cast<std::uint32_t>(insn.imm);
  if (insn.op == Op::kLdArg) return index;
  if (insn.op == Op::kLdLoc) return num_args + index;
  return std::nullopt;
}

/// The frame slot a starg/stloc writes.
std::optional<std::uint32_t> store_slot(const DecodedInsn& insn,
                                        std::uint32_t num_args) {
  const auto index = static_cast<std::uint32_t>(insn.imm);
  if (insn.op == Op::kStArg) return index;
  if (insn.op == Op::kStLoc) return num_args + index;
  return std::nullopt;
}

/// The superinstructions that carry integer binary op `op`.
struct BinopForms {
  Op slot_imm;  ///< ldS a; ldc i; op
  Op top_slot;  ///< ldS b; op
  Op top_imm;   ///< ldc i; op
};

std::optional<BinopForms> binop_forms(Op op) {
  switch (op) {
#define CLIO_VM_BINOP_FORMS(name) \
  case Op::k##name:               \
    return BinopForms{Op::k##name##SI, Op::k##name##TS, Op::k##name##TI};
    CLIO_VM_FUSED_BINOPS(CLIO_VM_BINOP_FORMS)
#undef CLIO_VM_BINOP_FORMS
    default:
      return std::nullopt;
  }
}

/// The compare-and-branch superinstructions for `cmp` followed by brtrue
/// (`if_true`) or brfalse.  brfalse branches when the relation fails, so
/// it takes the negated relation.
struct RelationForms {
  Op slot_slot;  ///< ldS a; ldS b; cmp; br*
  Op top_slot;   ///< ldS b; cmp; br*
  Op element;    ///< kLdElemSIS's run; ldS d; cmp; br*
};

std::optional<RelationForms> relation_forms(Op cmp, bool if_true) {
  if (!if_true) {
    switch (cmp) {
      case Op::kCmpEq: cmp = Op::kCmpNe; break;
      case Op::kCmpNe: cmp = Op::kCmpEq; break;
      case Op::kCmpLt: cmp = Op::kCmpGe; break;
      case Op::kCmpLe: cmp = Op::kCmpGt; break;
      case Op::kCmpGt: cmp = Op::kCmpLe; break;
      case Op::kCmpGe: cmp = Op::kCmpLt; break;
      default: return std::nullopt;
    }
  }
  switch (cmp) {
#define CLIO_VM_RELATION_FORMS(rel) \
  case Op::kCmp##rel:               \
    return RelationForms{Op::kBr##rel##SS, Op::kBr##rel##TS, \
                         Op::kBr##rel##ElemSIS};
    CLIO_VM_FUSED_RELATIONS(CLIO_VM_RELATION_FORMS)
#undef CLIO_VM_RELATION_FORMS
    default:
      return std::nullopt;
  }
}

DecodedInsn fused(Op op, std::uint32_t slot, std::int64_t imm = 0) {
  DecodedInsn insn;
  insn.op = op;
  insn.slot = slot;
  insn.imm = imm;
  return insn;
}

/// The kind pass's facts (Verified::kinds) as the fuser asks for them:
/// whether an operand a superinstruction would read is proven, on entry to
/// source instruction k.  Nothing is proven at an unreachable instruction.
class Proof {
 public:
  Proof(const Verified& verified, const MethodDef& method)
      : kinds_(verified.kinds),
        num_slots_(static_cast<std::size_t>(method.num_args) +
                   method.num_locals) {}

  [[nodiscard]] bool slot_is(std::size_t k, std::uint32_t slot,
                             VKind kind) const {
    return !kinds_[k].empty() && kinds_[k][slot] == kind;
  }
  [[nodiscard]] bool slot_int(std::size_t k, std::uint32_t slot) const {
    return slot_is(k, slot, VKind::kInt);
  }
  /// The top stack entry is an int.
  [[nodiscard]] bool top_int(std::size_t k) const {
    const std::vector<VKind>& at = kinds_[k];
    return at.size() > num_slots_ && at.back() == VKind::kInt;
  }
  /// The slot instruction k loads, when it is an ldarg/ldloc of a proven
  /// int.
  [[nodiscard]] std::optional<std::uint32_t> int_load(
      const std::vector<DecodedInsn>& in, std::size_t k,
      std::uint32_t num_args) const {
    const auto slot = load_slot(in[k], num_args);
    if (slot && slot_int(k, *slot)) return slot;
    return std::nullopt;
  }

 private:
  const std::vector<std::vector<VKind>>& kinds_;
  std::size_t num_slots_;
};

/// One superinstruction (or a copied plain instruction) and the number of
/// source instructions it stands for.  `target` of a fused branch holds
/// the source index until fuse() remaps it.
struct Match {
  DecodedInsn insn;
  std::size_t length = 1;
  bool branches = false;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// The borrow rule's analysis: per ldelem, the ldarg/ldloc that pushed its
/// container when that load may be elided, else kNone.  It may when the
/// two are in one straight-line run: no branch target after the load up
/// to and including the ldelem, and no br*, call, syscall, ret or store to
/// the load's slot between them.  The slot then still holds the container
/// when the ldelem runs, and keeps it alive.  The container must be a
/// proven buffer or array and the index a proven int, because the
/// borrowed forms check neither.  One pass that tracks which load pushed
/// each operand of the current run.
std::vector<std::size_t> container_loads(const std::vector<DecodedInsn>& in,
                                         const MethodDef& method,
                                         const std::vector<bool>& is_target,
                                         const Proof& proof) {
  std::vector<std::size_t> container(in.size(), kNone);
  std::vector<std::size_t> pushed_by;  // per operand of the run
  // Per slot: 1 + the position of its latest store, 0 for none.
  std::vector<std::size_t> stored_at(method.num_args + method.num_locals, 0);
  for (std::size_t k = 0; k < in.size(); ++k) {
    const DecodedInsn& insn = in[k];
    if (is_target[k]) pushed_by.clear();
    if (load_slot(insn, method.num_args)) {
      // At most 255 loads of a run are borrowable, so the uncounted_loads
      // table fits a byte.
      pushed_by.push_back(pushed_by.size() < UINT8_MAX ? k : kNone);
      continue;
    }
    const OpInfo& info = op_info(insn.op);
    if (info.pops < 0 || is_branch(insn.op) || insn.op == Op::kRet) {
      pushed_by.clear();
      continue;
    }
    if (insn.op == Op::kLdElem && pushed_by.size() >= 2) {
      const std::size_t load = pushed_by[pushed_by.size() - 2];
      if (load != kNone && proof.top_int(k)) {
        const std::uint32_t slot = *load_slot(in[load], method.num_args);
        if (stored_at[slot] <= load &&
            (proof.slot_is(load, slot, VKind::kBuffer) ||
             proof.slot_is(load, slot, VKind::kArray))) {
          container[k] = load;
        }
      }
    }
    if (const auto slot = store_slot(insn, method.num_args)) {
      stored_at[*slot] = k + 1;
    }
    const auto pops = std::min(static_cast<std::size_t>(info.pops),
                               pushed_by.size());
    pushed_by.resize(pushed_by.size() - pops);
    pushed_by.resize(pushed_by.size() + static_cast<std::size_t>(info.pushes),
                     kNone);
  }
  return container;
}

/// A borrowed ldelem of a proven buffer that also absorbs its index
/// computation, for the index shapes the paper kernels execute: a slot
/// (`ldS c; ldS i; ldelem`) and slot + imm + slot (`ldS c; ldS a; ldc i;
/// add; ldS b; add; ldelem`), the latter with the compare-and-branch that
/// consumes the element (`ldS d; cmp<rel>; br* t`) when one follows.  Every
/// slot the form reads must be a proven int.  For any other case the load
/// is elided alone and its ldelem becomes kLdElemS.
std::optional<Match> borrowed_index(const std::vector<DecodedInsn>& in,
                                    std::size_t load, std::size_t ldelem,
                                    std::uint32_t num_args,
                                    const std::vector<bool>& leader,
                                    const Proof& proof) {
  const std::uint32_t container = *load_slot(in[load], num_args);
  if (!proof.slot_is(load, container, VKind::kBuffer)) return std::nullopt;
  const auto int_slot_at = [&](std::size_t k) {
    return proof.int_load(in, k, num_args);
  };
  if (ldelem == load + 2) {
    if (const auto i = int_slot_at(load + 1)) {
      DecodedInsn insn = fused(Op::kLdElemSS, container);
      insn.slot2 = *i;
      return Match{insn, 3};
    }
  }
  if (ldelem == load + 6) {
    const auto a = int_slot_at(load + 1);
    const auto b = int_slot_at(load + 4);
    if (a && b && in[load + 2].op == Op::kLdcI8 &&
        in[load + 3].op == Op::kAdd && in[load + 5].op == Op::kAdd) {
      DecodedInsn insn = fused(Op::kLdElemSIS, container, in[load + 2].imm);
      insn.slot2 = *a;
      insn.slot3 = *b;
      const std::size_t cmp = ldelem + 2;
      if (cmp + 1 < in.size() && !leader[ldelem + 1] && !leader[cmp] &&
          !leader[cmp + 1] && is_cond_branch(in[cmp + 1].op)) {
        const auto d = int_slot_at(ldelem + 1);
        const auto forms =
            relation_forms(in[cmp].op, in[cmp + 1].op == Op::kBrTrue);
        if (d && forms) {
          insn.op = forms->element;
          insn.slot4 = *d;
          insn.target = static_cast<std::uint32_t>(in[cmp + 1].imm);
          return Match{insn, 10, true};
        }
      }
      return Match{insn, 7};
    }
  }
  return std::nullopt;
}

/// The longest superinstruction starting at `at` whose operands are all
/// proven ints, or the plain instruction.
Match match_at(const std::vector<DecodedInsn>& in, std::size_t at,
               std::uint32_t num_args, const std::vector<bool>& leader,
               const Proof& proof) {
  // Whether the n instructions from `at` may fuse: none but the first is a
  // leader.
  const auto fits = [&](std::size_t n) {
    if (at + n > in.size()) return false;
    for (std::size_t k = at + 1; k < at + n; ++k) {
      if (leader[k]) return false;
    }
    return true;
  };
  const auto branch = [](DecodedInsn insn, const DecodedInsn& br,
                         std::size_t length) {
    insn.target = static_cast<std::uint32_t>(br.imm);
    return Match{insn, length, true};
  };
  const auto int_slot = [&](std::size_t k) {
    return proof.int_load(in, k, num_args);
  };

  if (const auto a = int_slot(at)) {
    if (fits(4)) {
      const auto b = int_slot(at + 1);
      const Op op = in[at + 2].op;
      const DecodedInsn& last = in[at + 3];
      if (b && is_cond_branch(last.op)) {
        const bool if_true = last.op == Op::kBrTrue;
        DecodedInsn insn = fused(Op::kNop, *a);
        insn.slot2 = *b;
        if (const auto forms = relation_forms(op, if_true)) {
          insn.op = forms->slot_slot;
          return branch(insn, last, 4);
        }
        if (op == Op::kAnd) {
          insn.op = if_true ? Op::kBrTrueAndSS : Op::kBrFalseAndSS;
          return branch(insn, last, 4);
        }
      }
      if (in[at + 1].op == Op::kLdcI8 && (op == Op::kAdd || op == Op::kSub) &&
          store_slot(last, num_args) == a) {
        // x - i == x + (0 - i) modulo 2^64, i = INT64_MIN included.
        const auto imm = static_cast<std::uint64_t>(in[at + 1].imm);
        const DecodedInsn insn = fused(
            Op::kIncS, *a,
            static_cast<std::int64_t>(op == Op::kAdd ? imm : 0 - imm));
        if (fits(5) && in[at + 4].op == Op::kBr) {
          DecodedInsn looped = insn;
          looped.op = Op::kIncSBr;
          return branch(looped, in[at + 4], 5);
        }
        return Match{insn, 4};
      }
    }
    if (fits(3) && in[at + 1].op == Op::kLdcI8) {
      if (const auto forms = binop_forms(in[at + 2].op)) {
        return Match{fused(forms->slot_imm, *a, in[at + 1].imm), 3};
      }
    }
    if (proof.top_int(at)) {
      if (fits(3) && is_cond_branch(in[at + 2].op)) {
        if (const auto forms = relation_forms(
                in[at + 1].op, in[at + 2].op == Op::kBrTrue)) {
          return branch(fused(forms->top_slot, *a), in[at + 2], 3);
        }
      }
      if (fits(2)) {
        if (const auto forms = binop_forms(in[at + 1].op)) {
          return Match{fused(forms->top_slot, *a), 2};
        }
      }
    }
    if (fits(2) && is_cond_branch(in[at + 1].op)) {
      return branch(fused(in[at + 1].op == Op::kBrTrue ? Op::kBrTrueS
                                                        : Op::kBrFalseS,
                          *a),
                    in[at + 1], 2);
    }
  } else if (in[at].op == Op::kLdcI8 && fits(2)) {
    if (proof.top_int(at)) {
      if (const auto forms = binop_forms(in[at + 1].op)) {
        return Match{fused(forms->top_imm, 0, in[at].imm), 2};
      }
    }
    if (const auto dst = store_slot(in[at + 1], num_args)) {
      return Match{fused(Op::kStSI, *dst, in[at].imm), 2};
    }
  }
  return Match{in[at], 1, is_branch(in[at].op)};
}

/// Translates a verified plain decode into its fused stream, given what
/// the kind pass proved.  Runs of source instructions whose operands are
/// proven become superinstructions (greedy, longest first) and borrowed
/// loads are elided (container_loads()); every other instruction is
/// copied, and checks its operands when it runs.  A run fuses only if no
/// instruction after its first is a leader: a branch target, an elided
/// load or a borrowing ldelem.  So every target still starts an
/// instruction, and targets are remapped to the fused indices.
CompiledMethod fuse(const CompiledMethod& decoded, const MethodDef& method,
                    const Verified& verified) {
  const Proof proof(verified, method);
  const std::vector<DecodedInsn>& in = decoded.code;
  std::vector<bool> is_target(in.size(), false);
  for (const DecodedInsn& insn : in) {
    if (is_branch(insn.op)) {
      is_target[static_cast<std::size_t>(insn.imm)] = true;
    }
  }

  const std::vector<std::size_t> container =
      container_loads(in, method, is_target, proof);
  std::vector<bool> leader = is_target;
  std::vector<std::size_t> consumer(in.size(), kNone);  // per elided load
  // pending[s]: elided loads before s whose ldelem comes after s.
  std::vector<std::uint8_t> pending(in.size(), 0);
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::size_t load = container[k];
    if (load == kNone) continue;
    consumer[load] = k;
    leader[load] = leader[k] = true;
    for (std::size_t s = load + 1; s < k; ++s) ++pending[s];
  }

  CompiledMethod out;
  out.max_stack = decoded.max_stack;
  std::vector<std::uint32_t> fused_index(in.size(), 0);
  std::vector<std::size_t> branch_sites;
  for (std::size_t at = 0; at < in.size();) {
    fused_index[at] = static_cast<std::uint32_t>(out.code.size());
    Match m;
    if (consumer[at] != kNone) {
      const auto shape = borrowed_index(in, at, consumer[at], method.num_args,
                                        leader, proof);
      if (!shape) {  // elided: its ldelem reads the slot
        ++at;
        continue;
      }
      m = *shape;
    } else if (container[at] != kNone) {
      m.insn = fused(Op::kLdElemS,
                     *load_slot(in[container[at]], method.num_args));
    } else {
      m = match_at(in, at, method.num_args, leader, proof);
    }
    if (m.branches) branch_sites.push_back(out.code.size());
    out.code.push_back(m.insn);
    out.uncounted_loads.push_back(pending[at]);
    at += m.length;
  }
  for (const std::size_t site : branch_sites) {
    DecodedInsn& insn = out.code[site];
    if (is_branch(insn.op)) {
      insn.imm = fused_index[static_cast<std::size_t>(insn.imm)];
    } else {
      insn.target = fused_index[insn.target];
    }
  }
  return out;
}

}  // namespace

Jit::Jit(const Module& module, JitOptions options)
    : module_(module), options_(options), cache_(module.num_methods()) {}

const CompiledMethod& Jit::get(std::uint16_t method_index,
                               std::span<const Value> args) {
  util::check<util::ConfigError>(method_index < cache_.size(),
                                 "Jit: method index out of range");
  util::check<util::ConfigError>(
      args.size() == module_.method(method_index).num_args,
      "Jit: argument count mismatch");
  Slot& slot = cache_[method_index];
  if (!slot.decoded.has_value()) {
    slot.decoded = decode_method(method_index);
  }
  ++slot.calls;
  const std::uint64_t threshold = std::max<std::uint64_t>(
      options_.compile_threshold, 1);
  if (slot.fused.has_value()) {
    // The entry guard: the fused stream trusts the kinds it was
    // specialised on.
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (kind_of(args[i]) != slot.seed[i]) {
        stats_.guard_misses++;
        return *slot.decoded;
      }
    }
    stats_.cache_hits++;
    return *slot.fused;
  }
  if (slot.calls >= threshold) {
    tier_up(method_index, slot, args);
    return *slot.fused;
  }
  stats_.interpreted_calls++;
  return *slot.decoded;
}

const ObjPtr& Jit::interned_string(std::size_t index) {
  // Lazy: the module may intern strings after this Jit was built.  Only
  // ever called under the engine's execution lock.
  if (index >= interned_.size()) {
    util::check<util::ConfigError>(index < module_.num_strings(),
                                   "Jit: string index out of range");
    interned_.resize(module_.num_strings());
  }
  ObjPtr& slot = interned_[index];
  if (slot == nullptr) {
    slot = std::make_shared<Obj>(module_.string_at(index));
  }
  return slot;
}

CompiledMethod Jit::decode_method(std::uint16_t method_index) {
  const MethodDef& method = module_.method(method_index);

  // Verification is part of the load/compile pipeline, as in the CLI.
  CompiledMethod compiled;
  compiled.max_stack = verify_method(module_, method);

  // Decode pass over the same stream the verifier saw: byte offsets ->
  // instruction indices.
  const DecodedStream stream = decode_stream(method);
  compiled.code.reserve(stream.insns.size());
  for (const RawInsn& raw : stream.insns) {
    DecodedInsn insn;
    insn.op = raw.op;
    if (is_branch(raw.op)) {
      // Branch resolution through the shared boundary contract: a target
      // the verifier would reject surfaces as the same typed VerifyError
      // here, never as a raw std::out_of_range.
      insn.imm = static_cast<std::int64_t>(
          branch_target(stream, raw.operand, method));
    } else {
      insn.imm = static_cast<std::int64_t>(raw.operand);
    }
    compiled.code.push_back(insn);
  }
  return compiled;
}

void Jit::tier_up(std::uint16_t method_index, Slot& slot,
                  std::span<const Value> args) {
  const MethodDef& method = module_.method(method_index);
  const util::Stopwatch translate;
  slot.seed.clear();
  for (const Value& arg : args) slot.seed.push_back(kind_of(arg));
  slot.fused = fuse(*slot.decoded, method,
                    verify_kinds(module_, method, slot.seed));
  stats_.translate_ms += translate.elapsed_ms();

  const util::Stopwatch watch;
  // Modeled code-generation cost, realized as real CPU time so first-call
  // (or, with a warm-up tier, threshold-crossing) latency shows up in
  // wall-clock measurements exactly like SSCLI's JIT.
  if (options_.compile_ns_per_byte > 0) {
    util::spin_for_ns(options_.compile_ns_per_byte *
                      static_cast<std::int64_t>(method.code.size()));
  }
  stats_.compilations++;
  stats_.total_compile_ms += watch.elapsed_ms();
}

void Jit::flush_cache() {
  for (auto& slot : cache_) slot = Slot{};
}

}  // namespace clio::vm

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "vm/module.hpp"
#include "vm/verifier.hpp"

namespace clio::vm {

/// One decoded (and branch-resolved) instruction: operands are
/// materialized and branch targets are instruction indices instead of byte
/// offsets, so the interpreter runs a flat array without re-decoding.  The
/// plain decode holds bytecode opcodes only; the fused tier also emits
/// superinstructions (Op::kOpCount_ and up), which use the slot fields.
struct DecodedInsn {
  Op op = Op::kNop;
  std::uint32_t slot = 0;    ///< superinstruction: first frame slot
  std::uint32_t slot2 = 0;   ///< superinstruction: second frame slot
  /// kLdElemSIS forms: the third slot.  kSearchLoop: the index the body
  /// leaves the loop to.
  std::uint32_t slot3 = 0;
  /// kBr<rel>ElemSIS: the compared slot.  kSearchLoop: 1 when the loop
  /// goes on while the element equals the key, 0 while it differs.
  std::uint32_t slot4 = 0;
  std::uint32_t target = 0;  ///< superinstruction: branch target index
  /// Bytecode opcode: the immediate, index or branch target index; for
  /// kLdcF64 the f64 bit pattern.  Superinstruction: the immediate
  /// (kSearchLoop: the latch's step).
  std::int64_t imm = 0;
};

/// Compiled form of one method: its plain decode (tier 0) or its fused
/// stream (tier 1).
struct CompiledMethod {
  std::vector<DecodedInsn> code;
  std::uint32_t max_stack = 0;
  /// Fused stream only, one entry per instruction: the container loads
  /// the borrow rule elided whose ldelem comes later, which a trap at that
  /// instruction leaves uncounted.  Read only when a frame unwinds.
  std::vector<std::uint8_t> uncounted_loads;
};

/// Knobs of the compile-cost model.
struct JitOptions {
  /// Modeled per-byte compile cost, realized as real CPU work.  SSCLI's JIT
  /// costs milliseconds per method; the default makes first-call latency
  /// visible at benchmark timescales (Table 6's "delay caused by the JIT
  /// compiler when the web server is handling the first request").
  std::int64_t compile_ns_per_byte = 1500;
  /// Always true: compiled code is cached per method (kept for reports).
  static constexpr bool cache_enabled = true;
  /// Warm-up tier: the first (threshold - 1) invocations of a method run
  /// the plain decode (tier 0); the call that crosses the threshold builds
  /// the fused stream (tier 1), pays the modeled code-generation cost once,
  /// and runs fused code from then on.  1 (the default, and the SSCLI
  /// behaviour the paper measures) compiles eagerly on the first call, so
  /// the first request through any code path is the slow one; larger
  /// values amortize that stall the way tiered engines do.  0 is treated
  /// as 1; UINT64_MAX never tiers up.
  std::uint64_t compile_threshold = 1;
};

/// Statistics exposed for Table 6 analysis and the micro_vm bench.
struct JitStats {
  std::uint64_t compilations = 0;
  std::uint64_t cache_hits = 0;
  /// Invocations served below the compile threshold (tier-0, decode only).
  std::uint64_t interpreted_calls = 0;
  /// Invocations after tier-up whose argument kinds differ from those the
  /// fused stream was specialised on; each ran the plain decode.
  std::uint64_t guard_misses = 0;
  /// Modeled code-generation time (compile_ns_per_byte x code bytes).
  double total_compile_ms = 0.0;
  /// Measured time spent building fused streams at tier-up.
  double translate_ms = 0.0;
};

/// Two-tier just-in-time compiler: verification + decode + branch
/// resolution on first invocation (tier 0); when a method's invocation
/// count crosses compile_threshold, the decode is translated into a fused
/// stream of superinstructions (tier 1), the modeled code-generation cost
/// is paid, and the fused stream is cached.  With the default threshold of
/// 1 this reproduces the CLI execution-engine behaviour the paper observes:
/// "functions are compiled only when they are required", so the first
/// request through any code path is slower.
///
/// The fused stream is specialised on the argument kinds of the call that
/// tiers the method up: the verifier's kind pass starts from them, and a
/// superinstruction is formed only where the pass proves every operand it
/// reads.  A later call whose argument kinds differ runs the plain decode
/// (JitStats::guard_misses).
class Jit {
 public:
  explicit Jit(const Module& module, JitOptions options = {});

  /// Returns the runnable body for one invocation with `args`: decodes on
  /// first use, tiering up (fusing, and paying the modeled codegen cost)
  /// when the method's invocation count crosses
  /// options().compile_threshold.  After tier-up, the fused stream when
  /// the kinds of `args` (kind_of()) equal those it was specialised on,
  /// else the plain decode.  The returned code stays valid until
  /// flush_cache(): tier-up stores the fused stream beside the decode, so a
  /// frame still running tier-0 code is never pulled from under.
  const CompiledMethod& get(std::uint16_t method_index,
                            std::span<const Value> args);

  /// The per-module interned object for string-pool entry `index`: kLdStr
  /// pushes a reference to this shared immutable object instead of
  /// allocating a fresh Obj per execution.
  const ObjPtr& interned_string(std::size_t index);

  [[nodiscard]] const JitStats& stats() const { return stats_; }
  [[nodiscard]] const Module& module() const { return module_; }
  [[nodiscard]] const JitOptions& options() const { return options_; }

  /// Drops both tiers of every method and all invocation counts (simulates
  /// an engine restart).  No frame may be running.
  void flush_cache();

 private:
  /// Per-method tier state: the plain decode, the fused stream once the
  /// method has tiered up with the argument kinds it was specialised on,
  /// and how far along the warm-up it is.
  struct Slot {
    std::optional<CompiledMethod> decoded;
    std::optional<CompiledMethod> fused;
    std::vector<VKind> seed;
    std::uint64_t calls = 0;
  };

  CompiledMethod decode_method(std::uint16_t method_index);
  void tier_up(std::uint16_t method_index, Slot& slot,
               std::span<const Value> args);

  const Module& module_;
  JitOptions options_;
  std::vector<Slot> cache_;
  std::vector<ObjPtr> interned_;
  JitStats stats_;
};

}  // namespace clio::vm

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "vm/module.hpp"

namespace clio::vm {

/// One decoded (and branch-resolved) instruction, the "native" form the
/// baseline JIT produces: operands are materialized and branch targets are
/// instruction indices instead of byte offsets, so the interpreter runs a
/// flat array without re-decoding.
struct DecodedInsn {
  Op op = Op::kNop;
  std::int64_t imm = 0;  ///< immediate / index / target insn index
  double fimm = 0.0;     ///< float immediate (kLdcF64)
};

/// Compiled form of one method.
struct CompiledMethod {
  std::vector<DecodedInsn> code;
  std::uint32_t max_stack = 0;
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
  /// from the cheap baseline decode only; crossing the threshold pays the
  /// modeled code-generation cost once.  1 (the default, and the SSCLI
  /// behaviour the paper measures) compiles eagerly on the first call, so
  /// the first request through any code path is the slow one; larger
  /// values amortize that stall the way tiered engines do.  0 is treated
  /// as 1.
  std::uint64_t compile_threshold = 1;
};

/// Statistics exposed for Table 6 analysis and the micro_vm bench.
struct JitStats {
  std::uint64_t compilations = 0;
  std::uint64_t cache_hits = 0;
  /// Invocations served below the compile threshold (tier-0, decode only).
  std::uint64_t interpreted_calls = 0;
  double total_compile_ms = 0.0;
};

/// Baseline just-in-time compiler: verification + decode + branch
/// resolution on first invocation; the modeled code-generation cost is
/// paid when a method's invocation count crosses compile_threshold, and
/// the result is cached thereafter.  With the default threshold of 1 this
/// reproduces the CLI execution-engine behaviour the paper observes:
/// "functions are compiled only when they are required", so the first
/// request through any code path is slower.
class Jit {
 public:
  explicit Jit(const Module& module, JitOptions options = {});

  /// Returns the runnable body for one invocation: decodes on first use,
  /// tiering up (paying the modeled codegen cost) when the method's
  /// invocation count crosses options().compile_threshold.
  const CompiledMethod& get(std::uint16_t method_index);

  /// The per-module interned object for string-pool entry `index`: kLdStr
  /// pushes a reference to this shared immutable object instead of
  /// allocating a fresh Obj per execution.
  const ObjPtr& interned_string(std::size_t index);

  [[nodiscard]] const JitStats& stats() const { return stats_; }
  [[nodiscard]] const Module& module() const { return module_; }
  [[nodiscard]] const JitOptions& options() const { return options_; }

  /// Drops all compiled code and invocation counts (simulates an engine
  /// restart).
  void flush_cache();

 private:
  /// Per-method tier state: the baseline decode plus how far along the
  /// warm-up this method is.
  struct Slot {
    std::optional<CompiledMethod> code;
    std::uint64_t calls = 0;
    bool tiered_up = false;
  };

  CompiledMethod decode_method(std::uint16_t method_index);
  void run_codegen(std::uint16_t method_index);

  const Module& module_;
  JitOptions options_;
  std::vector<Slot> cache_;
  std::vector<ObjPtr> interned_;
  JitStats stats_;
};

}  // namespace clio::vm

#pragma once

#include <span>
#include <vector>

#include "vm/jit.hpp"
#include "vm/module.hpp"

namespace clio::vm {

class ExecutionEngine;

/// Executes compiled methods.  The interpreter walks the DecodedInsn array
/// (a plain decode or a fused stream) with an explicit Value stack per
/// frame; `call` recurses (bounded by kMaxCallDepth).  Syscalls are
/// delegated to the owning ExecutionEngine.
class Interpreter {
 public:
  /// Most frames one invoke() may hold; the call that would open one more
  /// traps with "call stack overflow".
  static constexpr std::size_t kMaxCallDepth = 256;

  Interpreter(ExecutionEngine& engine, Jit& jit);

  /// Runs method `index` with `args`; returns its result.
  Value invoke(std::uint16_t index, std::span<const Value> args);

  /// Source (bytecode) instructions executed, whichever tier ran them; a
  /// trapping instruction counts.
  [[nodiscard]] std::uint64_t instructions_executed() const {
    return instructions_;
  }
  /// Handler dispatches: one per plain instruction or superinstruction.
  [[nodiscard]] std::uint64_t dispatches_executed() const {
    return dispatches_;
  }

 private:
  Value run_frame(std::uint16_t index, std::span<const Value> args,
                  std::size_t depth);

  ExecutionEngine& engine_;
  Jit& jit_;
  std::uint64_t instructions_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace clio::vm

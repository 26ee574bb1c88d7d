#pragma once

#include <span>
#include <vector>

#include "vm/jit.hpp"
#include "vm/module.hpp"

namespace clio::vm {

class ExecutionEngine;

/// Executes compiled methods.  The interpreter walks the DecodedInsn array
/// (a plain decode or a fused stream) with an explicit Value stack per
/// frame; `call` recurses (bounded by max_call_depth).  Syscalls are
/// delegated to the owning ExecutionEngine.
class Interpreter {
 public:
  Interpreter(ExecutionEngine& engine, Jit& jit,
              std::size_t max_call_depth = 256);

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
  std::size_t max_call_depth_;
  std::uint64_t instructions_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace clio::vm

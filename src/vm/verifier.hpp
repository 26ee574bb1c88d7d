#pragma once

#include <span>
#include <vector>

#include "vm/module.hpp"

namespace clio::vm {

/// What the kind pass knows about a value: its kind, or kUnknown when no
/// proof exists (the paths into it disagree, or nothing says).
enum class VKind : std::uint8_t {
  kUnknown,
  kInt,
  kFloat,
  kBuffer,
  kArray,
  kString,
};

/// The kind of a run-time value; a null reference is kUnknown.
[[nodiscard]] VKind kind_of(const Value& value);

/// What verification proved about one method.
struct Verified {
  /// Deepest evaluation stack the method needs.
  std::uint32_t max_stack = 0;
  /// Per decoded instruction, the kinds on entry to it: one per frame slot
  /// (arguments, then locals), then one per stack entry, bottom first.
  /// Empty for an instruction no path reaches.
  std::vector<std::vector<VKind>> kinds;
};

/// Bytecode verification, the mini-CLI's analogue of the CLI's mandatory
/// IL verification pass.  Guarantees, for every path through a method:
///   - instructions decode cleanly (no truncated operands),
///   - branch targets land on instruction boundaries,
///   - the evaluation stack never underflows,
///   - stack depth is consistent at every join point,
///   - `ret` executes with exactly one value on the stack,
///   - execution cannot fall off the end of the method,
///   - local/arg/string/method/syscall indices are in range.
///
/// The same abstract interpretation carries a kind per stack entry and
/// frame slot (ECMA-335 Partition III 1.8): locals start as ints (frames
/// are zero-filled), arguments as `arg_kinds` says, and a kind survives a
/// join only where every incoming path agrees.  Kinds never reject a
/// program: an operation on the wrong kind traps when it runs.  The fused
/// tier reads what is proven without checking it (vm/jit.cpp); everything
/// else is checked at run time.
///
/// Throws VerifyError on the first violation.
[[nodiscard]] Verified verify_kinds(const Module& module,
                                    const MethodDef& method,
                                    std::span<const VKind> arg_kinds);

/// verify_kinds() with every argument kUnknown; returns the maximum stack
/// depth (stored into MethodDef::max_stack by verify_module).
[[nodiscard]] std::uint32_t verify_method(const Module& module,
                                          const MethodDef& method);

/// Verifies every method and stamps max_stack.
void verify_module(Module& module);

}  // namespace clio::vm

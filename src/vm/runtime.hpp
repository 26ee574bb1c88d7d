#pragma once

#include <memory>
#include <mutex>
#include <string_view>

#include "io/managed_file.hpp"
#include "util/rng.hpp"
#include "vm/corelib.hpp"
#include "vm/interpreter.hpp"
#include "vm/jit.hpp"
#include "vm/module.hpp"

namespace clio::vm {

/// Engine configuration.  The call-depth bound is a constant
/// (Interpreter::kMaxCallDepth).
struct EngineOptions {
  JitOptions jit{};
};

/// The mini-CLI execution engine: owns a verified module, the baseline JIT
/// with its method cache, the interpreter, and the bridge between managed
/// syscalls and the managed I/O subsystem (clio::io).  This is the
/// substitute for SSCLI's virtual execution system: managed code pays
/// interpretation overhead, first calls pay JIT compilation, and all file
/// I/O flows through the buffer-pool stack.
///
/// Thread-safety: call() may be invoked from multiple threads (the web
/// server does); a mutex serializes execution, matching the single-threaded
/// engine granularity of early SSCLI workers.
class ExecutionEngine {
 public:
  /// `fs` may be null for pure-compute modules (file syscalls then trap).
  ExecutionEngine(Module module, EngineOptions options = {},
                  io::ManagedFileSystem* fs = nullptr);

  /// Invokes a method by name.
  Value call(std::string_view method, std::vector<Value> args = {});

  /// Invokes by index (avoids the name lookup in hot loops).
  Value call_index(std::uint16_t method, std::span<const Value> args);

  [[nodiscard]] std::uint16_t method_index(std::string_view name) const {
    return module_.find_method(name);
  }

  [[nodiscard]] const Module& module() const { return module_; }
  [[nodiscard]] const JitStats& jit_stats() const { return jit_->stats(); }
  [[nodiscard]] std::uint64_t instructions_executed() const {
    return interpreter_->instructions_executed();
  }
  [[nodiscard]] std::uint64_t dispatches_executed() const {
    return interpreter_->dispatches_executed();
  }

  /// Drops compiled code, so the next call of each method pays JIT cost
  /// again (cold-start simulation between benchmark trials).
  void flush_jit_cache();

  /// Syscall dispatch — invoked by the interpreter.
  Value dispatch_syscall(SysCall id, std::span<const Value> args);

 private:
  /// Validates a handle value and returns the open stream behind it.
  io::ManagedFile& checked_handle(std::int64_t h, const char* op);

  /// The file-syscall bodies, separated so dispatch_syscall can wrap the
  /// whole family in one IoError -> ExecutionError boundary.
  Value file_syscall(SysCall id, std::span<const Value> args);

  Module module_;
  io::ManagedFileSystem* fs_;
  std::unique_ptr<Jit> jit_;
  std::unique_ptr<Interpreter> interpreter_;
  std::vector<io::ManagedFile> handles_;
  util::Rng rng_;
  std::mutex mutex_;
};

}  // namespace clio::vm

#include "vm/runtime.hpp"

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace clio::vm {

using util::cat;
using util::check;
using util::ExecutionError;

ExecutionEngine::ExecutionEngine(Module module, EngineOptions options,
                                 io::ManagedFileSystem* fs)
    : module_(std::move(module)), fs_(fs) {
  jit_ = std::make_unique<Jit>(module_, options.jit);
  interpreter_ = std::make_unique<Interpreter>(*this, *jit_);
}

Value ExecutionEngine::call(std::string_view method, std::vector<Value> args) {
  return call_index(module_.find_method(method), args);
}

Value ExecutionEngine::call_index(std::uint16_t method,
                                  std::span<const Value> args) {
  std::lock_guard<std::mutex> lock(mutex_);
  return interpreter_->invoke(method, args);
}

void ExecutionEngine::flush_jit_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  jit_->flush_cache();
}

io::ManagedFile& ExecutionEngine::checked_handle(std::int64_t h,
                                                 const char* op) {
  check<ExecutionError>(
      h >= 0 && static_cast<std::size_t>(h) < handles_.size() &&
          handles_[static_cast<std::size_t>(h)].is_open(),
      cat("vm: ", op, " on bad handle"));
  return handles_[static_cast<std::size_t>(h)];
}

Value ExecutionEngine::dispatch_syscall(SysCall id,
                                        std::span<const Value> args) {
  switch (id) {
    case SysCall::kPrintI64: {
      const auto v = args[0].as_int();
      util::log_debug("vm print: ", v);
      return Value::from_int(v);
    }
    case SysCall::kClockNs:
      return Value::from_int(util::Stopwatch::now_ns());
    case SysCall::kFileOpen:
    case SysCall::kFileClose:
    case SysCall::kFileRead:
    case SysCall::kFileWrite:
    case SysCall::kFileSeek:
    case SysCall::kFileSize:
      // Storage faults (EIO, short reads, torn writes surfacing from the
      // pool, disk full...) cross into managed semantics as typed
      // ExecutionErrors: the VM raises a managed fault, never a bare
      // storage exception — and never a crash.
      try {
        return file_syscall(id, args);
      } catch (const util::IoError& e) {
        throw ExecutionError(
            cat("vm: ", syscall_name(id), " failed: ", e.what()));
      }
    case SysCall::kStrLen: {
      const auto& obj = args[0].as_obj();
      check<ExecutionError>(obj->is_string(), "vm: str_len needs a string");
      return Value::from_int(static_cast<std::int64_t>(obj->str().size()));
    }
    case SysCall::kRandSeed:
      rng_ = util::Rng(static_cast<std::uint64_t>(args[0].as_int()));
      return Value::from_int(0);
    case SysCall::kRandNext: {
      const auto bound = args[0].as_int();
      check<ExecutionError>(bound > 0, "vm: rand_next bound must be > 0");
      return Value::from_int(static_cast<std::int64_t>(
          rng_.uniform_u64(static_cast<std::uint64_t>(bound))));
    }
    case SysCall::kBufNew: {
      const auto len = args[0].as_int();
      check<ExecutionError>(len >= 0 && len <= (1 << 28),
                            "vm: bad buffer length");
      return Value::from_obj(std::make_shared<Obj>(
          std::vector<std::byte>(static_cast<std::size_t>(len))));
    }
    case SysCall::kBufLen: {
      const auto& obj = args[0].as_obj();
      check<ExecutionError>(obj->is_buffer(), "vm: buf_len needs a buffer");
      return Value::from_int(
          static_cast<std::int64_t>(obj->bytes().size()));
    }
    case SysCall::kSysCallCount_:
      break;
  }
  throw ExecutionError("vm: unknown syscall");
}

Value ExecutionEngine::file_syscall(SysCall id, std::span<const Value> args) {
  switch (id) {
    case SysCall::kFileOpen: {
      check<ExecutionError>(fs_ != nullptr,
                            "vm: file syscalls need a managed fs");
      const auto& name_obj = args[0].as_obj();
      check<ExecutionError>(name_obj->is_string(),
                            "vm: file_open needs a string name");
      const auto mode = args[1].as_int();
      io::OpenMode open_mode;
      switch (mode) {
        case 0:
          open_mode = io::OpenMode::kRead;
          break;
        case 1:
          open_mode = io::OpenMode::kCreate;
          break;
        case 2:
          open_mode = io::OpenMode::kTruncate;
          break;
        default:
          throw ExecutionError("vm: bad open mode");
      }
      // Reuse a free slot if any handle was closed.
      for (std::size_t i = 0; i < handles_.size(); ++i) {
        if (!handles_[i].is_open()) {
          handles_[i] = fs_->open(name_obj->str(), open_mode);
          return Value::from_int(static_cast<std::int64_t>(i));
        }
      }
      handles_.push_back(fs_->open(name_obj->str(), open_mode));
      return Value::from_int(static_cast<std::int64_t>(handles_.size() - 1));
    }
    case SysCall::kFileClose: {
      checked_handle(args[0].as_int(), "file_close").close();
      return Value::from_int(0);
    }
    case SysCall::kFileRead: {
      io::ManagedFile& file = checked_handle(args[0].as_int(), "file_read");
      const auto& obj = args[1].as_obj();
      const auto count = args[2].as_int();
      if (obj->is_buffer()) {
        // The managed I/O fast path: bytes move from the pool pages into
        // the buffer's storage in one span copy — zero per-byte boxing,
        // zero transient allocations.
        auto& bytes = obj->bytes();
        check<ExecutionError>(
            count >= 0 && static_cast<std::size_t>(count) <= bytes.size(),
            "vm: file_read count out of range");
        const std::size_t got = file.read(
            std::span<std::byte>(bytes.data(),
                                 static_cast<std::size_t>(count)));
        return Value::from_int(static_cast<std::int64_t>(got));
      }
      check<ExecutionError>(obj->is_array(),
                            "vm: file_read needs an array or buffer");
      auto& arr = obj->arr();
      check<ExecutionError>(count >= 0 &&
                                static_cast<std::size_t>(count) <= arr.size(),
                            "vm: file_read count out of range");
      std::vector<std::byte> staging(static_cast<std::size_t>(count));
      const std::size_t got = file.read(staging);
      for (std::size_t i = 0; i < got; ++i) {
        arr[i] = Value::from_int(static_cast<std::int64_t>(
            std::to_integer<std::uint8_t>(staging[i])));
      }
      return Value::from_int(static_cast<std::int64_t>(got));
    }
    case SysCall::kFileWrite: {
      io::ManagedFile& file = checked_handle(args[0].as_int(), "file_write");
      const auto& obj = args[1].as_obj();
      const auto count = args[2].as_int();
      if (obj->is_buffer()) {
        const auto& bytes = obj->bytes();
        check<ExecutionError>(
            count >= 0 && static_cast<std::size_t>(count) <= bytes.size(),
            "vm: file_write count out of range");
        const std::size_t wrote = file.write(std::span<const std::byte>(
            bytes.data(), static_cast<std::size_t>(count)));
        return Value::from_int(static_cast<std::int64_t>(wrote));
      }
      check<ExecutionError>(obj->is_array(),
                            "vm: file_write needs an array or buffer");
      const auto& arr = obj->arr();
      check<ExecutionError>(count >= 0 &&
                                static_cast<std::size_t>(count) <= arr.size(),
                            "vm: file_write count out of range");
      std::vector<std::byte> staging(static_cast<std::size_t>(count));
      for (std::size_t i = 0; i < staging.size(); ++i) {
        staging[i] = static_cast<std::byte>(arr[i].as_int() & 0xff);
      }
      // Report what the stream accepted, not what was requested.
      const std::size_t wrote = file.write(staging);
      return Value::from_int(static_cast<std::int64_t>(wrote));
    }
    case SysCall::kFileSeek: {
      io::ManagedFile& file = checked_handle(args[0].as_int(), "file_seek");
      const auto pos = args[1].as_int();
      check<ExecutionError>(pos >= 0, "vm: negative seek");
      file.seek(static_cast<std::uint64_t>(pos));
      return Value::from_int(0);
    }
    case SysCall::kFileSize: {
      io::ManagedFile& file = checked_handle(args[0].as_int(), "file_size");
      return Value::from_int(static_cast<std::int64_t>(file.size()));
    }
    default:
      throw ExecutionError("vm: not a file syscall");
  }
}

}  // namespace clio::vm

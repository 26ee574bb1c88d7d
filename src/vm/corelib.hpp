#pragma once

#include <cstdint>
#include <string_view>

namespace clio::vm {

/// Runtime-service (syscall) identifiers — the mini-CLI's "mscorlib".
/// Each syscall pops its arguments (last argument on top of the stack) and
/// pushes exactly one result.
///
/// File handles are small integers owned by the ExecutionEngine; modes are
/// 0 = read, 1 = create, 2 = truncate (mirroring io::OpenMode).
enum class SysCall : std::uint16_t {
  kPrintI64 = 0,   ///< (v) -> v           : log the value (debug aid)
  kClockNs = 1,    ///< () -> i64          : monotonic nanoseconds
  kFileOpen = 2,   ///< (name str, mode) -> handle
  kFileClose = 3,  ///< (handle) -> 0
  kFileRead = 4,   ///< (handle, array|buffer, count) -> bytes read.  With a
                   ///< byte buffer, bytes land in the buffer's contiguous
                   ///< storage directly (the managed I/O fast path); with a
                   ///< Value array each byte is boxed as an i64 element.
  kFileWrite = 5,  ///< (handle, array|buffer, count) -> bytes written (the
                   ///< count the stream actually accepted, not the request)
  kFileSeek = 6,   ///< (handle, pos) -> 0
  kFileSize = 7,   ///< (handle) -> i64
  kStrLen = 8,     ///< (str) -> i64
  kRandSeed = 9,   ///< (seed) -> 0        : reseed the engine RNG
  kRandNext = 10,  ///< (bound) -> u64 in [0, bound)
  kBufNew = 11,    ///< (len) -> new zero-filled byte buffer object
  kBufLen = 12,    ///< (buffer) -> i64
  kSysCallCount_,
};

/// What a syscall's one result is, for the verifier's kind pass.
enum class SysResult : std::uint8_t {
  kInt,       ///< always an integer
  kBuffer,    ///< a new byte buffer (buf_new)
  kFirstArg,  ///< the first argument, returned as it came (print_i64)
};

/// Number of stack arguments each syscall pops.
[[nodiscard]] int syscall_arity(SysCall id);

/// The kind of each syscall's result.
[[nodiscard]] SysResult syscall_result(SysCall id);

/// Mnemonic used by the assembler (e.g. "file_open").
[[nodiscard]] std::string_view syscall_name(SysCall id);

/// Reverse lookup; -1 when unknown.
[[nodiscard]] int syscall_by_name(std::string_view name);

}  // namespace clio::vm

// Asserts the acceptance criterion of the managed I/O fast path: a
// file_read of a 64 KiB byte buffer performs ZERO per-byte Value boxing —
// heap allocations during the call are O(1), not O(bytes).  The old
// array-based path allocated a staging vector and boxed 65536 elements;
// this test pins the new path by counting every global operator new in the
// process while the syscall runs.  The same counter pins the interpreter:
// a warm call allocates its frame, not one argument vector per syscall.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "io/file_store.hpp"
#include "util/temp_dir.hpp"
#include "vm/assembler.hpp"
#include "vm/kernels.hpp"
#include "vm/runtime.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Replace the global allocator with counting shims.  All variants funnel
// through malloc/free so new/delete stay matched no matter which overload
// the standard library picks.  GCC's -Wmismatched-new-delete can't see
// that the replaced operator new is malloc-backed, so quiet it here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   ((n + static_cast<std::size_t>(align) - 1) /
                                    static_cast<std::size_t>(align)) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace clio::vm {
namespace {

// args: 0 handle, 1 buffer, 2 count -> bytes read
const char* const kReadOnceSource = R"(
.method read_once 3 0
  ldarg 0
  ldarg 1
  ldarg 2
  syscall file_read
  ret
.end

.method open_file 1 0
  ldarg 0
  ldc 0
  syscall file_open
  ret
.end

.method seek_zero 1 0
  ldarg 0
  ldc 0
  syscall file_seek
  ret
.end
)";

// args: 0 buffer, 1 n -> n, after n buf_len syscalls
const char* const kBufLenLoopSource = R"(
.method buf_len_loop 2 1
  ldc 0
  stloc 0
loop:
  ldloc 0
  ldarg 1
  cmpge
  brtrue done
  ldarg 0
  syscall buf_len
  pop
  ldloc 0
  ldc 1
  add
  stloc 0
  br loop
done:
  ldloc 0
  ret
.end
)";

TEST(RuntimeAllocTest, BufferFileReadMakesNoPerByteAllocations) {
  constexpr std::size_t kBytes = 64 * 1024;
  util::TempDir dir;
  io::ManagedFsOptions fs_options;
  fs_options.prefetch_on_seek = false;
  io::ManagedFileSystem fs(std::make_unique<io::RealFileStore>(dir.path()),
                           fs_options);
  {
    std::vector<std::byte> data(kBytes, std::byte{0x5a});
    auto file = fs.open("big.bin", io::OpenMode::kTruncate);
    file.write(data);
    file.close();
  }

  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(kReadOnceSource), options, &fs);
  const auto handle =
      engine.call("open_file", {kernels::make_string("big.bin")});
  const auto buffer = kernels::make_buffer(
      std::vector<std::byte>(kBytes));  // reused across reads
  const std::vector<Value> read_args{handle, buffer,
                                     Value::from_int(kBytes)};
  const std::vector<Value> seek_args{handle};
  const auto read_idx = engine.method_index("read_once");
  const auto seek_idx = engine.method_index("seek_zero");

  // Warm everything once: JIT compile, pool pages, interpreter frames.
  engine.call_index(seek_idx, seek_args);
  ASSERT_EQ(engine.call_index(read_idx, read_args).as_int(),
            static_cast<std::int64_t>(kBytes));
  engine.call_index(seek_idx, seek_args);

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  const auto got = engine.call_index(read_idx, read_args).as_int();
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  ASSERT_EQ(got, static_cast<std::int64_t>(kBytes));

  const std::uint64_t allocs = after - before;
  // Frame setup (locals/stack vectors) plus a few pool-side incidentals
  // are fine; anything proportional to the 65536 bytes moved is not.  The
  // old boxing path fails this bound by three orders of magnitude.
  EXPECT_LT(allocs, 64u) << "file_read allocated " << allocs
                         << " times for a " << kBytes << "-byte read";
}

TEST(RuntimeAllocTest, SyscallsAndInstructionsDoNotAllocate) {
  // Syscall arguments are passed in place from the operand stack, so the
  // only allocation a warm call makes is its frame, whatever the number
  // of syscalls and instructions it runs.
  constexpr std::int64_t kCalls = 10000;
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(kBufLenLoopSource), options);
  const std::vector<Value> args{
      kernels::make_buffer(std::vector<std::byte>(16)),
      Value::from_int(kCalls)};
  const auto idx = engine.method_index("buf_len_loop");
  ASSERT_EQ(engine.call_index(idx, args).as_int(), kCalls);  // JIT, warm

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  const auto got = engine.call_index(idx, args).as_int();
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  ASSERT_EQ(got, kCalls);

  const std::uint64_t allocs = after - before;
  EXPECT_LT(allocs, 10u) << kCalls << " buf_len syscalls allocated "
                         << allocs << " times";
}

}  // namespace
}  // namespace clio::vm

#include "vm/runtime.hpp"

#include <gtest/gtest.h>

#include "io/file_store.hpp"
#include "util/error.hpp"
#include "util/temp_dir.hpp"
#include "vm/assembler.hpp"

namespace clio::vm {
namespace {

/// Managed program: create a file, write the bytes 0..n-1, close, reopen,
/// sum the bytes back.  Exercises the whole syscall bridge end to end.
const char* kFileRoundTrip = R"(
.method write_then_sum 1 4
  ; locals: 0 handle, 1 buffer, 2 index, 3 acc
  ldstr "vmdata.bin"
  ldc 1
  syscall file_open
  stloc 0
  ldarg 0
  newarr
  stloc 1
  ; fill buffer with 0..n-1
  ldc 0
  stloc 2
fill:
  ldloc 2
  ldarg 0
  cmpge
  brtrue filled
  ldloc 1
  ldloc 2
  ldloc 2
  stelem
  ldloc 2
  ldc 1
  add
  stloc 2
  br fill
filled:
  ldloc 0
  ldloc 1
  ldarg 0
  syscall file_write
  pop
  ldloc 0
  syscall file_close
  pop
  ; reopen for read
  ldstr "vmdata.bin"
  ldc 0
  syscall file_open
  stloc 0
  ldloc 0
  ldloc 1
  ldarg 0
  syscall file_read
  pop
  ldloc 0
  syscall file_close
  pop
  ; sum the buffer
  ldc 0
  stloc 3
  ldc 0
  stloc 2
sum:
  ldloc 2
  ldarg 0
  cmpge
  brtrue done
  ldloc 3
  ldloc 1
  ldloc 2
  ldelem
  add
  stloc 3
  ldloc 2
  ldc 1
  add
  stloc 2
  br sum
done:
  ldloc 3
  ret
.end
)";

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest()
      : fs_(std::make_unique<io::RealFileStore>(dir_.path()),
            io::ManagedFsOptions{}) {}

  ExecutionEngine make_engine(const char* source) {
    EngineOptions options;
    options.jit.compile_ns_per_byte = 0;
    return ExecutionEngine(assemble(source), options, &fs_);
  }

  util::TempDir dir_;
  io::ManagedFileSystem fs_;
};

TEST_F(RuntimeTest, ManagedFileRoundTrip) {
  auto engine = make_engine(kFileRoundTrip);
  const auto result =
      engine.call("write_then_sum", {Value::from_int(100)}).as_int();
  EXPECT_EQ(result, 4950);  // sum 0..99
  EXPECT_TRUE(fs_.exists("vmdata.bin"));
}

TEST_F(RuntimeTest, ManagedIoIsTimedByTheIoStack) {
  auto engine = make_engine(kFileRoundTrip);
  engine.call("write_then_sum", {Value::from_int(64)});
  const auto& stats = fs_.stats();
  EXPECT_EQ(stats.op_snapshot(io::IoOp::kOpen).count, 2u);
  EXPECT_EQ(stats.op_snapshot(io::IoOp::kClose).count, 2u);
  EXPECT_EQ(stats.op_snapshot(io::IoOp::kWrite).count, 1u);
  EXPECT_EQ(stats.op_snapshot(io::IoOp::kRead).count, 1u);
}

TEST_F(RuntimeTest, FileSeekAndSizeSyscalls) {
  const char* source = R"(
.method f 0 1
  ldstr "seek.bin"
  ldc 1
  syscall file_open
  stloc 0
  ldloc 0
  ldc 16
  newarr
  ldc 16
  syscall file_write
  pop
  ldloc 0
  ldc 4
  syscall file_seek
  pop
  ldloc 0
  syscall file_size
  ldloc 0
  syscall file_close
  pop
  ret
.end
)";
  auto engine = make_engine(source);
  EXPECT_EQ(engine.call("f").as_int(), 16);
}

TEST_F(RuntimeTest, FileSyscallsWithoutFsTrap) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(R"(
.method f 0 0
  ldstr "x"
  ldc 0
  syscall file_open
  ret
.end
)"),
                         options, nullptr);
  EXPECT_THROW(engine.call("f"), util::ExecutionError);
}

TEST_F(RuntimeTest, BadHandleTraps) {
  const char* source = R"(
.method f 0 0
  ldc 42
  syscall file_close
  ret
.end
)";
  auto engine = make_engine(source);
  EXPECT_THROW(engine.call("f"), util::ExecutionError);
}

TEST_F(RuntimeTest, HandleSlotsAreRecycled) {
  const char* source = R"(
.method f 0 1
  ldstr "a.bin"
  ldc 1
  syscall file_open
  stloc 0
  ldloc 0
  syscall file_close
  pop
  ldstr "b.bin"
  ldc 1
  syscall file_open
  ret
.end
)";
  auto engine = make_engine(source);
  // The reopened handle reuses slot 0.
  EXPECT_EQ(engine.call("f").as_int(), 0);
}

TEST_F(RuntimeTest, CallByIndexMatchesByName) {
  auto engine = make_engine(".method f 0 0\nldc 9\nret\n.end\n");
  const auto idx = engine.method_index("f");
  std::vector<Value> no_args;
  EXPECT_EQ(engine.call_index(idx, no_args).as_int(), 9);
  EXPECT_EQ(engine.call("f").as_int(), 9);
}

TEST_F(RuntimeTest, UnknownMethodThrows) {
  auto engine = make_engine(".method f 0 0\nldc 1\nret\n.end\n");
  EXPECT_THROW(engine.call("missing"), util::ConfigError);
}

}  // namespace
}  // namespace clio::vm

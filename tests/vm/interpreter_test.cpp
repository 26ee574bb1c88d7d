#include "vm/interpreter.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "vm/assembler.hpp"
#include "vm/runtime.hpp"

namespace clio::vm {
namespace {

std::int64_t run_int(const std::string& source, const std::string& method,
                     std::vector<Value> args = {}) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;  // keep tests fast
  ExecutionEngine engine(assemble(source), options);
  return engine.call(method, std::move(args)).as_int();
}

TEST(Interpreter, ArithmeticBasics) {
  EXPECT_EQ(run_int(".method f 0 0\nldc 2\nldc 3\nadd\nret\n.end\n", "f"), 5);
  EXPECT_EQ(run_int(".method f 0 0\nldc 7\nldc 3\nsub\nret\n.end\n", "f"), 4);
  EXPECT_EQ(run_int(".method f 0 0\nldc 6\nldc 7\nmul\nret\n.end\n", "f"),
            42);
  EXPECT_EQ(run_int(".method f 0 0\nldc 17\nldc 5\ndiv\nret\n.end\n", "f"),
            3);
  EXPECT_EQ(run_int(".method f 0 0\nldc 17\nldc 5\nrem\nret\n.end\n", "f"),
            2);
  EXPECT_EQ(run_int(".method f 0 0\nldc 9\nneg\nret\n.end\n", "f"), -9);
}

TEST(Interpreter, BitwiseAndShifts) {
  EXPECT_EQ(run_int(".method f 0 0\nldc 12\nldc 10\nand\nret\n.end\n", "f"),
            8);
  EXPECT_EQ(run_int(".method f 0 0\nldc 12\nldc 10\nor\nret\n.end\n", "f"),
            14);
  EXPECT_EQ(run_int(".method f 0 0\nldc 12\nldc 10\nxor\nret\n.end\n", "f"),
            6);
  EXPECT_EQ(run_int(".method f 0 0\nldc 3\nldc 4\nshl\nret\n.end\n", "f"),
            48);
  EXPECT_EQ(run_int(".method f 0 0\nldc 48\nldc 4\nshr\nret\n.end\n", "f"),
            3);
}

TEST(Interpreter, DivisionByZeroTraps) {
  EXPECT_THROW(run_int(".method f 0 0\nldc 1\nldc 0\ndiv\nret\n.end\n", "f"),
               util::ExecutionError);
  EXPECT_THROW(run_int(".method f 0 0\nldc 1\nldc 0\nrem\nret\n.end\n", "f"),
               util::ExecutionError);
}

TEST(Interpreter, FloatArithmeticAndConversion) {
  EXPECT_EQ(run_int(".method f 0 0\nldcf 1.5\nldcf 2.25\naddf\nconvf2i\nret\n"
                    ".end\n",
                    "f"),
            4);  // 3.75 rounds to 4
  EXPECT_EQ(
      run_int(".method f 0 0\nldc 7\nconvi2f\nldcf 2.0\ndivf\nconvf2i\nret\n"
              ".end\n",
              "f"),
      4);  // 3.5 rounds
}

TEST(Interpreter, Comparisons) {
  EXPECT_EQ(run_int(".method f 0 0\nldc 3\nldc 3\ncmpeq\nret\n.end\n", "f"),
            1);
  EXPECT_EQ(run_int(".method f 0 0\nldc 3\nldc 4\ncmplt\nret\n.end\n", "f"),
            1);
  EXPECT_EQ(run_int(".method f 0 0\nldc 4\nldc 3\ncmple\nret\n.end\n", "f"),
            0);
}

TEST(Interpreter, ArgsAndLocals) {
  const auto source = R"(
.method addmul 3 1
  ldarg 0
  ldarg 1
  add
  stloc 0
  ldloc 0
  ldarg 2
  mul
  ret
.end
)";
  EXPECT_EQ(run_int(source, "addmul",
                    {Value::from_int(2), Value::from_int(3),
                     Value::from_int(4)}),
            20);
}

TEST(Interpreter, LoopComputesTriangularNumber) {
  const auto source = R"(
.method tri 1 2
  ldc 0
  stloc 0
  ldc 1
  stloc 1
top:
  ldloc 1
  ldarg 0
  cmpgt
  brtrue done
  ldloc 0
  ldloc 1
  add
  stloc 0
  ldloc 1
  ldc 1
  add
  stloc 1
  br top
done:
  ldloc 0
  ret
.end
)";
  EXPECT_EQ(run_int(source, "tri", {Value::from_int(100)}), 5050);
}

TEST(Interpreter, RecursiveFibonacci) {
  const auto source = R"(
.method fib 1 0
  ldarg 0
  ldc 2
  cmplt
  brfalse recurse
  ldarg 0
  ret
recurse:
  ldarg 0
  ldc 1
  sub
  call fib
  ldarg 0
  ldc 2
  sub
  call fib
  add
  ret
.end
)";
  EXPECT_EQ(run_int(source, "fib", {Value::from_int(15)}), 610);
}

TEST(Interpreter, MutualCallsAcrossMethods) {
  const auto source = R"(
.method main 0 0
  ldc 21
  call double_it
  ret
.end
.method double_it 1 0
  ldarg 0
  ldc 2
  mul
  ret
.end
)";
  EXPECT_EQ(run_int(source, "main"), 42);
}

TEST(Interpreter, ArraysStoreAndLoad) {
  const auto source = R"(
.method f 0 1
  ldc 8
  newarr
  stloc 0
  ldloc 0
  ldc 3
  ldc 99
  stelem
  ldloc 0
  ldc 3
  ldelem
  ldloc 0
  arrlen
  add
  ret
.end
)";
  EXPECT_EQ(run_int(source, "f"), 107);  // 99 + 8
}

TEST(Interpreter, ArrayBoundsTrap) {
  const auto source = R"(
.method f 0 1
  ldc 4
  newarr
  stloc 0
  ldloc 0
  ldc 4
  ldelem
  ret
.end
)";
  EXPECT_THROW(run_int(source, "f"), util::ExecutionError);
}

TEST(Interpreter, DynamicTypeErrorsTrap) {
  // add on a float value traps (depth-verified, dynamically typed).
  EXPECT_THROW(
      run_int(".method f 0 0\nldcf 1.0\nldc 1\nadd\nret\n.end\n", "f"),
      util::ExecutionError);
}

TEST(Interpreter, InfiniteRecursionOverflowsCallStack) {
  const auto source = R"(
.method boom 0 0
  call boom
  ret
.end
)";
  EXPECT_THROW(run_int(source, "boom"), util::ExecutionError);
}

TEST(Interpreter, StrLenSyscall) {
  const auto source = R"(
.method f 0 0
  ldstr "twelve chars"
  syscall str_len
  ret
.end
)";
  EXPECT_EQ(run_int(source, "f"), 12);
}

TEST(Interpreter, RandSyscallIsBoundedAndSeeded) {
  const auto source = R"(
.method f 1 0
  ldarg 0
  syscall rand_seed
  pop
  ldc 100
  syscall rand_next
  ret
.end
)";
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(source), options);
  const auto a = engine.call("f", {Value::from_int(5)}).as_int();
  const auto b = engine.call("f", {Value::from_int(5)}).as_int();
  EXPECT_EQ(a, b);  // same seed, same draw
  EXPECT_GE(a, 0);
  EXPECT_LT(a, 100);
}

TEST(Interpreter, InstructionCountAdvances) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(
      assemble(".method f 0 0\nldc 1\nldc 2\nadd\nret\n.end\n"), options);
  engine.call("f");
  EXPECT_EQ(engine.instructions_executed(), 4u);
}

// Lifetime oracle: once a call returns, normally or by a trap, the VM
// holds no reference to any object it was handed.  `touch` moves its
// buffer argument through every instruction that can hold an object:
// dup/pop, stloc/ldloc, stelem, ldelem, arrlen, a syscall and a call.
const char* const kLifetimeSource = R"(
.method touch 1 1
  ldarg 0
  dup
  pop
  stloc 0
  ldloc 0
  ldc 1
  ldc 9
  stelem
  ldloc 0
  ldc 0
  ldelem
  ldloc 0
  arrlen
  add
  ldloc 0
  syscall buf_len
  add
  ldloc 0
  call peek_one
  add
  ret
.end

.method peek_one 1 0
  ldarg 0
  ldc 1
  ldelem
  ret
.end

.method trap_deep 1 1
  ldarg 0
  stloc 0
  ldloc 0
  ldloc 0
  ldc 99
  call peek_at
  pop
  ret
.end

.method peek_at 2 0
  ldarg 0
  ldarg 1
  ldelem
  ret
.end

.method fresh 0 1
  ldc 3
  newarr
  stloc 0
  ldloc 0
  ldc 0
  ldc 5
  stelem
  ldloc 0
  ret
.end

.method fresh_via_call 0 0
  call fresh
  dup
  arrlen
  pop
  ret
.end
)";

TEST(Interpreter, NoObjectOutlivesItsLastVmReference) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(kLifetimeSource), options);
  const ObjPtr buf = std::make_shared<Obj>(std::vector<std::byte>{
      std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}});

  // buf[0] + arrlen + buf_len + buf[1] after the stelem: 1 + 4 + 4 + 9.
  EXPECT_EQ(engine.call("touch", {Value::from_obj(buf)}).as_int(), 18);
  EXPECT_EQ(buf->bytes()[1], std::byte{9});
  EXPECT_EQ(buf.use_count(), 1);

  // A trap two frames down, with the buffer in a local, on the caller's
  // operand stack and in both of the callee's argument slots.
  try {
    engine.call("trap_deep", {Value::from_obj(buf)});
    ADD_FAILURE() << "trap_deep did not trap";
  } catch (const util::ExecutionError& e) {
    EXPECT_STREQ(e.what(), "interpreter: buffer index out of range");
  }
  EXPECT_EQ(buf.use_count(), 1);

  // A freshly allocated array comes back holding only the caller's
  // reference, returned directly or through a nested frame.
  for (const char* method : {"fresh", "fresh_via_call"}) {
    const Value arr = engine.call(method);
    EXPECT_EQ(arr.as_obj().use_count(), 1) << method;
    EXPECT_EQ(arr.as_obj()->arr()[0].as_int(), 5) << method;
  }
}

TEST(Interpreter, ArgCountMismatchTraps) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(
      assemble(".method f 1 0\nldarg 0\nret\n.end\n"), options);
  EXPECT_THROW(engine.call("f"), util::ExecutionError);
}

}  // namespace
}  // namespace clio::vm

#include "vm/jit.hpp"

#include <gtest/gtest.h>

#include "util/stopwatch.hpp"
#include "vm/assembler.hpp"
#include "vm/runtime.hpp"

namespace clio::vm {
namespace {

const char* kFibSource = R"(
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

TEST(Jit, CompilesOncePerMethodWhenCached) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(kFibSource), options);
  engine.call("fib", {Value::from_int(10)});
  engine.call("fib", {Value::from_int(10)});
  EXPECT_EQ(engine.jit_stats().compilations, 1u);
  EXPECT_GT(engine.jit_stats().cache_hits, 0u);
}

TEST(Jit, SelfRecursiveMethodCompilesOnceAndKeepsItsCode) {
  // The outer frame keeps running from the method's cached code while the
  // inner calls fetch the same slot; under ASan any reset or reallocation
  // of that slot mid-call is a use-after-free.
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(R"(
.method recurse 1 0
  ldarg 0
  brfalse done
  ldarg 0
  ldc 1
  sub
  call recurse
  ldc 10
  add
  ret
done:
  ldc 7
  ret
.end
)"),
                         options);
  EXPECT_EQ(engine.call("recurse", {Value::from_int(3)}).as_int(), 37);
  EXPECT_EQ(engine.call("recurse", {Value::from_int(3)}).as_int(), 37);
  EXPECT_EQ(engine.jit_stats().compilations, 1u);
}

TEST(Jit, RecursionTiersUpInAnInnerFrameWhileOuterFramesRunTierZero) {
  // compile_threshold = 2: the outermost call runs the plain decode, the
  // second (nested) call tiers up and runs fused code, and deeper calls
  // reuse it, while the outer frame keeps running its tier-0 vector.
  // Under ASan any reallocation of that vector mid-call is a
  // use-after-free.
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  options.jit.compile_threshold = 2;
  ExecutionEngine engine(assemble(R"(
.method recurse 1 0
  ldarg 0
  brfalse done
  ldarg 0
  ldc 1
  sub
  call recurse
  ldc 10
  add
  ret
done:
  ldc 7
  ret
.end
)"),
                         options);
  EXPECT_EQ(engine.call("recurse", {Value::from_int(5)}).as_int(), 57);
  EXPECT_EQ(engine.jit_stats().interpreted_calls, 1u);
  EXPECT_EQ(engine.jit_stats().compilations, 1u);
  EXPECT_EQ(engine.jit_stats().cache_hits, 4u);
  // One frame ran 9 instructions in 9 dispatches, five frames fused (four
  // recursing in 6 dispatches each, the last in 3 for 4 instructions).
  // The call's result is not proven an int, so `ldc 10; add` stays plain.
  EXPECT_EQ(engine.instructions_executed(), 9u * 5 + 4);
  EXPECT_EQ(engine.dispatches_executed(), 9u + 6 * 4 + 3);

  // A flush drops both tiers: the next call runs the plain decode again,
  // and the one after tiers up again.
  engine.flush_jit_cache();
  const std::uint64_t insns = engine.instructions_executed();
  const std::uint64_t dispatches = engine.dispatches_executed();
  EXPECT_EQ(engine.call("recurse", {Value::from_int(0)}).as_int(), 7);
  EXPECT_EQ(engine.instructions_executed() - insns, 4u);
  EXPECT_EQ(engine.dispatches_executed() - dispatches, 4u);
  EXPECT_EQ(engine.jit_stats().interpreted_calls, 2u);
  EXPECT_EQ(engine.call("recurse", {Value::from_int(0)}).as_int(), 7);
  EXPECT_EQ(engine.instructions_executed() - insns, 8u);
  EXPECT_EQ(engine.dispatches_executed() - dispatches, 4u + 3);
  EXPECT_EQ(engine.jit_stats().compilations, 2u);
}

TEST(Jit, TranslationTimeIsMeasuredBesideTheModeledCost) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(kFibSource), options);
  engine.call("fib", {Value::from_int(3)});
  EXPECT_GT(engine.jit_stats().translate_ms, 0.0);
  EXPECT_EQ(engine.jit_stats().compilations, 1u);
}

TEST(Jit, FirstCallSlowerThanWarmCalls) {
  // Generous compile cost so the effect dwarfs timer noise — the Table 6
  // first-request mechanism in isolation.
  EngineOptions options;
  options.jit.compile_ns_per_byte = 20000;  // 20 us per bytecode byte
  ExecutionEngine engine(
      assemble(".method f 0 0\nldc 1\nldc 2\nadd\nret\n.end\n"), options);
  util::Stopwatch first;
  engine.call("f");
  const double first_ms = first.elapsed_ms();
  util::Stopwatch warm;
  for (int i = 0; i < 10; ++i) engine.call("f");
  const double warm_ms = warm.elapsed_ms() / 10.0;
  EXPECT_GT(first_ms, warm_ms * 3.0);
}

TEST(Jit, FlushCacheRestoresColdStart) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(
      assemble(".method f 0 0\nldc 1\nret\n.end\n"), options);
  engine.call("f");
  engine.flush_jit_cache();
  engine.call("f");
  EXPECT_EQ(engine.jit_stats().compilations, 2u);
}

TEST(Jit, CompileTimeIsTracked) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 5000;
  ExecutionEngine engine(
      assemble(".method f 0 0\nldc 1\nret\n.end\n"), options);
  engine.call("f");
  EXPECT_GT(engine.jit_stats().total_compile_ms, 0.0);
}

TEST(Jit, CompilationVerifies) {
  // An unverifiable method only traps when first invoked (lazy, like the
  // CLI); other methods in the module remain callable.
  Module module = assemble(".method good 0 0\nldc 1\nret\n.end\n");
  MethodDef bad;
  bad.name = "bad";
  bad.code = {static_cast<std::uint8_t>(Op::kAdd),
              static_cast<std::uint8_t>(Op::kRet)};
  module.add_method(std::move(bad));
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(std::move(module), options);
  EXPECT_EQ(engine.call("good").as_int(), 1);
  EXPECT_THROW(engine.call("bad"), util::VerifyError);
}

TEST(Jit, BranchTargetsBecomeInstructionIndices) {
  Module module = assemble(R"(
.method f 0 0
  ldc 1
  brtrue over
  ldc 0
  ret
over:
  ldc 42
  ret
.end
)");
  Jit jit(module, JitOptions{.compile_ns_per_byte = 0});
  const auto& compiled = jit.get(0, {});
  // brtrue is insn 1; its target must be insn index 4 ("over": ldc 42).
  EXPECT_EQ(compiled.code[1].op, Op::kBrTrue);
  EXPECT_EQ(compiled.code[1].imm, 4);
}

}  // namespace
}  // namespace clio::vm

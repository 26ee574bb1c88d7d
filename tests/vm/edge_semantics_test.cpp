#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"
#include "vm/assembler.hpp"
#include "vm/runtime.hpp"

namespace clio::vm {
namespace {

using util::ExecutionError;

const char* const kArithSource = R"(
.method div_ab 2 0
  ldarg 0
  ldarg 1
  div
  ret
.end

.method rem_ab 2 0
  ldarg 0
  ldarg 1
  rem
  ret
.end

.method f2i 1 0
  ldarg 0
  convf2i
  ret
.end

.method i2f_roundtrip 1 0
  ldarg 0
  convi2f
  convf2i
  ret
.end

.method recurse 1 0
  ldarg 0
  brfalse base
  ldarg 0
  ldc 1
  sub
  call recurse
  ret
base:
  ldc 0
  ret
.end
)";

ExecutionEngine make_engine(std::size_t max_depth = 256) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  options.max_call_depth = max_depth;
  return ExecutionEngine(assemble(kArithSource), options);
}

TEST(EdgeSemanticsTest, DivisionAndRemainderByZeroTrap) {
  auto engine = make_engine();
  EXPECT_EQ(engine.call("div_ab", {Value::from_int(7), Value::from_int(2)})
                .as_int(),
            3);
  EXPECT_THROW(
      engine.call("div_ab", {Value::from_int(7), Value::from_int(0)}),
      ExecutionError);
  EXPECT_THROW(
      engine.call("rem_ab", {Value::from_int(7), Value::from_int(0)}),
      ExecutionError);
}

TEST(EdgeSemanticsTest, Int64MinDividedByMinusOneTraps) {
  // INT64_MIN / -1 overflows i64 (and is UB in C++); managed semantics
  // trap, mirroring ECMA-335 System.OverflowException.
  auto engine = make_engine();
  const auto min = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW(
      engine.call("div_ab", {Value::from_int(min), Value::from_int(-1)}),
      ExecutionError);
  EXPECT_THROW(
      engine.call("rem_ab", {Value::from_int(min), Value::from_int(-1)}),
      ExecutionError);
  // One step inside the range is fine.
  EXPECT_EQ(engine.call("div_ab", {Value::from_int(min + 1),
                                   Value::from_int(-1)})
                .as_int(),
            std::numeric_limits<std::int64_t>::max());
}

const char* const kWrapSource = R"(
.method add_ab 2 0
  ldarg 0
  ldarg 1
  add
  ret
.end

.method sub_ab 2 0
  ldarg 0
  ldarg 1
  sub
  ret
.end

.method mul_ab 2 0
  ldarg 0
  ldarg 1
  mul
  ret
.end

.method neg_a 1 0
  ldarg 0
  neg
  ret
.end

.method inc_a 1 0
  ldarg 0
  ldc 1
  add
  starg 0
  ldarg 0
  ret
.end

.method dec_a 1 0
  ldarg 0
  ldc 1
  sub
  ret
.end

.method mul_a_minus_one 1 0
  ldarg 0
  nop
  ldc -1
  mul
  ret
.end
)";

TEST(EdgeSemanticsTest, IntegerArithmeticWrapsAtInt64Bounds) {
  // ECMA-335 add/sub/mul/neg wrap modulo 2^64 (in C++ the overflow is
  // undefined; the CI UBSan job checks that none happens).  Both tiers:
  // the plain decode runs the base handlers, the fused stream the
  // superinstructions (kAddTS, kSubTS, kMulTS, kIncS, kSubSI, kMulTI).
  const auto min = std::numeric_limits<std::int64_t>::min();
  const auto max = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t threshold : {UINT64_MAX, std::uint64_t{1}}) {
    EngineOptions options;
    options.jit.compile_ns_per_byte = 0;
    options.jit.compile_threshold = threshold;
    ExecutionEngine engine(assemble(kWrapSource), options);
    const auto call2 = [&](const char* method, std::int64_t a,
                           std::int64_t b) {
      return engine.call(method, {Value::from_int(a), Value::from_int(b)})
          .as_int();
    };
    const auto call1 = [&](const char* method, std::int64_t a) {
      return engine.call(method, {Value::from_int(a)}).as_int();
    };
    EXPECT_EQ(call2("add_ab", max, 1), min) << threshold;
    EXPECT_EQ(call2("sub_ab", min, 1), max) << threshold;
    EXPECT_EQ(call2("mul_ab", min, -1), min) << threshold;
    EXPECT_EQ(call1("neg_a", min), min) << threshold;
    EXPECT_EQ(call1("inc_a", max), min) << threshold;
    EXPECT_EQ(call1("dec_a", min), max) << threshold;
    EXPECT_EQ(call1("mul_a_minus_one", min), min) << threshold;
    EXPECT_EQ(call2("mul_ab", max, 2), -2) << threshold;
  }
}

TEST(EdgeSemanticsTest, FloatToIntConversionCorners) {
  auto engine = make_engine();
  const auto conv = [&](double f) {
    return engine.call("f2i", {Value::from_float(f)}).as_int();
  };
  EXPECT_EQ(conv(1.5), 2);  // llround: to nearest
  EXPECT_EQ(conv(-2.5), -3);
  // -2^63 is exactly representable and in range...
  EXPECT_EQ(conv(-9223372036854775808.0),
            std::numeric_limits<std::int64_t>::min());
  // ...but +2^63 is the first value OUT of range (INT64_MAX is not a
  // double), as are infinities and NaN.
  EXPECT_THROW(conv(9223372036854775808.0), ExecutionError);
  EXPECT_THROW(conv(std::numeric_limits<double>::infinity()),
               ExecutionError);
  EXPECT_THROW(conv(-std::numeric_limits<double>::infinity()),
               ExecutionError);
  EXPECT_THROW(conv(std::numeric_limits<double>::quiet_NaN()),
               ExecutionError);
}

TEST(EdgeSemanticsTest, IntFloatRoundTripIsLossyPastDoublePrecision) {
  auto engine = make_engine();
  const auto rt = [&](std::int64_t v) {
    return engine.call("i2f_roundtrip", {Value::from_int(v)}).as_int();
  };
  EXPECT_EQ(rt(0), 0);
  EXPECT_EQ(rt(-12345), -12345);
  // 2^53 round-trips exactly; 2^53 + 1 is not a double and lands on a
  // neighbour — managed conv does not pretend otherwise.
  const std::int64_t exact = 1LL << 53;
  EXPECT_EQ(rt(exact), exact);
  EXPECT_NE(rt(exact + 1), exact + 1);
}

TEST(EdgeSemanticsTest, CallDepthOverflowsAtExactBoundary) {
  // recurse(n) occupies n + 1 frames.  With max_call_depth = 8, 8 frames
  // (n = 7) must succeed and 9 frames (n = 8) must trap — the off-by-one
  // either way is a real engine bug.
  auto engine = make_engine(/*max_depth=*/8);
  EXPECT_EQ(engine.call("recurse", {Value::from_int(7)}).as_int(), 0);
  EXPECT_THROW(engine.call("recurse", {Value::from_int(8)}),
               ExecutionError);
  // The failed call must not corrupt the engine: the boundary case still
  // works afterwards.
  EXPECT_EQ(engine.call("recurse", {Value::from_int(7)}).as_int(), 0);
}

// One method per operand class that can reach a handler with the wrong
// kind.  arg 0 is always a byte buffer.
const char* const kOperandTrapSource = R"(
.method obj_into_int_binop 1 0
  ldarg 0
  ldc 1
  add
  ret
.end

.method int_into_float_binop 1 0
  ldc 1
  ldcf 2.0
  addf
  convf2i
  ret
.end

.method float_into_brtrue 1 0
  ldcf 1.0
  brtrue yes
  ldc 0
  ret
yes:
  ldc 1
  ret
.end

.method ldelem_on_int 1 0
  ldc 5
  ldc 0
  ldelem
  ret
.end

.method ldelem_on_string 1 0
  ldstr "abc"
  ldc 0
  ldelem
  ret
.end

.method stelem_float_into_buffer 1 0
  ldarg 0
  ldc 0
  ldcf 1.5
  stelem
  ldc 0
  ret
.end

.method arrlen_on_int 1 0
  ldc 3
  arrlen
  ret
.end

.method syscall_int_for_buffer 1 0
  ldc 3
  syscall buf_len
  ret
.end

.method syscall_string_for_buffer 1 0
  ldstr "abc"
  syscall buf_len
  ret
.end

.method buffer_sum 1 0
  ldarg 0
  ldc 0
  ldelem
  ldarg 0
  ldc 1
  ldelem
  add
  ldarg 0
  arrlen
  add
  ret
.end
)";

TEST(EdgeSemanticsTest, OperandKindTrapsKeepTheirTextAndUnwindFully) {
  EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  ExecutionEngine engine(assemble(kOperandTrapSource), options);
  const ObjPtr buf = std::make_shared<Obj>(
      std::vector<std::byte>{std::byte{3}, std::byte{4}});
  const struct {
    const char* method;
    const char* what;
  } cases[] = {
      {"obj_into_int_binop", "Value: expected int"},
      {"int_into_float_binop", "Value: expected float"},
      {"float_into_brtrue", "Value: expected int"},
      {"ldelem_on_int", "Value: expected object reference"},
      {"ldelem_on_string", "interpreter: ldelem needs an array or buffer"},
      {"stelem_float_into_buffer", "Value: expected int"},
      {"arrlen_on_int", "Value: expected object reference"},
      {"syscall_int_for_buffer", "Value: expected object reference"},
      {"syscall_string_for_buffer", "vm: buf_len needs a buffer"},
  };
  for (const auto& c : cases) {
    try {
      engine.call(c.method, {Value::from_obj(buf)});
      ADD_FAILURE() << c.method << " did not trap";
    } catch (const ExecutionError& e) {
      EXPECT_STREQ(e.what(), c.what) << c.method;
    }
    // The trapping frame is gone: the same engine runs the next call
    // correctly, and the buffer is referenced only here again.
    EXPECT_EQ(buf.use_count(), 1) << c.method;
    EXPECT_EQ(engine.call("buffer_sum", {Value::from_obj(buf)}).as_int(),
              3 + 4 + 2)
        << c.method;
  }
  EXPECT_EQ(buf->bytes()[0], std::byte{3});  // the failed stelem wrote nothing
}

}  // namespace
}  // namespace clio::vm

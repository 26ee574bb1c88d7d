#include "vm/verifier.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "vm/assembler.hpp"
#include "vm/corelib.hpp"
#include "vm/decode.hpp"
#include "vm/kernels.hpp"

namespace clio::vm {
namespace {

Module assemble_one(const char* body) {
  return assemble(std::string(".method f 0 2\n") + body + "\n.end\n");
}

TEST(Verifier, AcceptsStraightLineCode) {
  auto module = assemble_one("ldc 1\nldc 2\nadd\nret");
  EXPECT_EQ(verify_method(module, module.method(0)), 2u);
}

TEST(Verifier, ComputesMaxStack) {
  auto module = assemble_one("ldc 1\nldc 2\nldc 3\nadd\nadd\nret");
  EXPECT_EQ(verify_method(module, module.method(0)), 3u);
}

TEST(Verifier, RejectsStackUnderflow) {
  auto module = assemble_one("add\nret");
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsResidualStackAtRet) {
  auto module = assemble_one("ldc 1\nldc 2\nret");
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsFallingOffTheEnd) {
  auto module = assemble_one("ldc 1\npop");
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsEmptyBody) {
  Module module;
  MethodDef m;
  m.name = "empty";
  module.add_method(std::move(m));
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsInconsistentJoinDepth) {
  // One path pushes an extra value before the join.
  auto module = assemble_one(R"(
  ldc 1
  brtrue extra
  ldc 7
  br join
extra:
  ldc 7
  ldc 8
join:
  ret)");
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, AcceptsConsistentDiamond) {
  auto module = assemble_one(R"(
  ldc 1
  brtrue left
  ldc 10
  br join
left:
  ldc 20
join:
  ret)");
  EXPECT_NO_THROW(static_cast<void>(verify_method(module, module.method(0))));
}

TEST(Verifier, RejectsLocalIndexOutOfRange) {
  auto module = assemble_one("ldloc 5\nret");  // only 2 locals
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsArgIndexOutOfRange) {
  auto module = assemble_one("ldarg 0\nret");  // zero args
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsBranchIntoOperandBytes) {
  // Hand-craft: br to offset 1 (inside the br's own operand).
  Module module;
  MethodDef m;
  m.name = "evil";
  m.code = {static_cast<std::uint8_t>(Op::kBr), 1, 0, 0, 0,
            static_cast<std::uint8_t>(Op::kRet)};
  module.add_method(std::move(m));
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsTruncatedOperand) {
  Module module;
  MethodDef m;
  m.name = "cut";
  m.code = {static_cast<std::uint8_t>(Op::kLdcI8), 1, 2};  // needs 8 bytes
  module.add_method(std::move(m));
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsUnknownOpcode) {
  Module module;
  MethodDef m;
  m.name = "junk";
  m.code = {0xee};
  module.add_method(std::move(m));
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, RejectsCallArityUnderflow) {
  auto source = R"(
.method main 0 0
  call callee
  ret
.end
.method callee 2 0
  ldarg 0
  ret
.end
)";
  auto module = assemble(source);
  EXPECT_THROW(static_cast<void>(verify_method(module, module.method(0))),
               util::VerifyError);
}

TEST(Verifier, VerifyModuleStampsMaxStack) {
  auto module = assemble(R"(
.method a 0 0
  ldc 1
  ldc 2
  ldc 3
  add
  add
  ret
.end
.method b 0 0
  ldc 1
  ret
.end
)");
  verify_module(module);
  EXPECT_EQ(module.method(0).max_stack, 3u);
  EXPECT_EQ(module.method(1).max_stack, 1u);
}

TEST(Verifier, LoopsVerifyCleanly) {
  auto module = assemble(R"(
.method sum 1 2
  ldc 0
  stloc 0
  ldc 0
  stloc 1
top:
  ldloc 1
  ldarg 0
  cmpge
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
)");
  EXPECT_NO_THROW(verify_module(module));
}

// ---- the kind pass ----

constexpr VKind kAllKinds[] = {VKind::kUnknown, VKind::kInt,
                               VKind::kFloat,   VKind::kBuffer,
                               VKind::kArray,   VKind::kString};

TEST(VerifierKinds, EverySyscallHasAResultKind) {
  // corelib.cpp static_asserts one row per SysCall; this pins the rows
  // the kind pass relies on.
  for (std::uint16_t id = 0;
       id < static_cast<std::uint16_t>(SysCall::kSysCallCount_); ++id) {
    const auto call = static_cast<SysCall>(id);
    const SysResult expected = call == SysCall::kBufNew ? SysResult::kBuffer
                               : call == SysCall::kPrintI64
                                   ? SysResult::kFirstArg
                                   : SysResult::kInt;
    EXPECT_EQ(syscall_result(call), expected) << syscall_name(call);
  }
}

TEST(VerifierKinds, KindsNeverRejectAProgram) {
  // Whatever the argument kinds, the pass accepts what depth verification
  // accepts and needs the same stack.
  for (const char* source :
       {kernels::kBitapSource, kernels::kDmineSource, kernels::kSpinSource}) {
    const Module module = assemble(source);
    const MethodDef& method = module.method(0);
    const std::uint32_t max_stack = verify_method(module, method);
    for (const VKind kind : kAllKinds) {
      const std::vector<VKind> args(method.num_args, kind);
      EXPECT_EQ(verify_kinds(module, method, args).max_stack, max_stack)
          << method.name;
    }
  }
  // Wrong kinds everywhere still verify: they trap when they run.
  auto module = assemble_one(
      "ldcf 1.5\nldstr \"s\"\nadd\nldc 3\nsyscall buf_new\nldc 0\n"
      "ldelem\nconvi2f\npop\nret");
  EXPECT_NO_THROW(static_cast<void>(verify_method(module, module.method(0))));
}

TEST(VerifierKinds, JoinOfIntAndFloatIsUnknownAtTheLoopHead) {
  // Local 0 enters the loop as an int and comes round the back edge as a
  // float; local 1 is an int on both.
  auto module = assemble_one(R"(
  ldc 0
  stloc 0
top:
  ldloc 1
  ldc 3
  cmpge
  brtrue done
  ldcf 2.5
  stloc 0
  ldloc 1
  ldc 1
  add
  stloc 1
  br top
done:
  ldc 0
  ret)");
  const Verified verified = verify_kinds(module, module.method(0), {});
  const std::size_t head = 2;  // ldloc 1, the first instruction after top
  ASSERT_EQ(verified.kinds[head].size(), 2u);
  EXPECT_EQ(verified.kinds[head][0], VKind::kUnknown);
  EXPECT_EQ(verified.kinds[head][1], VKind::kInt);
  EXPECT_EQ(verified.kinds[0][0], VKind::kInt);  // locals start as ints
}

TEST(VerifierKinds, DmineScanLoopIsProvenUnderVmScanKinds) {
  // locals: 0 handle, 1 buf, 2 got, 3 total, 4 rec, 5 numc, 6 n, 7 c,
  // 8 i, 9 j, 10 item, 11 found (kernels.cpp).  The scan loop reads buf,
  // rec, j, n and item.
  const Module module = assemble(kernels::kDmineSource);
  const MethodDef& method = module.method(0);
  const DecodedStream stream = decode_stream(method);
  std::size_t head = 0;  // ldloc 9; ldloc 6: the scan loop's test
  while (head + 1 < stream.insns.size() &&
         !(stream.insns[head].op == Op::kLdLoc &&
           stream.insns[head].operand == 9 &&
           stream.insns[head + 1].op == Op::kLdLoc &&
           stream.insns[head + 1].operand == 6)) {
    ++head;
  }
  ASSERT_LT(head + 1, stream.insns.size());
  const auto local = [&](const Verified& v, std::size_t index) {
    return v.kinds[head][method.num_args + index];
  };

  const std::vector<VKind> scan = {VKind::kString, VKind::kBuffer,
                                   VKind::kInt, VKind::kInt};
  const Verified proven = verify_kinds(module, method, scan);
  EXPECT_EQ(local(proven, 1), VKind::kBuffer);
  for (const std::size_t index : {4, 6, 9, 10}) {
    EXPECT_EQ(local(proven, index), VKind::kInt) << "local " << index;
  }

  const std::vector<VKind> unknown(4, VKind::kUnknown);
  const Verified blind = verify_kinds(module, method, unknown);
  EXPECT_EQ(local(blind, 1), VKind::kBuffer);  // buf_new's result
  EXPECT_EQ(local(blind, 9), VKind::kInt);
  EXPECT_EQ(local(blind, 10), VKind::kUnknown);  // an unknown's element
}

TEST(VerifierKinds, KindOfReadsTheRunTimeKind) {
  EXPECT_EQ(kind_of(Value::from_int(1)), VKind::kInt);
  EXPECT_EQ(kind_of(Value::from_float(1)), VKind::kFloat);
  EXPECT_EQ(kind_of(kernels::make_buffer({})), VKind::kBuffer);
  EXPECT_EQ(kind_of(kernels::bitap_masks("a")), VKind::kArray);
  EXPECT_EQ(kind_of(kernels::make_string("a")), VKind::kString);
  EXPECT_EQ(kind_of(Value::from_obj(nullptr)), VKind::kUnknown);
}

}  // namespace
}  // namespace clio::vm

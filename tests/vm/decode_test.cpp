// Regression tests for the shared decode/branch-boundary contract
// (vm/decode.hpp): the verifier and the JIT resolve branch targets through
// the same helper, so a malformed branch fails with the same *typed*
// VerifyError from both — historically the JIT resolved targets with
// unordered_map::at() and a branch to a non-boundary offset escaped as raw
// std::out_of_range.
#include "vm/decode.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "util/error.hpp"
#include "vm/jit.hpp"
#include "vm/module.hpp"
#include "vm/verifier.hpp"

namespace clio::vm {
namespace {

using util::VerifyError;

void emit(std::vector<std::uint8_t>& code, Op op) {
  code.push_back(static_cast<std::uint8_t>(op));
}

void emit_i64(std::vector<std::uint8_t>& code, Op op, std::int64_t imm) {
  emit(code, op);
  for (int i = 0; i < 8; ++i) {
    code.push_back(static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(imm) >> (8 * i)) & 0xff));
  }
}

void emit_u32(std::vector<std::uint8_t>& code, Op op, std::uint32_t v) {
  emit(code, op);
  for (int i = 0; i < 4; ++i) {
    code.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

/// ldc 0 (9 bytes, offsets 0..8) / br <target> / ret — `target` can be
/// aimed into the middle of the ldc or past the end of the stream.
Module module_with_branch_to(std::uint32_t target) {
  Module module;
  MethodDef method;
  method.name = "bad_branch";
  std::vector<std::uint8_t> code;
  emit_i64(code, Op::kLdcI8, 0);
  emit_u32(code, Op::kBr, target);
  emit(code, Op::kRet);
  method.code = std::move(code);
  module.add_method(std::move(method));
  return module;
}

TEST(DecodeTest, StreamMapsEveryInstructionBoundary) {
  Module module = module_with_branch_to(14);  // 14 = the ret: valid
  const DecodedStream stream = decode_stream(module.method(0));
  ASSERT_EQ(stream.insns.size(), 3u);
  EXPECT_EQ(stream.insns[0].op, Op::kLdcI8);
  EXPECT_EQ(stream.insns[1].op, Op::kBr);
  EXPECT_EQ(stream.insns[2].op, Op::kRet);
  EXPECT_EQ(branch_target(stream, 14, module.method(0)), 2u);
  EXPECT_EQ(branch_target(stream, 0, module.method(0)), 0u);
}

TEST(DecodeTest, BranchIntoInstructionMiddleIsTypedInVerifierAndJit) {
  // Offset 5 lands inside the ldc's immediate.
  Module module = module_with_branch_to(5);
  EXPECT_THROW((void)verify_method(module, module.method(0)), VerifyError);
  Jit jit(module, JitOptions{});
  try {
    jit.get(0, {});
    FAIL() << "JIT accepted a branch into an instruction";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("non-boundary"), std::string::npos)
        << e.what();
  }
  // Anything else (std::out_of_range in particular) fails the test frame.
}

TEST(DecodeTest, BranchToEndOfCodeIsTypedNotOutOfRange) {
  // Offset 15 == code size: one past the last instruction.  This is the
  // exact shape that used to escape as unordered_map::at's out_of_range.
  Module module = module_with_branch_to(15);
  EXPECT_THROW((void)verify_method(module, module.method(0)), VerifyError);
  Jit jit(module, JitOptions{});
  EXPECT_THROW(jit.get(0, {}), VerifyError);
}

TEST(DecodeTest, TruncatedOperandIsTyped) {
  Module module;
  MethodDef method;
  method.name = "truncated";
  std::vector<std::uint8_t> code;
  emit(code, Op::kLdcI8);  // promises 8 operand bytes...
  code.push_back(0x01);    // ...delivers one
  method.code = std::move(code);
  module.add_method(std::move(method));
  EXPECT_THROW(decode_stream(module.method(0)), VerifyError);
  Jit jit(module, JitOptions{});
  EXPECT_THROW(jit.get(0, {}), VerifyError);
}

}  // namespace
}  // namespace clio::vm

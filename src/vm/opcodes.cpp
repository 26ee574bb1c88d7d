#include "vm/opcodes.hpp"

#include <array>

#include "util/error.hpp"

namespace clio::vm {
namespace {

constexpr std::size_t kCount = static_cast<std::size_t>(Op::kOpCount_);

constexpr std::array<OpInfo, kCount> kOpTable = {{
    {"nop", OperandKind::kNone, 0, 0},
    {"ldc", OperandKind::kImm64, 0, 1},
    {"ldcf", OperandKind::kImm64, 0, 1},
    {"ldstr", OperandKind::kU16, 0, 1},
    {"ldloc", OperandKind::kU16, 0, 1},
    {"stloc", OperandKind::kU16, 1, 0},
    {"ldarg", OperandKind::kU16, 0, 1},
    {"starg", OperandKind::kU16, 1, 0},
    {"dup", OperandKind::kNone, 1, 2},
    {"pop", OperandKind::kNone, 1, 0},
    {"add", OperandKind::kNone, 2, 1},
    {"sub", OperandKind::kNone, 2, 1},
    {"mul", OperandKind::kNone, 2, 1},
    {"div", OperandKind::kNone, 2, 1},
    {"rem", OperandKind::kNone, 2, 1},
    {"neg", OperandKind::kNone, 1, 1},
    {"and", OperandKind::kNone, 2, 1},
    {"or", OperandKind::kNone, 2, 1},
    {"xor", OperandKind::kNone, 2, 1},
    {"shl", OperandKind::kNone, 2, 1},
    {"shr", OperandKind::kNone, 2, 1},
    {"addf", OperandKind::kNone, 2, 1},
    {"subf", OperandKind::kNone, 2, 1},
    {"mulf", OperandKind::kNone, 2, 1},
    {"divf", OperandKind::kNone, 2, 1},
    {"negf", OperandKind::kNone, 1, 1},
    {"convi2f", OperandKind::kNone, 1, 1},
    {"convf2i", OperandKind::kNone, 1, 1},
    {"cmpeq", OperandKind::kNone, 2, 1},
    {"cmpne", OperandKind::kNone, 2, 1},
    {"cmplt", OperandKind::kNone, 2, 1},
    {"cmple", OperandKind::kNone, 2, 1},
    {"cmpgt", OperandKind::kNone, 2, 1},
    {"cmpge", OperandKind::kNone, 2, 1},
    {"br", OperandKind::kU32, 0, 0},
    {"brtrue", OperandKind::kU32, 1, 0},
    {"brfalse", OperandKind::kU32, 1, 0},
    {"call", OperandKind::kU16, -1, 1},
    {"ret", OperandKind::kNone, 1, 0},
    {"newarr", OperandKind::kNone, 1, 1},
    {"ldelem", OperandKind::kNone, 2, 1},
    {"stelem", OperandKind::kNone, 3, 0},
    {"arrlen", OperandKind::kNone, 1, 1},
    {"syscall", OperandKind::kU16, -1, 1},
}};

}  // namespace

const OpInfo& op_info(Op op) {
  const auto idx = static_cast<std::size_t>(op);
  util::check<util::ConfigError>(idx < kCount, "op_info: invalid opcode");
  return kOpTable[idx];
}

std::optional<Op> op_by_name(std::string_view name) {
  for (std::size_t i = 0; i < kCount; ++i) {
    if (kOpTable[i].name == name) return static_cast<Op>(i);
  }
  return std::nullopt;
}

std::size_t encoded_size(Op op) {
  switch (op_info(op).operand) {
    case OperandKind::kNone:
      return 1;
    case OperandKind::kImm64:
      return 9;
    case OperandKind::kU16:
      return 3;
    case OperandKind::kU32:
      return 5;
  }
  return 1;
}

}  // namespace clio::vm

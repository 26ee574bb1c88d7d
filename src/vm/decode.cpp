#include "vm/decode.hpp"

#include <cstring>


namespace clio::vm {

DecodedStream decode_stream(const MethodDef& method) {
  const auto& code = method.code;
  DecodedStream stream;
  std::size_t at = 0;
  while (at < code.size()) {
    verify_that(code[at] < static_cast<std::uint8_t>(Op::kOpCount_),
                "verify: bad opcode at offset ", at, " in '", method.name,
                "'");
    const auto op = static_cast<Op>(code[at]);
    const std::size_t size = encoded_size(op);
    verify_that(at + size <= code.size(),
                "verify: truncated operand at offset ", at, " in '",
                method.name, "'");
    std::uint64_t operand = 0;
    switch (op_info(op).operand) {
      case OperandKind::kNone:
        break;
      case OperandKind::kImm64:
        std::memcpy(&operand, code.data() + at + 1, 8);
        break;
      case OperandKind::kU16:
        operand = static_cast<std::uint64_t>(code[at + 1]) |
                  (static_cast<std::uint64_t>(code[at + 2]) << 8);
        break;
      case OperandKind::kU32: {
        std::uint32_t v = 0;
        std::memcpy(&v, code.data() + at + 1, 4);
        operand = v;
        break;
      }
    }
    stream.boundary_to_index.emplace(static_cast<std::uint32_t>(at),
                                     stream.insns.size());
    stream.insns.push_back(
        RawInsn{op, static_cast<std::uint32_t>(at), operand});
    at += size;
  }
  return stream;
}

std::size_t branch_target(const DecodedStream& stream, std::uint64_t offset,
                          const MethodDef& method) {
  const auto it =
      stream.boundary_to_index.find(static_cast<std::uint32_t>(offset));
  verify_that(offset <= UINT32_MAX && it != stream.boundary_to_index.end(),
              "verify: branch to non-boundary offset ", offset, " in '",
              method.name, "'");
  return it->second;
}

}  // namespace clio::vm

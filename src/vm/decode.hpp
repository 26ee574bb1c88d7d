#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/log.hpp"
#include "vm/module.hpp"
#include "vm/opcodes.hpp"

namespace clio::vm {

/// Throws util::VerifyError with the message `parts` make when `ok` is
/// false.  The message is formatted only then: verification runs on a
/// method's first call and again at tier-up, and formatting one message
/// per instruction cost more than the whole pass.
template <typename... Parts>
void verify_that(bool ok, const Parts&... parts) {
  if (!ok) [[unlikely]] {
    throw util::VerifyError(util::cat(parts...));
  }
}

/// One linearly-decoded instruction before branch resolution: the opcode,
/// the byte offset it was decoded at, and its raw operand bits (for
/// kLdcF64 the operand holds the f64 bit pattern).
struct RawInsn {
  Op op = Op::kNop;
  std::uint32_t offset = 0;
  std::uint64_t operand = 0;
};

/// The single boundary contract shared by the verifier and the JIT: one
/// decode pass over a method body, producing the instruction list and the
/// byte-offset -> instruction-index map.  Both consumers resolve branch
/// targets through branch_target() below, so an offset the decode pass did
/// not mark as a boundary (mid-instruction, or one past the end of the
/// code) fails the same typed way everywhere — it can never escape one
/// layer as a raw std::out_of_range while passing the other.
struct DecodedStream {
  std::vector<RawInsn> insns;
  std::unordered_map<std::uint32_t, std::size_t> boundary_to_index;
};

/// Decodes `method` linearly.  Throws util::VerifyError on an unknown
/// opcode or a truncated operand.
[[nodiscard]] DecodedStream decode_stream(const MethodDef& method);

/// Resolves a branch byte offset to an instruction index; throws
/// util::VerifyError naming the method when the offset is not an
/// instruction boundary.
[[nodiscard]] std::size_t branch_target(const DecodedStream& stream,
                                        std::uint64_t offset,
                                        const MethodDef& method);

}  // namespace clio::vm

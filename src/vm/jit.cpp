#include "vm/jit.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "vm/decode.hpp"
#include "vm/verifier.hpp"

namespace clio::vm {

Jit::Jit(const Module& module, JitOptions options)
    : module_(module), options_(options), cache_(module.num_methods()) {}

const CompiledMethod& Jit::get(std::uint16_t method_index) {
  util::check<util::ConfigError>(method_index < cache_.size(),
                                 "Jit: method index out of range");
  Slot& slot = cache_[method_index];
  if (!slot.code.has_value()) {
    slot.code = decode_method(method_index);
  }
  ++slot.calls;
  const std::uint64_t threshold = std::max<std::uint64_t>(
      options_.compile_threshold, 1);
  if (slot.tiered_up) {
    stats_.cache_hits++;
  } else if (slot.calls >= threshold) {
    run_codegen(method_index);
    slot.tiered_up = true;
  } else {
    stats_.interpreted_calls++;
  }
  return *slot.code;
}

const ObjPtr& Jit::interned_string(std::size_t index) {
  // Lazy: the module may intern strings after this Jit was built.  Only
  // ever called under the engine's execution lock.
  if (index >= interned_.size()) {
    util::check<util::ConfigError>(index < module_.num_strings(),
                                   "Jit: string index out of range");
    interned_.resize(module_.num_strings());
  }
  ObjPtr& slot = interned_[index];
  if (slot == nullptr) {
    slot = std::make_shared<Obj>(module_.string_at(index));
  }
  return slot;
}

CompiledMethod Jit::decode_method(std::uint16_t method_index) {
  const MethodDef& method = module_.method(method_index);

  // Verification is part of the load/compile pipeline, as in the CLI.
  CompiledMethod compiled;
  compiled.max_stack = verify_method(module_, method);

  // Decode pass over the same stream the verifier saw: byte offsets ->
  // instruction indices.
  const DecodedStream stream = decode_stream(method);
  compiled.code.reserve(stream.insns.size());
  for (const RawInsn& raw : stream.insns) {
    DecodedInsn insn;
    insn.op = raw.op;
    if (raw.op == Op::kLdcF64) {
      std::memcpy(&insn.fimm, &raw.operand, 8);
    } else if (raw.op == Op::kBr || raw.op == Op::kBrTrue ||
               raw.op == Op::kBrFalse) {
      // Branch resolution through the shared boundary contract: a target
      // the verifier would reject surfaces as the same typed VerifyError
      // here, never as a raw std::out_of_range.
      insn.imm = static_cast<std::int64_t>(
          branch_target(stream, raw.operand, method));
    } else {
      insn.imm = static_cast<std::int64_t>(raw.operand);
    }
    compiled.code.push_back(insn);
  }
  return compiled;
}

void Jit::run_codegen(std::uint16_t method_index) {
  util::Stopwatch watch;
  // Modeled code-generation cost, realized as real CPU time so first-call
  // (or, with a warm-up tier, threshold-crossing) latency shows up in
  // wall-clock measurements exactly like SSCLI's JIT.
  if (options_.compile_ns_per_byte > 0) {
    util::spin_for_ns(options_.compile_ns_per_byte *
                      static_cast<std::int64_t>(
                          module_.method(method_index).code.size()));
  }
  stats_.compilations++;
  stats_.total_compile_ms += watch.elapsed_ms();
}

void Jit::flush_cache() {
  for (auto& slot : cache_) slot = Slot{};
}

}  // namespace clio::vm

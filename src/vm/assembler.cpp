#include "vm/assembler.hpp"

#include <charconv>
#include <cstring>
#include <unordered_map>

#include "util/error.hpp"
#include "util/log.hpp"
#include "vm/corelib.hpp"

namespace clio::vm {
namespace {

using util::cat;
using util::ParseError;

struct PendingFixup {
  std::size_t code_offset;   ///< where the u32/u16 operand lives
  std::string symbol;        ///< label or method name
  std::size_t line;
  std::size_t method_ordinal;  ///< index the owning method will get
};

void put_u16(std::vector<std::uint8_t>& code, std::uint16_t v) {
  code.push_back(static_cast<std::uint8_t>(v & 0xff));
  code.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& code, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    code.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& code, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    code.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void patch_u32(std::vector<std::uint8_t>& code, std::size_t at,
               std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    code[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
  }
}

void patch_u16(std::vector<std::uint8_t>& code, std::size_t at,
               std::uint16_t v) {
  code[at] = static_cast<std::uint8_t>(v & 0xff);
  code[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits "mnemonic rest" on first whitespace.
std::pair<std::string_view, std::string_view> split_word(std::string_view s) {
  const auto pos = s.find_first_of(" \t");
  if (pos == std::string_view::npos) return {s, {}};
  return {s.substr(0, pos), trim(s.substr(pos + 1))};
}

std::int64_t parse_int(std::string_view text, std::size_t line) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  util::check<ParseError>(ec == std::errc{} && ptr == text.data() + text.size(),
                          cat("asm line ", line, ": bad integer '", text, "'"));
  return value;
}

double parse_float(std::string_view text, std::size_t line) {
  // std::from_chars for double is available in GCC 11+.
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  util::check<ParseError>(ec == std::errc{} && ptr == text.data() + text.size(),
                          cat("asm line ", line, ": bad float '", text, "'"));
  return value;
}

}  // namespace

Module assemble(std::string_view source) {
  Module module;
  bool in_method = false;
  MethodDef current;
  std::unordered_map<std::string, std::uint32_t> labels;
  std::vector<PendingFixup> fixups;         // label fixups (per method)
  std::vector<PendingFixup> method_fixups;  // call fixups (module-wide)

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const auto eol = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, eol == std::string_view::npos ? source.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
    ++line_no;
    if (const auto comment = line.find(';'); comment != std::string_view::npos) {
      line = line.substr(0, comment);
    }
    line = trim(line);
    if (line.empty()) continue;

    if (line.starts_with(".method")) {
      util::check<ParseError>(!in_method,
                              cat("asm line ", line_no, ": nested .method"));
      auto [_, rest] = split_word(line);
      auto [name, rest2] = split_word(rest);
      auto [args_text, locals_text] = split_word(rest2);
      util::check<ParseError>(!name.empty() && !args_text.empty() &&
                                  !locals_text.empty(),
                              cat("asm line ", line_no,
                                  ": .method needs <name> <args> <locals>"));
      current = MethodDef{};
      current.name = std::string(name);
      current.num_args =
          static_cast<std::uint16_t>(parse_int(args_text, line_no));
      current.num_locals =
          static_cast<std::uint16_t>(parse_int(locals_text, line_no));
      labels.clear();
      fixups.clear();
      in_method = true;
      continue;
    }
    if (line == ".end") {
      util::check<ParseError>(in_method,
                              cat("asm line ", line_no, ": stray .end"));
      // Resolve label fixups.
      for (const auto& fix : fixups) {
        const auto it = labels.find(fix.symbol);
        util::check<ParseError>(it != labels.end(),
                                cat("asm line ", fix.line,
                                    ": undefined label '", fix.symbol, "'"));
        patch_u32(current.code, fix.code_offset, it->second);
      }
      module.add_method(std::move(current));
      in_method = false;
      continue;
    }

    util::check<ParseError>(in_method, cat("asm line ", line_no,
                                           ": instruction outside .method"));
    // Label?
    if (line.back() == ':') {
      const auto label = std::string(trim(line.substr(0, line.size() - 1)));
      util::check<ParseError>(!label.empty() && !labels.contains(label),
                              cat("asm line ", line_no,
                                  ": bad or duplicate label"));
      labels.emplace(label,
                     static_cast<std::uint32_t>(current.code.size()));
      continue;
    }

    auto [mnemonic, operand] = split_word(line);
    const std::optional<Op> found = op_by_name(mnemonic);
    util::check<ParseError>(found.has_value(),
                            cat("asm line ", line_no, ": unknown mnemonic '",
                                mnemonic, "'"));
    const Op op = *found;
    current.code.push_back(static_cast<std::uint8_t>(op));
    const OpInfo& info = op_info(op);
    switch (info.operand) {
      case OperandKind::kNone:
        util::check<ParseError>(operand.empty(),
                                cat("asm line ", line_no,
                                    ": unexpected operand"));
        break;
      case OperandKind::kImm64: {
        util::check<ParseError>(!operand.empty(),
                                cat("asm line ", line_no,
                                    ": missing immediate"));
        if (op == Op::kLdcF64) {
          const double d = parse_float(operand, line_no);
          std::uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          put_u64(current.code, bits);
        } else {
          put_u64(current.code,
                  static_cast<std::uint64_t>(parse_int(operand, line_no)));
        }
        break;
      }
      case OperandKind::kU16: {
        util::check<ParseError>(!operand.empty(),
                                cat("asm line ", line_no, ": missing operand"));
        if (op == Op::kLdStr) {
          util::check<ParseError>(operand.size() >= 2 &&
                                      operand.front() == '"' &&
                                      operand.back() == '"',
                                  cat("asm line ", line_no,
                                      ": ldstr needs a quoted string"));
          put_u16(current.code, module.add_string(std::string(
                                    operand.substr(1, operand.size() - 2))));
        } else if (op == Op::kCall) {
          // The callee may be defined later: record a fixup against the
          // index this method will get (methods are added in order).
          method_fixups.push_back(PendingFixup{current.code.size(),
                                               std::string(operand), line_no,
                                               module.num_methods()});
          put_u16(current.code, 0xffff);
        } else if (op == Op::kSysCall) {
          const int id = syscall_by_name(operand);
          if (id >= 0) {
            put_u16(current.code, static_cast<std::uint16_t>(id));
          } else {
            put_u16(current.code, static_cast<std::uint16_t>(
                                      parse_int(operand, line_no)));
          }
        } else {
          put_u16(current.code,
                  static_cast<std::uint16_t>(parse_int(operand, line_no)));
        }
        break;
      }
      case OperandKind::kU32: {
        util::check<ParseError>(!operand.empty(),
                                cat("asm line ", line_no, ": missing label"));
        fixups.push_back(PendingFixup{current.code.size(),
                                      std::string(operand), line_no,
                                      module.num_methods()});
        put_u32(current.code, 0xffffffff);
        break;
      }
    }
  }
  util::check<ParseError>(!in_method, "asm: missing .end at end of input");

  // Resolve call fixups now that every method has its final index.
  for (const auto& fix : method_fixups) {
    const std::uint16_t target = module.find_method(fix.symbol);
    auto& code = module.method_mutable(fix.method_ordinal).code;
    patch_u16(code, fix.code_offset, target);
  }
  return module;
}

}  // namespace clio::vm

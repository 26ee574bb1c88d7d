#include "vm/corelib.hpp"

#include <iterator>

#include "util/error.hpp"

namespace clio::vm {
namespace {

struct SysInfo {
  std::string_view name;
  int arity;
  SysResult result;
};

// One row per SysCall, in enum order.
constexpr SysInfo kTable[] = {
    {"print_i64", 1, SysResult::kFirstArg},
    {"clock_ns", 0, SysResult::kInt},
    {"file_open", 2, SysResult::kInt},
    {"file_close", 1, SysResult::kInt},
    {"file_read", 3, SysResult::kInt},
    {"file_write", 3, SysResult::kInt},
    {"file_seek", 2, SysResult::kInt},
    {"file_size", 1, SysResult::kInt},
    {"str_len", 1, SysResult::kInt},
    {"rand_seed", 1, SysResult::kInt},
    {"rand_next", 1, SysResult::kInt},
    {"buf_new", 1, SysResult::kBuffer},
    {"buf_len", 1, SysResult::kInt},
};
static_assert(std::size(kTable) ==
                  static_cast<std::size_t>(SysCall::kSysCallCount_),
              "syscall added: give it a row (name, arity, result kind)");

}  // namespace

int syscall_arity(SysCall id) {
  const auto idx = static_cast<std::size_t>(id);
  util::check<util::ConfigError>(idx < std::size(kTable),
                                 "syscall_arity: bad id");
  return kTable[idx].arity;
}

SysResult syscall_result(SysCall id) {
  const auto idx = static_cast<std::size_t>(id);
  util::check<util::ConfigError>(idx < std::size(kTable),
                                 "syscall_result: bad id");
  return kTable[idx].result;
}

std::string_view syscall_name(SysCall id) {
  const auto idx = static_cast<std::size_t>(id);
  util::check<util::ConfigError>(idx < std::size(kTable),
                                 "syscall_name: bad id");
  return kTable[idx].name;
}

int syscall_by_name(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace clio::vm

#include "vm/module.hpp"

#include "util/error.hpp"

namespace clio::vm {

using util::check;
using util::ConfigError;
using util::ExecutionError;

// Scalars share one payload word: a Value is a tag, 8 bytes and an ObjPtr.
static_assert(sizeof(Value) <= 32);

void Value::trap_kind(const char* what) { throw ExecutionError(what); }

std::uint16_t Module::add_method(MethodDef method) {
  check<ConfigError>(!method.name.empty(), "Module: empty method name");
  check<ConfigError>(!has_method(method.name),
                     "Module: duplicate method '" + method.name + "'");
  check<ConfigError>(methods_.size() < UINT16_MAX, "Module: too many methods");
  methods_.push_back(std::move(method));
  return static_cast<std::uint16_t>(methods_.size() - 1);
}

std::uint16_t Module::add_string(std::string s) {
  for (std::size_t i = 0; i < strings_.size(); ++i) {
    if (strings_[i] == s) return static_cast<std::uint16_t>(i);
  }
  check<ConfigError>(strings_.size() < UINT16_MAX, "Module: too many strings");
  strings_.push_back(std::move(s));
  return static_cast<std::uint16_t>(strings_.size() - 1);
}

const MethodDef& Module::method(std::size_t idx) const {
  check<ConfigError>(idx < methods_.size(), "Module: method index range");
  return methods_[idx];
}

MethodDef& Module::method_mutable(std::size_t idx) {
  check<ConfigError>(idx < methods_.size(), "Module: method index range");
  return methods_[idx];
}

std::uint16_t Module::find_method(std::string_view name) const {
  for (std::size_t i = 0; i < methods_.size(); ++i) {
    if (methods_[i].name == name) return static_cast<std::uint16_t>(i);
  }
  throw ConfigError("Module: no method named '" + std::string(name) + "'");
}

bool Module::has_method(std::string_view name) const {
  for (const auto& m : methods_) {
    if (m.name == name) return true;
  }
  return false;
}

const std::string& Module::string_at(std::size_t idx) const {
  check<ConfigError>(idx < strings_.size(), "Module: string index range");
  return strings_[idx];
}

}  // namespace clio::vm

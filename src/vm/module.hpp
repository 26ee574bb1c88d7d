#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "vm/opcodes.hpp"

namespace clio::vm {

class Obj;
using ObjPtr = std::shared_ptr<Obj>;

/// A managed value: 64-bit integer, double, or object reference.  The
/// verifier proves stack depth for every method and, at tier-up, the kind
/// of the operands the fused tier's superinstructions read
/// (vm/verifier.hpp); those read the payload unchecked.  Every other
/// operand is checked when it is used, and traps on the wrong kind.
class Value {
 public:
  enum class Kind : std::uint8_t { kInt, kFloat, kObj };

  Value() : kind_(Kind::kInt), i_(0) {}
  static Value from_int(std::int64_t v) {
    Value x;
    x.kind_ = Kind::kInt;
    x.i_ = v;
    return x;
  }
  static Value from_float(double v) {
    Value x;
    x.kind_ = Kind::kFloat;
    x.f_ = v;
    return x;
  }
  static Value from_obj(ObjPtr obj) {
    Value x;
    x.kind_ = Kind::kObj;
    x.obj_ = std::move(obj);
    return x;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  /// Accessors trap (ExecutionError) on kind mismatch.  The kind check is
  /// inline; only the throw is out of line.
  [[nodiscard]] std::int64_t as_int() const {
    if (kind_ != Kind::kInt) [[unlikely]] {
      trap_kind("Value: expected int");
    }
    return i_;
  }
  [[nodiscard]] double as_float() const {
    if (kind_ != Kind::kFloat) [[unlikely]] {
      trap_kind("Value: expected float");
    }
    return f_;
  }
  [[nodiscard]] const ObjPtr& as_obj() const {
    if (kind_ != Kind::kObj || obj_ == nullptr) [[unlikely]] {
      trap_kind("Value: expected object reference");
    }
    return obj_;
  }

  /// The payload of a value the kind pass proved an int, or a buffer or
  /// array (so not null), read without the kind check.
  [[nodiscard]] std::int64_t proven_int() const { return i_; }
  [[nodiscard]] const Obj& proven_obj() const { return *obj_; }
  /// The object this value references, or null for a scalar.
  [[nodiscard]] const Obj* obj_if() const { return obj_.get(); }

  /// Overwrite a value that holds no object reference with a scalar, in
  /// place (the interpreter's operand slots).  Only an int or float value,
  /// or a moved-from one, may be overwritten this way.
  void set_int(std::int64_t v) {
    kind_ = Kind::kInt;
    i_ = v;
  }
  /// Overwrite the payload of a value the kind pass proved an int.
  void set_proven_int(std::int64_t v) { i_ = v; }
  void set_float(double v) {
    kind_ = Kind::kFloat;
    f_ = v;
  }

 private:
  [[noreturn]] static void trap_kind(const char* what);

  // Only a kObj value ever holds a non-null obj_.
  Kind kind_;
  union {
    std::int64_t i_;
    double f_;
  };
  ObjPtr obj_;
};

/// Heap object: a managed string, a managed array of values, or a managed
/// byte buffer.  The buffer kind is the I/O workhorse: file syscalls move
/// bytes between a ManagedFile and the buffer's contiguous storage
/// directly, with no per-byte Value boxing (the array path exists for
/// generality and the managed-overhead ablation, not the hot path).
class Obj {
 public:
  explicit Obj(std::string s) : data_(std::move(s)) {}
  explicit Obj(std::vector<Value> a) : data_(std::move(a)) {}
  explicit Obj(std::vector<std::byte> b) : data_(std::move(b)) {}

  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::vector<Value>>(data_);
  }
  [[nodiscard]] bool is_buffer() const {
    return std::holds_alternative<std::vector<std::byte>>(data_);
  }
  [[nodiscard]] std::string& str() { return std::get<std::string>(data_); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(data_);
  }
  [[nodiscard]] std::vector<Value>& arr() {
    return std::get<std::vector<Value>>(data_);
  }
  [[nodiscard]] const std::vector<Value>& arr() const {
    return std::get<std::vector<Value>>(data_);
  }
  [[nodiscard]] std::vector<std::byte>& bytes() {
    return std::get<std::vector<std::byte>>(data_);
  }
  [[nodiscard]] const std::vector<std::byte>& bytes() const {
    return std::get<std::vector<std::byte>>(data_);
  }
  /// The buffer's bytes or the array's elements, or null for another
  /// kind: one read of the variant each (the interpreter's ldelem).
  [[nodiscard]] const std::vector<std::byte>* bytes_if() const {
    return std::get_if<std::vector<std::byte>>(&data_);
  }
  [[nodiscard]] const std::vector<Value>* arr_if() const {
    return std::get_if<std::vector<Value>>(&data_);
  }

 private:
  std::variant<std::string, std::vector<Value>, std::vector<std::byte>> data_;
};

/// Method metadata + raw bytecode, ECMA-335 MethodDef in miniature.
struct MethodDef {
  std::string name;
  std::uint16_t num_args = 0;
  std::uint16_t num_locals = 0;
  std::vector<std::uint8_t> code;
  /// Filled in by the verifier: deepest evaluation stack this method needs.
  std::uint32_t max_stack = 0;
};

/// A loaded assembly: methods plus a string pool (the metadata tables).
class Module {
 public:
  /// Adds a method; returns its index.  Names must be unique.
  std::uint16_t add_method(MethodDef method);

  /// Interns a string; returns its pool index.
  std::uint16_t add_string(std::string s);

  [[nodiscard]] const MethodDef& method(std::size_t idx) const;
  [[nodiscard]] MethodDef& method_mutable(std::size_t idx);
  [[nodiscard]] std::size_t num_methods() const { return methods_.size(); }
  /// Index by name; throws ConfigError when absent.
  [[nodiscard]] std::uint16_t find_method(std::string_view name) const;
  [[nodiscard]] bool has_method(std::string_view name) const;

  [[nodiscard]] const std::string& string_at(std::size_t idx) const;
  [[nodiscard]] std::size_t num_strings() const { return strings_.size(); }

 private:
  std::vector<MethodDef> methods_;
  std::vector<std::string> strings_;
};

}  // namespace clio::vm

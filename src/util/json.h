#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// Minimal JSON tree: enough to round-trip the sweep cell files
/// (sweep/report.h) and to diff campaign views in sweep_check.  Objects preserve
/// insertion order so serialization is deterministic and diffs are
/// stable.  Numbers are doubles with shortest round-trip formatting,
/// matching the BENCH_*.json convention from bench_common.h.
namespace mcs {

class Json {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Json() = default;  // null
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double v) : type_(Type::Number), number_(v) {}
  Json(int v) : type_(Type::Number), number_(v) {}
  Json(std::size_t v) : type_(Type::Number), number_(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(const char* s) : type_(Type::String), string_(s) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool isNull() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool isNumber() const noexcept { return type_ == Type::Number; }
  [[nodiscard]] bool isString() const noexcept { return type_ == Type::String; }
  [[nodiscard]] bool isArray() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool isObject() const noexcept { return type_ == Type::Object; }

  /// Value accessors with fallbacks (no exceptions on type mismatch).
  [[nodiscard]] double asDouble(double fallback = 0.0) const noexcept {
    return type_ == Type::Number ? number_ : fallback;
  }
  [[nodiscard]] bool asBool(bool fallback = false) const noexcept {
    return type_ == Type::Bool ? bool_ : fallback;
  }
  [[nodiscard]] const std::string& asString() const noexcept { return string_; }

  /// Array / object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const noexcept {
    return type_ == Type::Array ? items_.size() : members_.size();
  }

  /// Array access.
  void push_back(Json v) { items_.push_back(std::move(v)); }
  [[nodiscard]] const std::vector<Json>& items() const noexcept { return items_; }
  [[nodiscard]] std::vector<Json>& items() noexcept { return items_; }

  /// Object access: set() appends or overwrites, find() returns nullptr
  /// when absent.
  void set(const std::string& key, Json v);
  [[nodiscard]] const Json* find(const std::string& key) const noexcept;
  [[nodiscard]] Json* find(const std::string& key) noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::vector<std::pair<std::string, Json>>& members() noexcept {
    return members_;
  }

  /// Convenience lookups on objects.
  [[nodiscard]] double numberAt(const std::string& key, double fallback = 0.0) const noexcept {
    const Json* v = find(key);
    return v ? v->asDouble(fallback) : fallback;
  }
  [[nodiscard]] std::string stringAt(const std::string& key,
                                     const std::string& fallback = "") const {
    const Json* v = find(key);
    return v && v->isString() ? v->string_ : fallback;
  }

  /// Compact serialization (`{"a": 1, "b": [2, 3]}`), deterministic in
  /// member order; NaN/inf serialize as null.
  [[nodiscard]] std::string dump() const;

  /// Parses `text` (one JSON value, trailing whitespace allowed).  On
  /// failure returns false with a position-annotated diagnostic in `err`.
  [[nodiscard]] static bool parse(const std::string& text, Json& out, std::string& err);

  /// Reads and parses a JSON file; `err` covers both I/O and syntax.
  [[nodiscard]] static bool parseFile(const std::string& path, Json& out, std::string& err);

 private:
  void dumpTo(std::string& out) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace mcs

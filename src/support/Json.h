//===--- Json.h - JSON writer/reader + bench reports -----------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON layer of the project: a small document model (Value) with
/// a writer and the reader the api::AnalysisSpec parser needs, plus the
/// BenchJson report accumulator the perf-tracking benches share (it
/// lives here so the api layer can serialize specs and reports with the
/// same code the benches use).
///
/// Writer rules: strings are escaped per RFC 8259 (quotes, backslashes,
/// and all control characters); non-finite doubles have no JSON literal
/// and are emitted as the strings "inf" / "-inf" / "nan", which
/// Value::asDouble converts back.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_SUPPORT_JSON_H
#define WDM_SUPPORT_JSON_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wdm::json {

/// Escapes \p S for inclusion inside a JSON string literal (without the
/// surrounding quotes).
std::string escape(std::string_view S);

/// Serializes one double. Finite values print with shortest-round-trip
/// precision; non-finite values become the quoted strings "inf", "-inf",
/// "nan" (JSON has no literals for them).
std::string numberToJson(double V);

/// A JSON document: null, bool, number, string, array, or object.
/// Objects preserve insertion order. Numbers remember whether they were
/// written as integers so 64-bit seeds round-trip exactly.
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Value() = default; ///< Null.
  static Value boolean(bool B);
  static Value number(double V);
  static Value number(uint64_t V);
  static Value number(int64_t V);
  static Value number(int V) { return number(static_cast<int64_t>(V)); }
  static Value number(unsigned V) {
    return number(static_cast<uint64_t>(V));
  }
  static Value string(std::string S);
  static Value array();
  static Value object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool(bool Default = false) const;
  /// Numeric access; the string forms "inf"/"-inf"/"nan" convert too.
  double asDouble(double Default = 0.0) const;
  uint64_t asUint(uint64_t Default = 0) const;
  int64_t asInt(int64_t Default = 0) const;
  const std::string &asString() const; ///< Empty for non-strings.

  // Array interface.
  Value &push(Value V); ///< Returns the pushed element.
  size_t size() const { return Elems.size(); }
  /// Element \p I; a shared null Value when out of range or not an array.
  const Value &at(size_t I) const;

  // Object interface.
  Value &set(std::string Key, Value V); ///< Returns *this (chainable).
  /// Removes member \p Key when present; returns true when removed.
  /// Later members keep their insertion order.
  bool remove(const std::string &Key);
  /// Member lookup; nullptr when missing or not an object.
  const Value *find(const std::string &Key) const;
  /// Object members in insertion order (empty for non-objects).
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }

  /// Compact one-line serialization.
  std::string dump() const;

  /// Parses one JSON document (trailing garbage is an error). Returns a
  /// diagnostic with an offset on failure.
  static Expected<Value> parse(std::string_view Text);

private:
  Kind K = Kind::Null;
  bool B = false;
  // Number storage: the double value plus the integral source form, when
  // the literal was integral, so uint64 seeds survive the round trip.
  enum class NumForm : uint8_t { Double, Int, UInt };
  NumForm NF = NumForm::Double;
  double Num = 0;
  int64_t INum = 0;
  uint64_t UNum = 0;
  std::string Str;
  std::vector<Value> Elems;
  std::vector<std::pair<std::string, Value>> Members;

  void dumpTo(std::string &Out) const;
};

/// Structural merge of two documents: objects merge member-by-member
/// recursively (overlay members win; base members the overlay does not
/// mention survive), every other kind — including arrays — is replaced
/// by the overlay. A null overlay leaves the base untouched. This is the
/// suite layer's defaults-then-overrides composition rule.
Value deepMerge(Value Base, const Value &Overlay);

/// Reads a newline-delimited-JSON file: one document per line. Blank
/// lines and unparseable lines are skipped — a driver killed mid-write
/// leaves a truncated final line, and the checkpoint reader must treat
/// it as "that record never happened" rather than fail. Only a file
/// that cannot be opened is an error.
Expected<std::vector<Value>> readNdjsonFile(const std::string &Path);

/// Accumulates one benchmark report and serializes it as
/// {"bench": ..., "threads": ..., "entries": [{...}, ...]}.
/// field() calls before the first entry() attach to the report root;
/// later calls attach to the most recent entry.
class BenchJson {
public:
  explicit BenchJson(std::string BenchName);

  /// Starts a new entry (one measured unit, e.g. one GSL function or one
  /// microbenchmark).
  BenchJson &entry(const std::string &Name);

  BenchJson &field(const std::string &Key, double Value);
  BenchJson &field(const std::string &Key, uint64_t Value);
  BenchJson &field(const std::string &Key, const std::string &Value);

  /// Convenience: wall seconds + evals + derived evals/sec on the
  /// current entry.
  BenchJson &timing(double WallSeconds, uint64_t Evals);

  std::string json() const;

  /// Writes BENCH_<name>.json into $WDM_BENCH_DIR (default: the current
  /// directory). Returns false on I/O failure.
  bool write() const;

private:
  Value &current();

  std::string BenchName;
  Value Root;    ///< Report-root object.
  Value Entries; ///< Array of entry objects.
};

} // namespace wdm::json

#endif // WDM_SUPPORT_JSON_H

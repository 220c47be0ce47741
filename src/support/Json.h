//===- support/Json.h - Minimal JSON output helpers -------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON writer: string escaping, number formatting and the
/// object/array builders behind every --json and --bench-out record, the
/// fuzzer's report and the metrics snapshot (the trace writer streams
/// its events with the same escaping).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SUPPORT_JSON_H
#define VERIQEC_SUPPORT_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace veriqec {

/// Escapes a string for embedding in a JSON string literal.
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n') {
      Out += "\\n";
    } else if (U < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

/// Renders a string as a JSON string literal.
inline std::string jsonString(const std::string &S) {
  return "\"" + jsonEscape(S) + "\"";
}

/// Formats a double as a JSON number. JSON has no NaN/Infinity tokens,
/// so non-finite values render as "null" — a reader sees an explicit
/// hole instead of a parse error. Finite values use %.12g: enough
/// digits for every quantity the tools emit (timings, ratios, means),
/// and never scientific-notation forms JSON rejects ("1e+05" is valid
/// JSON; "nan"/"inf" are not and are caught by the finite check).
inline std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

/// Builds one JSON object, {"key": value, ...}, in insertion order.
/// Keys and string values are escaped; nested objects and arrays go in
/// through raw() as already-rendered JSON.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double V) {
    return raw(Key, jsonNumber(V));
  }
  JsonObject &count(const std::string &Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  JsonObject &flag(const std::string &Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  JsonObject &str(const std::string &Key, const std::string &V) {
    return raw(Key, jsonString(V));
  }
  JsonObject &raw(const std::string &Key, const std::string &Json) {
    if (!Body.empty())
      Body += ", ";
    Body += jsonString(Key);
    Body += ": ";
    Body += Json;
    return *this;
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

/// Renders already-rendered JSON values as an array, one element per
/// line so a long result list stays readable.
inline std::string jsonArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I != Items.size(); ++I) {
    Out += I ? ",\n  " : "\n  ";
    Out += Items[I];
  }
  return Out + (Items.empty() ? "]" : "\n]");
}

} // namespace veriqec

#endif // VERIQEC_SUPPORT_JSON_H

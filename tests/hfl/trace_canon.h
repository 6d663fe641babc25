// Shared trace-canonicalisation helpers for determinism/regression suites.
//
// JSONL traces carry wall time only in run_end's phase totals; everything
// else is part of the engine's determinism contract. These helpers
// re-serialise each trace line with object keys sorted and the phase totals
// dropped, so two traces compare equal iff their deterministic content
// matches — used by the parallel-determinism suite, the fault-injection
// determinism/replay suites and the golden-trace regression.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace mach::test {

inline bool is_timing_key(const std::string& key) {
  // run_end's wall-clock phase totals: legitimately different between runs.
  return key == "phases" || key == "phase_total_s";
}

inline std::string canonical(const obs::JsonValue& value);

inline std::string canonical_object(const obs::JsonValue::Object& object) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, member] : object) {
    if (is_timing_key(key)) continue;
    if (!first) out += ',';
    first = false;
    out += '"' + obs::json_escape(key) + "\":" + canonical(member);
  }
  return out + "}";
}

inline std::string canonical(const obs::JsonValue& value) {
  switch (value.kind()) {
    case obs::JsonValue::Kind::Null:
      return "null";
    case obs::JsonValue::Kind::Bool:
      return value.as_bool() ? "true" : "false";
    case obs::JsonValue::Kind::Number:
      return obs::json_number(value.as_number());
    case obs::JsonValue::Kind::String:
      return '"' + obs::json_escape(value.as_string()) + '"';
    case obs::JsonValue::Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < value.as_array().size(); ++i) {
        if (i != 0) out += ',';
        out += canonical(value.as_array()[i]);
      }
      return out + "]";
    }
    case obs::JsonValue::Kind::Object:
      return canonical_object(value.as_object());
  }
  return "null";
}

/// One canonical string per JSONL line (empty lines skipped). Parse failures
/// flag a test failure and drop the line.
inline std::vector<std::string> canonical_trace(const std::string& jsonl) {
  std::vector<std::string> events;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string error;
    const auto parsed = obs::parse_json(line, &error);
    EXPECT_TRUE(parsed.has_value()) << error << " in: " << line;
    if (parsed) events.push_back(canonical(*parsed));
  }
  return events;
}

inline std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace mach::test

#include "obs/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace mach::obs {

namespace {

bool contains(std::string_view name, std::string_view needle) {
  return name.find(needle) != std::string_view::npos;
}

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string format_value(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::String:
      return value.as_string();
    case JsonValue::Kind::Number: {
      const double d = value.as_number();
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        return std::to_string(static_cast<long long>(d));
      }
      return json_number(d);
    }
    case JsonValue::Kind::Bool:
      return value.as_bool() ? "true" : "false";
    default:
      return "?";
  }
}

/// Identity fields joined in object-key order (JsonValue objects are sorted
/// maps, so the key is deterministic regardless of emission order).
std::string case_key(const JsonValue::Object& entry) {
  std::string key;
  for (const auto& [name, value] : entry) {
    if (metric_direction(name) != MetricDirection::Identity) continue;
    if (!key.empty()) key += ' ';
    key += name;
    key += '=';
    key += format_value(value);
  }
  return key.empty() ? "(unkeyed)" : key;
}

}  // namespace

MetricDirection metric_direction(std::string_view name) {
  if (contains(name, "per_second") || contains(name, "gflops") ||
      contains(name, "speedup")) {
    return MetricDirection::HigherIsBetter;
  }
  if (ends_with(name, "_us") || ends_with(name, "_ms") ||
      ends_with(name, "_seconds") || name == "seconds") {
    return MetricDirection::LowerIsBetter;
  }
  // Communication volume (BENCH_comm.json and the byte ledger): shipping
  // more encoded bytes for the same case is a regression.
  if (ends_with(name, "_bytes") || name == "bytes_per_round") {
    return MetricDirection::LowerIsBetter;
  }
  // Memory envelope (BENCH_scale.json): a fatter resident set or KiB-scale
  // footprint for the same case is a regression.
  if (contains(name, "rss") || ends_with(name, "_kb")) {
    return MetricDirection::LowerIsBetter;
  }
  // Model quality (BENCH_comm.json accuracy-vs-bytes cases, BENCH_zoo.json
  // sampler-x-scenario cases).
  if (contains(name, "accuracy") || contains(name, "reach_rate")) {
    return MetricDirection::HigherIsBetter;
  }
  // Convergence speed (BENCH_zoo.json): more steps to the accuracy target
  // for the same (sampler, scenario) case is a regression.
  if (contains(name, "steps_to")) {
    return MetricDirection::LowerIsBetter;
  }
  if (contains(name, "trained") || contains(name, "count")) {
    return MetricDirection::Informational;
  }
  return MetricDirection::Identity;
}

BenchComparison compare_benchmarks(const JsonValue& baseline,
                                   const JsonValue& current) {
  BenchComparison out;
  out.bench = baseline.string_or("bench", "");
  out.bench_mismatch = out.bench != current.string_or("bench", "");

  // Index both results arrays by case key.
  const auto index = [](const JsonValue& doc) {
    std::vector<std::pair<std::string, const JsonValue::Object*>> cases;
    const JsonValue& results = doc["results"];
    if (!results.is_array()) return cases;
    for (const JsonValue& entry : results.as_array()) {
      if (!entry.is_object()) continue;
      cases.emplace_back(case_key(entry.as_object()), &entry.as_object());
    }
    return cases;
  };
  const auto baseline_cases = index(baseline);
  const auto current_cases = index(current);

  const auto find_case = [](const auto& cases, const std::string& key)
      -> const JsonValue::Object* {
    for (const auto& [k, obj] : cases) {
      if (k == key) return obj;
    }
    return nullptr;
  };

  for (const auto& [key, baseline_entry] : baseline_cases) {
    const JsonValue::Object* current_entry = find_case(current_cases, key);
    if (current_entry == nullptr) {
      out.only_in_baseline.push_back(key);
      continue;
    }
    CaseDelta delta;
    delta.key = key;
    for (const auto& [name, baseline_value] : *baseline_entry) {
      const MetricDirection direction = metric_direction(name);
      if (direction == MetricDirection::Identity) continue;
      if (!baseline_value.is_number()) continue;
      const auto it = current_entry->find(name);
      if (it == current_entry->end() || !it->second.is_number()) continue;

      MetricDelta metric;
      metric.metric = name;
      metric.direction = direction;
      metric.baseline = baseline_value.as_number();
      metric.current = it->second.as_number();
      if (metric.baseline != 0.0) {
        const double raw =
            (metric.current - metric.baseline) / std::abs(metric.baseline);
        metric.change_pct =
            100.0 *
            (direction == MetricDirection::LowerIsBetter ? -raw : raw);
      }
      if (direction != MetricDirection::Informational &&
          -metric.change_pct > out.worst_regression_pct) {
        out.worst_regression_pct = -metric.change_pct;
        out.worst_case = key;
        out.worst_metric = name;
      }
      delta.metrics.push_back(std::move(metric));
    }
    out.cases.push_back(std::move(delta));
  }

  for (const auto& [key, entry] : current_cases) {
    (void)entry;
    if (find_case(baseline_cases, key) == nullptr) {
      out.only_in_current.push_back(key);
    }
  }
  return out;
}

std::optional<JsonValue> load_bench_file(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  auto doc = parse_json(text.str(), &parse_error);
  if (!doc) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return std::nullopt;
  }
  return doc;
}

std::string format_comparison(const BenchComparison& comparison,
                              double threshold_pct) {
  std::ostringstream out;
  out << "bench: " << (comparison.bench.empty() ? "?" : comparison.bench);
  if (comparison.bench_mismatch) out << "  [BENCH NAME MISMATCH]";
  out << "\n";
  char line[256];
  for (const CaseDelta& case_delta : comparison.cases) {
    out << "  " << case_delta.key << "\n";
    for (const MetricDelta& m : case_delta.metrics) {
      const bool gated = m.direction != MetricDirection::Informational;
      const char* flag = !gated                              ? "  (info)"
                         : -m.change_pct > threshold_pct     ? "  REGRESSION"
                         : m.change_pct > threshold_pct      ? "  improved"
                                                             : "";
      std::snprintf(line, sizeof(line), "    %-28s %14.4f -> %14.4f  %+7.2f%%%s\n",
                    m.metric.c_str(), m.baseline, m.current, m.change_pct,
                    flag);
      out << line;
    }
  }
  for (const std::string& key : comparison.only_in_baseline) {
    out << "  missing from current: " << key << "\n";
  }
  for (const std::string& key : comparison.only_in_current) {
    out << "  new in current:       " << key << "\n";
  }
  if (comparison.regression_beyond(threshold_pct)) {
    std::snprintf(line, sizeof(line),
                  "worst regression: %.2f%% (%s: %s), threshold %.2f%%\n",
                  comparison.worst_regression_pct,
                  comparison.worst_case.c_str(),
                  comparison.worst_metric.c_str(), threshold_pct);
    out << line;
  } else {
    std::snprintf(line, sizeof(line),
                  "no regression beyond %.2f%% (worst %.2f%%)\n",
                  threshold_pct, comparison.worst_regression_pct);
    out << line;
  }
  return out.str();
}

}  // namespace mach::obs

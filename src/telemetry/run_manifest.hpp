// Versioned machine-readable run report ("run manifest").
//
// One JSON document describes one run end-to-end: what was run (tool, git
// version, timestamp, host), how it was configured (typed key/value
// mirror of the command line), where the time went (ordered phase
// timings), and every metric the run produced (a MetricsRegistry
// snapshot). This is the single producer format behind `pi2m
// --json-report`, the `bench_micro --manifest` and `bench_paper
// --manifest` output and the serving daemon's job manifests — consumers
// parse one schema instead of per-binary hand-written JSON.
//
// Schema (version 2):
//   {
//     "schema": "pi2m-manifest",
//     "schema_version": 2,
//     "tool": "pi2m_cli",
//     "git": "<git describe or 'unknown'>",
//     "timestamp": "2026-08-06T12:00:00Z",
//     "host": { "hardware_threads": N },
//     "config": { "<key>": string|number|bool, ... },
//     "phases": { "<name>_sec": seconds, ... },   // insertion-ordered
//     "metrics": { "<area>.<metric>": number|bool, ... },
//     "notes": "free text"                        // omitted when empty
//   }
// Consumers must ignore unknown keys; producers bump kSchemaVersion on any
// incompatible change (key removal or meaning change).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "telemetry/metrics_registry.hpp"

namespace pi2m::telemetry {

/// `git describe` of the built tree (baked in at configure time),
/// "unknown" outside a git checkout.
const char* build_git_describe();

/// Current time as "YYYY-MM-DDTHH:MM:SSZ" (UTC).
std::string iso8601_utc_now();

/// One config value; written as the matching JSON type.
using ConfigValue = std::variant<std::string, std::int64_t, double, bool>;

struct RunManifest {
  static constexpr int kSchemaVersion = 2;

  std::string tool;                 ///< producing binary ("pi2m_cli", ...)
  std::string git = build_git_describe();
  std::string timestamp = iso8601_utc_now();
  std::map<std::string, ConfigValue, std::less<>> config;
  std::vector<std::pair<std::string, double>> phases;  ///< (name, seconds)
  MetricsRegistry metrics;
  std::string notes;

  void set_config(std::string_view key, ConfigValue value) {
    config.insert_or_assign(std::string(key), std::move(value));
  }

  /// Appends a phase timing; phases keep insertion order (pipeline order).
  void add_phase(std::string_view name, double seconds) {
    phases.emplace_back(std::string(name), seconds);
  }

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] bool write(const std::string& path) const;
};

}  // namespace pi2m::telemetry

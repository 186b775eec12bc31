// config.hpp — minimal INI-style configuration files.
//
// Format: `[section]` headers, `key = value` entries, `#`/`;` comments,
// blank lines ignored. Keys are addressed as "section.key" (keys before any
// section live in the "" section and are addressed bare). Used by the
// scenario-driver tool so experiments are reproducible artifacts rather
// than command lines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace affinity {

/// Parsed configuration with typed accessors.
class ConfigFile {
 public:
  /// Parses `text`; returns nullopt and sets `error` on malformed input.
  static std::optional<ConfigFile> parse(std::string_view text, std::string* error = nullptr);

  /// Loads and parses a file.
  static std::optional<ConfigFile> load(const std::string& path, std::string* error = nullptr);

  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) != 0; }

  /// Raw string; `fallback` when absent.
  [[nodiscard]] std::string getString(const std::string& key, const std::string& fallback) const;

  /// Typed getters: return `fallback` when absent; abort the program with a
  /// clear message when present but unparsable (configs fail loudly).
  [[nodiscard]] double getDouble(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t getInt(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;

  /// All keys in a section (without the "section." prefix).
  [[nodiscard]] std::map<std::string, std::string> section(const std::string& name) const;

  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

/// Largest value of integer type T that an int64 config value can carry.
template <typename T>
constexpr std::int64_t maxConfigValue() {
  return static_cast<std::int64_t>(
      std::min<std::uint64_t>(std::numeric_limits<T>::max(),
                              std::numeric_limits<std::int64_t>::max()));
}

/// The one reader for range-checked integer keys: reads `key` (`fallback`
/// when absent) and fails with the key's name unless the value lies in
/// [lo, hi], so a negative or oversized value can never wrap.
template <typename T>
bool readInt(const ConfigFile& cfg, const std::string& key, std::int64_t fallback, T* out,
             std::string* error, std::int64_t lo = 0, std::int64_t hi = maxConfigValue<T>()) {
  const std::int64_t v = cfg.getInt(key, fallback);
  if (v < lo || v > hi) {
    if (error) {
      *error = key + " = " + std::to_string(v) + " is out of range [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "]";
    }
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace affinity

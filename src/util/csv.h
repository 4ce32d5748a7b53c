#pragma once

#include <fstream>
#include <string>
#include <vector>

/// Minimal CSV writer for experiment outputs.
namespace mcs {

/// Escapes one CSV field per RFC 4180: fields containing commas, quotes,
/// or line breaks are quoted with embedded quotes doubled, so metric
/// names and preset descriptions with punctuation survive a round trip
/// through any CSV reader.
[[nodiscard]] std::string csvEscape(const std::string& field);

/// Joins already-unescaped fields into one CSV line (no trailing newline).
[[nodiscard]] std::string csvJoin(const std::vector<std::string>& fields);

/// Writes rows to a CSV file (or keeps them in memory if no path given).
/// Values containing commas/quotes/newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  CsvWriter() = default;
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  void header(const std::vector<std::string>& names);
  void row(const std::vector<std::string>& values);

  /// Number of data rows written (header excluded).
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

  /// Escapes a single CSV field.
  [[nodiscard]] static std::string escape(const std::string& field);

 private:
  void writeLine(const std::vector<std::string>& values);

  std::ofstream out_;
  bool toFile_ = false;
  std::size_t rows_ = 0;
};

}  // namespace mcs

#ifndef PDM_COMMON_CSV_H_
#define PDM_COMMON_CSV_H_

#include <fstream>
#include <string>
#include <vector>

/// \file
/// CSV emission (examples/generate_datasets writes its synthetic tables with
/// it, so they load into any spreadsheet or plotting tool).

namespace pdm {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. A failed open leaves
  /// the writer inactive; rows are silently dropped (callers treat CSV output
  /// as optional).
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// True if the output file opened successfully.
  bool ok() const { return out_.is_open() && out_.good(); }

  /// Writes one row; cells are joined with commas. Cells containing commas or
  /// quotes are quoted per RFC 4180.
  void WriteRow(const std::vector<std::string>& cells);

 private:
  std::ofstream out_;
};

}  // namespace pdm

#endif  // PDM_COMMON_CSV_H_

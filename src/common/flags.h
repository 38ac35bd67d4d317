#ifndef PDM_COMMON_FLAGS_H_
#define PDM_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Minimal command-line flag parser used by every bench and example binary.
///
/// Flags are registered against caller-owned storage and parsed from
/// `--name=value` or `--name value` forms. `--help` prints usage and makes
/// `Parse` return false so the caller can exit cleanly. This deliberately
/// avoids global registries: each binary builds its own `FlagSet`.
///
/// Example:
/// \code
///   int64_t rounds = 100000;
///   pdm::FlagSet flags("pdm_run");
///   flags.AddInt64("rounds", &rounds, "number of pricing rounds");
///   if (!flags.Parse(argc, argv)) return 1;
/// \endcode

namespace pdm {

class FlagSet {
 public:
  /// `program` is shown in the usage banner.
  explicit FlagSet(std::string program);

  /// Registers a flag bound to `*value`; the current content of `*value` is
  /// treated as the default and shown in `--help` output.
  void AddInt64(const std::string& name, int64_t* value, const std::string& help);
  void AddUint64(const std::string& name, uint64_t* value, const std::string& help);
  void AddDouble(const std::string& name, double* value, const std::string& help);
  void AddBool(const std::string& name, bool* value, const std::string& help);
  void AddString(const std::string& name, std::string* value, const std::string& help);

  /// Parses argv. Returns false (after printing a message to stderr) on an
  /// unknown flag, a malformed value, or `--help`. An unknown flag reports
  /// the full list of known flags — and the closest-named one when the typo
  /// is close enough — instead of the error disappearing into a wall of
  /// usage text.
  bool Parse(int argc, char** argv);

  /// True when the last Parse returned false because of `--help`/`-h` (the
  /// usage text was printed); binaries exit 0 in that case, not 1.
  bool help_requested() const { return help_requested_; }

  /// Human-readable usage text listing all registered flags.
  std::string Usage() const;

  /// Comma-separated "--name" list of every registered flag, in registration
  /// order (what the unknown-flag error prints).
  std::string KnownFlagList() const;

 private:
  enum class Type { kInt64, kUint64, kDouble, kBool, kString };
  struct Flag {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_repr;
  };

  const Flag* Find(const std::string& name) const;
  bool Assign(const Flag& flag, const std::string& text) const;

  std::string program_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace pdm

#endif  // PDM_COMMON_FLAGS_H_

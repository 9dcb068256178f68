// Shared plumbing of the report tools (trace, adversary, recovery,
// runtime and bench reports): a flat JSON writer, the file writer and
// the parser for the flags every report takes,
//
//   --smoke    reduced durations / iteration budget (CI-sized runs)
//   --strict   exit non-zero when the report's checks fail
//   --out-dir  directory for the BENCH_*.json output (default: cwd)
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

namespace predis::report {

/// Appends `"key": value` pairs; the caller writes the braces, brackets
/// and newlines with raw(). A pair ends in ", " unless `comma` is false.
struct JsonWriter {
  std::string buf;
  void raw(const std::string& s) { buf += s; }
  void kv(const char* key, double v, bool comma = true) {
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp), "\"%s\": %.3f%s", key, v,
                  comma ? ", " : "");
    buf += tmp;
  }
  void kv(const char* key, std::size_t v, bool comma = true) {
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp), "\"%s\": %zu%s", key, v,
                  comma ? ", " : "");
    buf += tmp;
  }
  void kv(const char* key, const char* v, bool comma = true) {
    buf += std::string("\"") + key + "\": \"" + v + "\"" +
           (comma ? ", " : "");
  }
  void kv(const char* key, bool v, bool comma = true) {
    buf += std::string("\"") + key + "\": " + (v ? "true" : "false") +
           (comma ? ", " : "");
  }
};

/// Write `content` to `path` and say so; returns 1 (after an error
/// naming `tool`) if the file cannot be opened.
inline int write_file(const char* tool, const std::string& path,
                      const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return 1;
  }
  out << content;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

struct Flags {
  bool smoke = false;
  bool strict = false;
  std::string out_dir = ".";
};

/// What a tool accepts beyond --smoke and --out-dir.
struct FlagOptions {
  bool strict = true;                ///< Accept --strict.
  const char* value_flag = nullptr;  ///< One tool-specific `--name VALUE`.
  std::string* value = nullptr;      ///< Receives that VALUE verbatim.
};

/// Parse argv into `flags`. On an unknown flag or a missing value,
/// prints "usage: <usage>" to stderr and returns false.
inline bool parse_flags(int argc, char** argv, const char* usage,
                        Flags& flags, const FlagOptions& options = {}) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--strict" && options.strict) {
      flags.strict = true;
    } else if (arg == "--out-dir" && has_value) {
      flags.out_dir = argv[++i];
    } else if (options.value_flag != nullptr && arg == options.value_flag &&
               has_value) {
      *options.value = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s\n", usage);
      return false;
    }
  }
  return true;
}

}  // namespace predis::report

// Tiny command-line flag parser for bench/example binaries.
//
// Supports --name=value, --name value, and boolean --name. Unknown flags
// and numeric values that do not parse completely are an error, so typos
// in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace nmad::util {

class CliFlags {
 public:
  // A numeric kind makes parse() reject any value that does not parse
  // completely; get_int/get_double/get_size read only their own kind.
  enum class Kind : uint8_t { kString, kInt, kDouble, kSize };

  // Declare flags with defaults before parsing.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help, Kind kind = Kind::kString);
  void define_bool(const std::string& name, bool default_value,
                   const std::string& help);

  [[nodiscard]] Status parse(int argc, char** argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  // Parses the flag value with parse_size ("256K" → 262144).
  [[nodiscard]] uint64_t get_size(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void print_help(const char* program) const;

 private:
  struct Flag {
    std::string value;
    std::string help;
    bool is_bool = false;
    Kind kind = Kind::kString;
  };

  // The value of `name`, which must be declared as `kind`.
  [[nodiscard]] const std::string& value_of(const std::string& name,
                                            Kind kind) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace nmad::util

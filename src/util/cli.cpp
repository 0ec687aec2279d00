#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/units.hpp"

namespace nmad::util {

namespace {

// strtoll / strtod that must consume the whole, non-empty text.
template <typename T, typename Conv>
bool parse_whole(const std::string& text, Conv conv, T* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = conv(text.c_str(), &end);
  return errno != ERANGE && *end == '\0';
}

long long to_int(const char* s, char** end) {
  return std::strtoll(s, end, 10);
}
double to_double(const char* s, char** end) { return std::strtod(s, end); }

bool parses_as(CliFlags::Kind kind, const std::string& text) {
  long long i = 0;
  double d = 0.0;
  uint64_t u = 0;
  switch (kind) {
    case CliFlags::Kind::kInt:
      return parse_whole(text, to_int, &i);
    case CliFlags::Kind::kDouble:
      return parse_whole(text, to_double, &d);
    case CliFlags::Kind::kSize:
      return parse_size(text, &u);
    case CliFlags::Kind::kString:
      break;
  }
  return true;
}

}  // namespace

void CliFlags::define(const std::string& name,
                      const std::string& default_value,
                      const std::string& help, Kind kind) {
  NMAD_ASSERT_MSG(parses_as(kind, default_value),
                  "flag default does not parse as its kind");
  flags_[name] = Flag{default_value, help, /*is_bool=*/false, kind};
}

void CliFlags::define_bool(const std::string& name, bool default_value,
                           const std::string& help) {
  flags_[name] = Flag{default_value ? "true" : "false", help,
                      /*is_bool=*/true, Kind::kString};
}

Status CliFlags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
      has_value = true;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      if (arg == "help") {
        print_help(argv[0]);
        std::exit(0);
      }
      return invalid_argument("unknown flag --" + arg);
    }
    if (it->second.is_bool) {
      it->second.value = has_value ? value : "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        return invalid_argument("flag --" + arg + " expects a value");
      }
      value = argv[++i];
    }
    if (!parses_as(it->second.kind, value)) {
      return invalid_argument("flag --" + arg + ": '" + value +
                              "' is not a number");
    }
    it->second.value = value;
  }
  return ok_status();
}

std::string CliFlags::get(const std::string& name) const {
  auto it = flags_.find(name);
  NMAD_ASSERT_MSG(it != flags_.end(), "undeclared flag queried");
  return it->second.value;
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

const std::string& CliFlags::value_of(const std::string& name,
                                      Kind kind) const {
  auto it = flags_.find(name);
  NMAD_ASSERT_MSG(it != flags_.end() && it->second.kind == kind,
                  "flag undeclared or declared with another kind");
  return it->second.value;
}

// define() checked the default and parse() every given value, so the
// numeric getters cannot fail.
int64_t CliFlags::get_int(const std::string& name) const {
  long long out = 0;
  parse_whole(value_of(name, Kind::kInt), to_int, &out);
  return out;
}

double CliFlags::get_double(const std::string& name) const {
  double out = 0.0;
  parse_whole(value_of(name, Kind::kDouble), to_double, &out);
  return out;
}

uint64_t CliFlags::get_size(const std::string& name) const {
  uint64_t out = 0;
  parse_size(value_of(name, Kind::kSize), &out);
  return out;
}

void CliFlags::print_help(const char* program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program);
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-20s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.value.c_str());
  }
}

}  // namespace nmad::util

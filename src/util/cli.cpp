#include "util/cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace berkmin {

bool is_number(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const char* begin = text.c_str();
  const char* const whole = begin + text.size();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end != whole || errno == ERANGE || !std::isfinite(value)) return false;
  errno = 0;
  (void)std::strtoll(begin, &end, 10);
  return end != whole || errno != ERANGE;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) raw_.emplace_back(argv[i]);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{true, "", help};
}

void ArgParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  specs_[name] = Spec{false, default_value, help};
}

bool ArgParser::parse() {
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const std::string& token = raw_[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string name = token.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      error_ = "unknown option --" + name;
      return false;
    }
    if (it->second.is_flag) {
      if (has_inline) {
        error_ = "flag --" + name + " does not take a value";
        return false;
      }
      values_[name] = "1";
    } else {
      if (!has_inline && i + 1 >= raw_.size()) {
        error_ = "option --" + name + " requires a value";
        return false;
      }
      const std::string& value = has_inline ? inline_value : raw_[++i];
      // An option registered with a numeric default is read as a number;
      // garbage would otherwise parse silently as 0.
      if (is_number(it->second.default_value) && !is_number(value)) {
        error_ = "option --" + name + " expects a number (got '" + value + "')";
        return false;
      }
      values_[name] = value;
    }
  }
  return true;
}

bool ArgParser::has_flag(const std::string& name) const {
  return values_.count(name) > 0;
}

bool ArgParser::provided(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string ArgParser::get_string(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  if (const auto it = specs_.find(name); it != specs_.end()) return it->second.default_value;
  return "";
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::strtoll(get_string(name).c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name) const {
  return std::strtod(get_string(name).c_str(), nullptr);
}

std::string ArgParser::help(const std::string& program_description) const {
  std::ostringstream out;
  out << program_description << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    out << "  --" << name;
    if (!spec.is_flag) out << " <value> (default: " << spec.default_value << ")";
    out << "\n      " << spec.help << '\n';
  }
  return out.str();
}

}  // namespace berkmin

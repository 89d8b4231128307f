// The one reader for the flat JSON documents the benches and bench_gate
// write (BENCH_*.json, tools/bench_baseline.json). Input must already have
// passed obs::json::validate; after that the reader only has to find where
// each top-level value starts and ends. Member names carry no escapes.
#pragma once

#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace overhaul::bench_json {

// The raw text of each top-level value of a JSON object or array, in order,
// with its member name (empty for array elements).
inline std::vector<std::pair<std::string, std::string>> split(
    std::string_view text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = text.find_first_of("{[");
  if (i == std::string_view::npos) return out;
  const bool object = text[i++] == '{';
  const auto space = [&](std::size_t at) {
    return std::isspace(static_cast<unsigned char>(text[at])) != 0;
  };
  const auto skip_space = [&] {
    while (i < text.size() && space(i)) ++i;
  };
  while (true) {
    skip_space();
    if (i >= text.size() || text[i] == '}' || text[i] == ']') break;
    std::string key;
    if (object) {
      const std::size_t close = text.find('"', i + 1);
      key = std::string(text.substr(i + 1, close - i - 1));
      i = text.find(':', close) + 1;
      skip_space();
    }
    const std::size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']' || c == ',') {
        if (depth == 0) break;
        if (c != ',') --depth;
      }
    }
    std::size_t end = i;
    while (end > start && space(end - 1)) --end;
    out.emplace_back(std::move(key),
                     std::string(text.substr(start, end - start)));
    if (i >= text.size() || text[i] != ',') break;
    ++i;
  }
  return out;
}

inline std::map<std::string, std::string> members(std::string_view object) {
  std::map<std::string, std::string> out;
  for (auto& [key, value] : split(object)) out[key] = std::move(value);
  return out;
}

// A string value without its quotes (the writers emit no escapes here).
inline std::string unquote(const std::string& raw) {
  return raw.size() >= 2 && raw.front() == '"' ? raw.substr(1, raw.size() - 2)
                                               : raw;
}

// A gated reading: a sampled {median, lo, hi, n} object, or a bare number
// (one reading, so its interval is the point itself).
struct Reading {
  double median = 0;
  double lo = 0;
  double hi = 0;
  double n = 1;
};

inline Reading reading(const std::string& raw) {
  if (raw.empty() || raw.front() != '{') {
    const double v = std::strtod(raw.c_str(), nullptr);
    return {v, v, v, 1};
  }
  std::map<std::string, std::string> m = members(raw);
  const auto num = [&](const char* k) {
    return std::strtod(m[k].c_str(), nullptr);
  };
  return {num("median"), num("lo"), num("hi"), num("n")};
}

}  // namespace overhaul::bench_json

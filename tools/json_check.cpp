// Strict JSON / JSONL validator for the machine-readable artifacts the
// benches emit (BENCH_*.json, TRACE_*.jsonl).  The bench_smoke ctest target
// runs every bench with `--scale small --json --trace` and feeds the outputs
// through this tool, so malformed emission fails CI instead of silently
// rotting downstream tooling.
//
//   json_check FILE...            each file must be exactly one JSON value
//   json_check --jsonl FILE...    each non-empty line must be one JSON value
//   json_check --bench FILE...    JSON value that must also carry the bench
//                                 record's run header and every metric of
//                                 obs::kMetrics, each at its own path
//                                 ("memory.fib.patches", not just any
//                                 "patches" member)
//   json_check --bench --require-slo FILE...
//                                 additionally require the serving-mode
//                                 "slo" block (bench_slo_serving's contract)
//
// Exit 0 when everything parses and every required member is present; 1
// with `file:offset: message` or the first missing path per file.
// Recursive-descent per RFC 8259: objects, arrays, strings with escape
// validation, numbers, true/false/null.  No extensions — a trailing comma,
// bare NaN or unescaped control character is an error.  Stricter than the
// RFC where a reader would silently pick one meaning: a key repeated within
// one object (keys compare as written) and a number beyond a double's range
// are errors too.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;
  /// When set, collects the dotted path of every object member
  /// ("memory.fib.patches"); array elements add no path component.
  std::set<std::string>* paths = nullptr;
  std::string path{};  ///< path of the member being parsed

  bool fail(const std::string& message) {
    if (error.empty()) error = message;
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) {
      return fail("expected '" + std::string{word} + "'");
    }
    pos += word.size();
    return true;
  }

  bool string() {
    if (pos >= text.size() || text[pos] != '"') return fail("expected '\"'");
    ++pos;
    while (pos < text.size()) {
      const unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("truncated escape");
        const char e = text[pos];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos + static_cast<std::size_t>(i) >= text.size() ||
                !std::isxdigit(static_cast<unsigned char>(text[pos + static_cast<std::size_t>(i)]))) {
              return fail("bad \\u escape");
            }
          }
          pos += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return fail(std::string{"bad escape '\\"} + e + "'");
        }
      }
      ++pos;
    }
    return fail("unterminated string");
  }

  bool number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
      return fail("bad number");
    }
    if (text[pos] == '0') {
      ++pos;
    } else {
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad fraction");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad exponent");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (std::isinf(std::strtod(std::string{text.substr(start, pos - start)}.c_str(), nullptr))) {
      pos = start;
      return fail("number overflows a double");
    }
    return true;
  }

  bool value(int depth) {
    if (depth > 256) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    switch (text[pos]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object(int depth) {
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    std::set<std::string_view> keys;
    while (true) {
      skip_ws();
      const std::size_t key_start = pos;
      if (!string()) return false;
      const std::string_view key = text.substr(key_start + 1, pos - key_start - 2);
      if (!keys.insert(key).second) {
        pos = key_start;
        return fail("duplicate key \"" + std::string{key} + "\"");
      }
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      const std::size_t parent = path.size();
      if (paths != nullptr) {
        if (parent != 0) path += '.';
        path += key;
        paths->insert(path);
      }
      if (!value(depth + 1)) return false;
      path.resize(parent);
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(int depth) {
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  /// Exactly one JSON value followed by whitespace only.
  bool document() {
    if (!value(0)) return false;
    skip_ws();
    if (pos != text.size()) return fail("trailing garbage after JSON value");
    return true;
  }
};

bool check_json(const std::string& name, std::string_view content,
                std::set<std::string>* paths = nullptr) {
  Parser parser{content};
  parser.paths = paths;
  if (parser.document()) return true;
  std::cerr << name << ':' << parser.pos << ": " << parser.error << '\n';
  return false;
}

/// The run header every BENCH_*.json carries ahead of its metric blocks.
constexpr std::string_view kBenchHeaderPaths[] = {
    "name",           "paper_ref",     "meta.scale",       "meta.threads", "meta.seed",
    "meta.timestamp", "build_seconds", "campaign_seconds", "config",       "metrics",
};

/// Members of the serving-mode "slo" block (--require-slo; enforced only for
/// bench_slo_serving, whose record contract includes it).  A percentile may
/// hold null: ladders emit null for a quantile with fewer than ten samples
/// beyond it.
constexpr std::string_view kBenchSloPaths[] = {
    "slo.resolve.p50_ns", "slo.resolve.p99_ns", "slo.publish.p50_us",
    "slo.publish.p99_us", "slo.fib_patches",    "slo.fib_full_rebuilds",
};

bool check_bench_record(const std::string& name, std::string_view content,
                        bool require_slo) {
  std::set<std::string> paths;
  if (!check_json(name, content, &paths)) return false;
  std::vector<std::string> required{std::begin(kBenchHeaderPaths), std::end(kBenchHeaderPaths)};
  for (const vns::obs::MetricDef& def : vns::obs::kMetrics) {
    required.push_back(std::string{vns::obs::block_path(def.block)} + '.' + std::string{def.key});
  }
  if (require_slo) {
    required.insert(required.end(), std::begin(kBenchSloPaths), std::end(kBenchSloPaths));
  }
  for (const std::string& path : required) {
    if (!paths.contains(path)) {
      std::cerr << name << ": bench record has no \"" << path << "\" member\n";
      return false;
    }
  }
  return true;
}

bool check_jsonl(const std::string& name, std::string_view content) {
  std::size_t line_start = 0;
  std::size_t line_number = 1;
  bool any = false;
  while (line_start <= content.size()) {
    std::size_t line_end = content.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = content.size();
    const std::string_view line = content.substr(line_start, line_end - line_start);
    if (!line.empty()) {
      any = true;
      Parser parser{line};
      if (!parser.document()) {
        std::cerr << name << ":line " << line_number << ":" << parser.pos << ": "
                  << parser.error << '\n';
        return false;
      }
    }
    line_start = line_end + 1;
    ++line_number;
    if (line_end == content.size()) break;
  }
  if (!any) {
    std::cerr << name << ": empty JSONL file\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonl = false;
  bool bench = false;
  bool require_slo = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jsonl") {
      jsonl = true;
    } else if (arg == "--bench") {
      bench = true;
    } else if (arg == "--require-slo") {
      require_slo = true;
    } else if (arg == "--help") {
      std::cout << "usage: json_check [--jsonl|--bench [--require-slo]] FILE...\n";
      return 0;
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty() || (jsonl && bench) || (require_slo && !bench)) {
    std::cerr << "usage: json_check [--jsonl|--bench [--require-slo]] FILE...\n";
    return 2;
  }
  bool ok = true;
  for (const auto& file : files) {
    std::ifstream in{file, std::ios::binary};
    if (!in) {
      std::cerr << file << ": cannot open\n";
      ok = false;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    const bool file_ok = jsonl   ? check_jsonl(file, content)
                         : bench ? check_bench_record(file, content, require_slo)
                                 : check_json(file, content);
    ok = file_ok && ok;
  }
  return ok ? 0 : 1;
}

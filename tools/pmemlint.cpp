// tools/pmemlint.cpp — the persistent-layout and pmem-idiom linter.
//
// pmemlint is the static half of the correctness tooling (PmemSan is the
// runtime half).  It is deliberately text-based — no libclang in the build
// image — and enforces the repository's persistent-memory hygiene rules:
//
//   L1  Every struct defined in src/pmemkit/layout.hpp (the on-media
//       vocabulary) uses only fixed-width fields: std::{u,}intN_t,
//       std::byte, char, std::array of those, or another layout struct.
//       No pointers, no references, no size_t/long/int — a pool image is
//       read back by a different process and possibly a different ABI.
//   L2  Every layout struct is pinned by a sizeof static_assert and a
//       std::is_trivially_copyable_v static_assert in the same header, so
//       a layout change is a compile error before it is a corruption.
//   L3  Inside src/pmemkit, a raw std::memcpy/std::memset whose
//       destination is not a stack local (first argument does not start
//       with '&') must carry a `pmemlint: allow(<reason>)` comment on the
//       same line or the line above.  The annotation is the audit trail:
//       every raw store into pool-mapped bytes states why it is exempt
//       from the memcpy_persist/note_store seam.  Files that *are* the
//       seam (pmem_ops.hpp), the persistence-domain model's DRAM mirror
//       (pmemsan.cpp) and the raw file layer (mapped_file.cpp,
//       crash_sim.cpp) are whitelisted wholesale.
//   L4  Outside src/pmemkit, application/runtime code must not punch
//       through the typed pool seam: a line that combines pool-mapped
//       addressing (`direct(`, `base()`) with reinterpret_cast or raw
//       memcpy/memset is flagged unless it carries the same allow marker.
//
// Usage: pmemlint [--src <dir>]        (default: ./src)
// Exit status: 0 clean, 1 findings, 2 usage/IO error.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line;  // 1-based; 0 = whole-file finding
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const fs::path& file, std::size_t line, const char* rule,
            std::string message) {
  g_findings.push_back({file.string(), line, rule, std::move(message)});
}

std::vector<std::string> read_lines(const fs::path& p) {
  std::ifstream in(p);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string strip_comment(const std::string& line) {
  const auto pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool has_allow(const std::vector<std::string>& lines, std::size_t idx) {
  if (lines[idx].find("pmemlint: allow") != std::string::npos) return true;
  return idx > 0 &&
         lines[idx - 1].find("pmemlint: allow") != std::string::npos;
}

// --- L1 / L2: layout.hpp struct hygiene ------------------------------------

const std::set<std::string> kFixedWidth = {
    "std::uint8_t",  "std::uint16_t", "std::uint32_t", "std::uint64_t",
    "std::int8_t",   "std::int16_t",  "std::int32_t",  "std::int64_t",
    "std::byte",     "char",
};

struct LayoutStruct {
  std::string name;
  std::size_t line;  // 1-based line of `struct Name {`
  std::vector<std::pair<std::size_t, std::string>> fields;  // line, text
};

bool type_allowed(const std::string& type,
                  const std::set<std::string>& structs) {
  const std::string t = trim(type);
  if (kFixedWidth.count(t) != 0) return true;
  if (structs.count(t) != 0) return true;
  // std::array<Elem, N> of an allowed element type.
  const std::string prefix = "std::array<";
  if (t.rfind(prefix, 0) == 0 && t.back() == '>') {
    const std::string inner = t.substr(prefix.size(),
                                       t.size() - prefix.size() - 1);
    const auto comma = inner.rfind(',');
    if (comma == std::string::npos) return false;
    return type_allowed(inner.substr(0, comma), structs);
  }
  return false;
}

void lint_layout(const fs::path& layout_path) {
  if (!fs::exists(layout_path)) {
    report(layout_path, 0, "L2", "layout header not found");
    return;
  }
  const std::vector<std::string> lines = read_lines(layout_path);

  // Pass 1: collect struct definitions (enums are skipped by the pattern).
  std::vector<LayoutStruct> structs;
  std::set<std::string> names;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string code = trim(strip_comment(lines[i]));
    if (code.rfind("struct ", 0) != 0) continue;
    std::istringstream iss(code);
    std::string kw, name;
    iss >> kw >> name;
    if (name.empty() || code.find('{') == std::string::npos) continue;
    LayoutStruct s{name, i + 1, {}};
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const std::string body = trim(strip_comment(lines[j]));
      if (body.rfind("};", 0) == 0) break;
      if (!body.empty()) s.fields.emplace_back(j + 1, body);
    }
    names.insert(name);
    structs.push_back(std::move(s));
  }

  const std::string all = [&] {
    std::string joined;
    for (const auto& l : lines) joined += l + '\n';
    return joined;
  }();

  for (const auto& s : structs) {
    // L1: field hygiene.
    for (const auto& [lineno, field] : s.fields) {
      if (field.back() != ';') continue;  // continuation / assert inside
      if (field.find('*') != std::string::npos ||
          field.find('&') != std::string::npos) {
        report(layout_path, lineno, "L1",
               "pointer/reference field in persistent struct " + s.name +
                   ": '" + field + "'");
        continue;
      }
      // Split "<type> <name>;" at the last space outside <>.
      const std::string decl = field.substr(0, field.size() - 1);
      int depth = 0;
      std::size_t split = std::string::npos;
      for (std::size_t k = 0; k < decl.size(); ++k) {
        if (decl[k] == '<') ++depth;
        else if (decl[k] == '>') --depth;
        else if (decl[k] == ' ' && depth == 0) split = k;
      }
      if (split == std::string::npos) continue;
      const std::string type = decl.substr(0, split);
      if (!type_allowed(type, names)) {
        report(layout_path, lineno, "L1",
               "non-fixed-width field in persistent struct " + s.name +
                   ": '" + field + "'");
      }
    }
    // L2: assert coverage.
    if (all.find("sizeof(" + s.name + ")") == std::string::npos) {
      report(layout_path, s.line, "L2",
             "struct " + s.name + " has no sizeof static_assert");
    }
    if (all.find("std::is_trivially_copyable_v<" + s.name + ">") ==
        std::string::npos) {
      report(layout_path, s.line, "L2",
             "struct " + s.name +
                 " has no is_trivially_copyable static_assert");
    }
  }
}

// --- L3 / L4: raw-store idiom checks ---------------------------------------

const std::set<std::string> kPmemkitWhitelist = {
    "pmem_ops.hpp",   // the canonical seam: memcpy_persist lives here
    "pmemsan.cpp",    // sanitizer's own DRAM durable-image bookkeeping
    "mapped_file.cpp",  // raw file/mmap layer, below the persistence model
    "crash_sim.cpp",  // crash harness copies whole images around
};

/// Finds calls of `name(` at position >= from, where `name` is not part of a
/// longer identifier (so memcpy_persist does not match memcpy).
std::size_t find_call(const std::string& line, const std::string& name,
                      std::size_t from) {
  std::size_t pos = from;
  while ((pos = line.find(name + "(", pos)) != std::string::npos) {
    const bool prefixed =
        pos > 0 && (std::isalnum(static_cast<unsigned char>(line[pos - 1])) ||
                    line[pos - 1] == '_');
    if (!prefixed) return pos;
    pos += name.size();
  }
  return std::string::npos;
}

std::string first_arg(const std::string& line, std::size_t call_pos,
                      const std::string& name) {
  std::size_t p = call_pos + name.size() + 1;  // past '('
  int depth = 0;
  std::string arg;
  for (; p < line.size(); ++p) {
    const char c = line[p];
    if (c == '(' || c == '<' || c == '[') ++depth;
    else if (c == ')' || c == '>' || c == ']') {
      if (c == ')' && depth == 0) break;
      --depth;
    } else if (c == ',' && depth == 0) {
      break;
    }
    arg += c;
  }
  return trim(arg);
}

void lint_pmemkit_file(const fs::path& p) {
  const std::vector<std::string> lines = read_lines(p);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string code = strip_comment(lines[i]);
    for (const char* fn : {"memcpy", "memset"}) {
      const std::size_t pos = find_call(code, fn, 0);
      if (pos == std::string::npos) continue;
      const std::string dst = first_arg(code, pos, fn);
      if (!dst.empty() && dst[0] == '&') continue;  // stack-local target
      if (has_allow(lines, i)) continue;
      report(p, i + 1, "L3",
             std::string("raw ") + fn + " to non-local destination '" + dst +
                 "' without a pmemlint allow annotation");
    }
  }
}

void lint_non_pmemkit_file(const fs::path& p) {
  const std::vector<std::string> lines = read_lines(p);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string code = strip_comment(lines[i]);
    const bool pool_addr = code.find("direct(") != std::string::npos ||
                           code.find("base()") != std::string::npos;
    if (!pool_addr) continue;
    const bool raw = code.find("reinterpret_cast") != std::string::npos ||
                     find_call(code, "memcpy", 0) != std::string::npos ||
                     find_call(code, "memset", 0) != std::string::npos;
    if (!raw) continue;
    if (has_allow(lines, i)) continue;
    report(p, i + 1, "L4",
           "raw access to pool-mapped bytes outside pmemkit without a "
           "pmemlint allow annotation");
  }
}

}  // namespace

int main(int argc, char** argv) {
  fs::path src = "src";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--src" && i + 1 < argc) {
      src = argv[++i];
    } else {
      std::cerr << "usage: pmemlint [--src <dir>]\n";
      return 2;
    }
  }
  if (!fs::is_directory(src)) {
    std::cerr << "pmemlint: source directory not found: " << src << "\n";
    return 2;
  }

  lint_layout(src / "pmemkit" / "layout.hpp");

  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const fs::path p = entry.path();
    const std::string ext = p.extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const bool in_pmemkit =
        p.parent_path().filename().string() == "pmemkit";
    if (in_pmemkit) {
      if (kPmemkitWhitelist.count(p.filename().string()) != 0) continue;
      if (p.filename() == "layout.hpp") continue;  // no code, handled above
      lint_pmemkit_file(p);
    } else {
      lint_non_pmemkit_file(p);
    }
  }

  std::sort(g_findings.begin(), g_findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  for (const auto& f : g_findings) {
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!g_findings.empty()) {
    std::cerr << "pmemlint: " << g_findings.size() << " finding(s)\n";
    return 1;
  }
  std::cout << "pmemlint: clean\n";
  return 0;
}

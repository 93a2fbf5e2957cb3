#include "obs/manifest.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "obs/jsonfmt.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

// Environment capture walks the process environment block; POSIX-only, like
// the rest of the repo's tooling.
extern char** environ;  // NOLINT(readability-redundant-declaration)

namespace nocw::obs {

namespace {

// Configure-time facts, injected by src/obs/CMakeLists.txt. Guarded so a
// non-CMake compile of this TU still builds.
#ifndef NOCW_BUILD_TYPE
#define NOCW_BUILD_TYPE "unknown"
#endif
#ifndef NOCW_COMPILER_ID
#define NOCW_COMPILER_ID "unknown"
#endif
#ifndef NOCW_SOURCE_DIR
#define NOCW_SOURCE_DIR ""
#endif

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
  }
  return line;
}

// Resolve the source tree's HEAD without shelling out: a detached HEAD is
// the sha itself; a symbolic ref is followed through the loose ref file,
// then packed-refs. "unknown" when the tree is not a git checkout (tarball
// builds still get a valid manifest).
std::string read_git_sha(const std::string& source_dir) {
  if (source_dir.empty()) return "unknown";
  const std::string head = first_line(source_dir + "/.git/HEAD");
  if (head.empty()) return "unknown";
  if (head.rfind("ref: ", 0) != 0) return head;  // detached HEAD
  const std::string ref = head.substr(5);
  const std::string loose = first_line(source_dir + "/.git/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(source_dir + "/.git/packed-refs");
  std::string line;
  while (packed && std::getline(packed, line)) {
    // "<sha> <ref>" records; comment/peeled lines start with '#'/'^'.
    if (!line.empty() && line.size() > ref.size() &&
        line.compare(line.size() - ref.size(), ref.size(), ref) == 0 &&
        line[0] != '#' && line[0] != '^') {
      return line.substr(0, line.find(' '));
    }
  }
  return "unknown";
}

std::map<std::string, std::string> capture_env() {
  std::map<std::string, std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("NOCW_", 0) != 0 && kv.rfind("REPRO_", 0) != 0) continue;
    const auto eq = kv.find('=');
    if (eq == std::string::npos) continue;
    out.emplace(kv.substr(0, eq), kv.substr(eq + 1));
  }
  return out;
}

void emit_string_map(std::ostringstream& os, const char* key,
                     const std::map<std::string, std::string>& m,
                     bool trailing_comma) {
  os << "\"" << key << "\":{";
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    if (i++ > 0) os << ',';
    os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  }
  os << "}" << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

std::string RunManifest::to_json() const {
  // One top-level key per line: the schema test and obs_diff.py both lean on
  // this shape, so keep it line-wise even though any JSON parser would cope.
  std::ostringstream os;
  os << "{\"schema\":\"" << json_escape(schema) << "\",\n";
  os << "\"tool\":\"" << json_escape(tool) << "\",\n";
  os << "\"model\":\"" << json_escape(model) << "\",\n";
  os << "\"threads\":" << threads << ",\n";
  emit_string_map(os, "build", build, /*trailing_comma=*/true);
  emit_string_map(os, "env", env, /*trailing_comma=*/true);
  emit_string_map(os, "config", config, /*trailing_comma=*/true);
  os << "\"metrics\":" << json_number_map(metrics) << ",\n";
  os << "\"host\":" << json_number_map(host) << "\n}\n";
  return os.str();
}

std::string json_number_map(const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << '{';
  std::size_t i = 0;
  for (const auto& [k, v] : values) {
    if (i++ > 0) os << ',';
    os << "\"" << json_escape(k) << "\":" << json_number(v);
  }
  os << '}';
  return os.str();
}

RunManifest make_manifest(std::string tool, std::string model) {
  RunManifest m;
  m.tool = std::move(tool);
  m.model = std::move(model);
  m.build["git_sha"] =
      env_string("NOCW_GIT_SHA", read_git_sha(NOCW_SOURCE_DIR));
  m.build["build_type"] = NOCW_BUILD_TYPE;
  m.build["compiler"] = NOCW_COMPILER_ID;
#if defined(NOCW_TRACE_DISABLED)
  m.build["tracing"] = "compiled-out";
#else
  m.build["tracing"] = "compiled-in";
#endif
  m.env = capture_env();
  m.threads = static_cast<int>(global_thread_count());
  return m;
}

bool write_manifest(const RunManifest& m, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << m.to_json();
    if (!out.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

}  // namespace nocw::obs

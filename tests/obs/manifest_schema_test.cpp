// Schema validation for the run-provenance manifest (nocw.manifest.v1) and
// the time-series export (nocw.timeseries.v1) — the line-wise contracts that
// tools/obs_diff.py and tools/obs_dashboard.py consume.
//
// Both formats promise "one logical record per line" so downstream tooling
// (and the BENCH_summary.json merge in bench_util) can operate line-based
// without a C++ JSON parser. These tests pin that shape: a reformat that a
// generic JSON library would accept still breaks the contract.
#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"

namespace nocw::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

RunManifest sample_manifest() {
  RunManifest m = make_manifest("schema_test", "LeNet-5");
  m.config["delta_grid"] = "2,5,10,15";
  m.config["selected_layer"] = "fc1";
  m.metrics["latency_cycles"] = 26530.5;
  m.metrics["energy_j"] = 2.2e-05;
  m.host["gate_check_ns"] = 0.347;
  return m;
}

TEST(ManifestSchema, OneTopLevelKeyPerLineInFixedOrder) {
  const std::string json = sample_manifest().to_json();
  const std::vector<std::string> lines = lines_of(json);
  // {schema, tool, model, threads, build, env, config, metrics, host,
  //  closing brace} — exactly ten lines, order pinned. No wall-time field:
  //  write_summary stamps wall_ms into the host map when the run ends.
  ASSERT_EQ(lines.size(), 10u) << json;
  EXPECT_EQ(lines[0], "{\"schema\":\"nocw.manifest.v1\",");
  EXPECT_EQ(lines[1], "\"tool\":\"schema_test\",");
  EXPECT_EQ(lines[2], "\"model\":\"LeNet-5\",");
  EXPECT_EQ(lines[3].rfind("\"threads\":", 0), 0u);
  EXPECT_EQ(lines[4].rfind("\"build\":{", 0), 0u);
  EXPECT_EQ(lines[5].rfind("\"env\":{", 0), 0u);
  EXPECT_EQ(lines[6].rfind("\"config\":{", 0), 0u);
  EXPECT_EQ(lines[7],
            "\"metrics\":{\"energy_j\":2.2e-05,\"latency_cycles\":26530.5},");
  EXPECT_EQ(lines[8], "\"host\":{\"gate_check_ns\":0.347}");
  EXPECT_EQ(lines[9], "}");
  // All but the final key line are comma-terminated (valid JSON when
  // joined); the host line closes its object without a comma.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(lines[i].back(), ',') << "line " << i << ": " << lines[i];
  }
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
}

TEST(ManifestSchema, ProvenanceKeysAlwaysPresent) {
  const RunManifest m = make_manifest("t");
  for (const char* key : {"git_sha", "build_type", "compiler", "tracing"}) {
    EXPECT_TRUE(m.build.count(key)) << key;
    EXPECT_FALSE(m.build.at(key).empty()) << key;
  }
  EXPECT_GE(m.threads, 1);
  // The tracing fact must agree with how this test binary was compiled.
#if defined(NOCW_TRACE_DISABLED)
  EXPECT_EQ(m.build.at("tracing"), "compiled-out");
#else
  EXPECT_EQ(m.build.at("tracing"), "compiled-in");
#endif
}

TEST(ManifestSchema, GitShaEnvOverrideWinsAndCapturesNocwEnv) {
  ::setenv("NOCW_GIT_SHA", "feedc0de", 1);
  ::setenv("NOCW_SCHEMA_TEST_PROBE", "42", 1);
  const RunManifest m = make_manifest("t");
  EXPECT_EQ(m.build.at("git_sha"), "feedc0de");
  ASSERT_TRUE(m.env.count("NOCW_SCHEMA_TEST_PROBE"));
  EXPECT_EQ(m.env.at("NOCW_SCHEMA_TEST_PROBE"), "42");
  ::unsetenv("NOCW_GIT_SHA");
  ::unsetenv("NOCW_SCHEMA_TEST_PROBE");
  // PATH & co. never leak into the manifest.
  EXPECT_FALSE(make_manifest("t").env.count("PATH"));
}

TEST(ManifestSchema, EscapesQuotesAndControlCharacters) {
  RunManifest m;
  m.tool = "quote\"tool";
  m.config["note"] = "line\nbreak\\slash";
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"tool\":\"quote\\\"tool\""), std::string::npos);
  // Control characters are dropped, backslashes escaped: still one line.
  EXPECT_NE(json.find("\"note\":\"linebreak\\\\slash\""), std::string::npos);
}

TEST(ManifestSchema, WriteManifestIsAtomicAndReadsBack) {
  const std::string path = ::testing::TempDir() + "manifest_schema_test.json";
  ASSERT_TRUE(write_manifest(sample_manifest(), path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), sample_manifest().to_json());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "temp file left over";
  std::remove(path.c_str());
  // An unwritable destination reports failure instead of throwing.
  EXPECT_FALSE(write_manifest(sample_manifest(), "/nonexistent/dir/x.json"));
}

TEST(TimeSeriesSchema, HeaderSeriesLinesAndFooter) {
  TimeSeriesSet set(8);
  set.append("accel.macs", "count", 256, 4000.0);
  set.append("noc.link_flits", "flits", 256, 80.0);
  set.append("noc.link_flits", "flits", 512, 96.0);
  const std::vector<std::string> lines = lines_of(set.to_json());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "{\"schema\":\"nocw.timeseries.v1\",\"series\":[");
  EXPECT_EQ(lines[3], "]}");
  // Every series line is a complete {...} object, comma-terminated except
  // the last — the line-based contract the dashboard relies on.
  EXPECT_EQ(lines[1],
            "{\"name\":\"accel.macs\",\"unit\":\"count\",\"stride\":1,"
            "\"points\":[[256,4000]]},");
  EXPECT_EQ(lines[2],
            "{\"name\":\"noc.link_flits\",\"unit\":\"flits\",\"stride\":1,"
            "\"points\":[[256,80],[512,96]]}");
}

TEST(TimeSeriesSchema, EmptySetStillValid) {
  const TimeSeriesSet set(8);
  const std::vector<std::string> lines = lines_of(set.to_json());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"schema\":\"nocw.timeseries.v1\",\"series\":[");
  EXPECT_EQ(lines[1], "]}");
  EXPECT_EQ(set.to_csv(), "series,unit,cycle,value\n");
}

TEST(TimeSeriesSchema, NumbersAreShortestRoundTrip) {
  TimeSeriesSet set(8);
  set.append("a", "count", 0, 40.0);             // integral: no exponent form
  set.append("a", "count", 1, 0.1);              // shortest decimal
  set.append("a", "count", 2, 726.1052631578947);  // full precision kept
  const std::string json = set.to_json();
  EXPECT_NE(json.find("[0,40]"), std::string::npos) << json;
  EXPECT_NE(json.find("[1,0.1]"), std::string::npos) << json;
  EXPECT_NE(json.find("[2,726.1052631578947]"), std::string::npos) << json;
}

}  // namespace
}  // namespace nocw::obs

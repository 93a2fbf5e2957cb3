// bench::write_summary promises: the aggregated summary is keyed by tool
// (so repeated registration can never duplicate a key — last writer wins),
// a second write_summary for one tool inside one process warns and is
// counted instead of passing silently, NOCW_REGRESS_STRICT=1 promotes that
// warning to a hard CheckError, and the stamped wall_ms lands in the host
// map, which the regression gate never gates, not in the metrics.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/check.hpp"

namespace nocw::bench {
namespace {

class SummaryWriter : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every case as its own process, in parallel under -j: each
    // case (and each process) gets its own directory, so no case reads a
    // summary another one is writing.
    dir_ = ::testing::TempDir() + "summary_writer_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    summary_ = dir_ + "/results/BENCH_summary.json";
    // Pin the summary path: the environment outside the test must not
    // redirect where write_summary lands.
    ASSERT_EQ(::setenv("NOCW_SUMMARY_JSON", summary_.c_str(), 1), 0);
  }
  void TearDown() override {
    ::unsetenv("NOCW_SUMMARY_JSON");
    ::unsetenv("NOCW_REGRESS_STRICT");
    std::filesystem::remove_all(dir_);
  }

  std::string read_summary_file() const {
    std::ifstream in(summary_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  static std::size_t count_occurrences(const std::string& text,
                                       const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  }

  std::string dir_;
  std::string summary_;
};

TEST_F(SummaryWriter, RepeatedWriteForOneToolWarnsAndKeepsLatest) {
  const std::uint64_t before = duplicate_summary_writes();
  obs::RunManifest m = obs::make_manifest("dup_tool");
  m.metrics["x"] = 1.0;
  write_summary(dir_, m);
  EXPECT_EQ(duplicate_summary_writes(), before);  // first write is clean

  m.metrics["x"] = 2.0;
  write_summary(dir_, m);
  EXPECT_EQ(duplicate_summary_writes(), before + 1);

  const std::string text = read_summary_file();
  // Exactly one entry for the tool — map-keyed merge, no duplicate key —
  // holding the value of the *latest* write.
  EXPECT_EQ(count_occurrences(text, "\"dup_tool\":"), 1u);
  EXPECT_NE(text.find("\"x\":2"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"x\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("nocw.bench_summary.v1"), std::string::npos);
}

TEST_F(SummaryWriter, DistinctToolsMergeWithoutWarning) {
  const std::uint64_t before = duplicate_summary_writes();
  write_summary(dir_, "tool_one", {{"a", 1.0}});
  write_summary(dir_, "tool_two", {{"b", 2.0}});
  EXPECT_EQ(duplicate_summary_writes(), before);

  const std::string text = read_summary_file();
  EXPECT_EQ(count_occurrences(text, "\"tool_one\":"), 1u);
  EXPECT_EQ(count_occurrences(text, "\"tool_two\":"), 1u);
}

TEST_F(SummaryWriter, StrictModeTurnsDuplicateRegistrationIntoError) {
  ASSERT_EQ(::setenv("NOCW_REGRESS_STRICT", "1", 1), 0);
  const std::uint64_t before = duplicate_summary_writes();
  write_summary(dir_, "strict_tool", {{"a", 1.0}});
  // Distinct tools stay fine under strict mode.
  write_summary(dir_, "strict_other", {{"b", 1.0}});
  EXPECT_THROW(write_summary(dir_, "strict_tool", {{"a", 2.0}}), CheckError);
  // The duplicate is still counted, and the summary keeps the first entry
  // (the strict throw fires before any file write).
  EXPECT_EQ(duplicate_summary_writes(), before + 1);
  const std::string text = read_summary_file();
  EXPECT_EQ(count_occurrences(text, "\"strict_tool\":"), 1u);
  EXPECT_NE(text.find("\"a\":1"), std::string::npos) << text;
  ::unsetenv("NOCW_REGRESS_STRICT");

  // Back in warn-only mode the same duplicate passes again.
  write_summary(dir_, "strict_tool", {{"a", 3.0}});
  EXPECT_EQ(duplicate_summary_writes(), before + 2);
}

TEST_F(SummaryWriter, WallTimeLandsInHostMapNotMetrics) {
  obs::RunManifest m = obs::make_manifest("host_tool");
  m.metrics["latency_cycles"] = 42.0;
  m.host["speedup"] = 2.5;
  write_summary(dir_, m);

  const std::string text = read_summary_file();
  const std::size_t entry = text.find("\"host_tool\":");
  ASSERT_NE(entry, std::string::npos) << text;
  const std::string line = text.substr(entry, text.find('\n', entry) - entry);
  const std::size_t metrics = line.find("\"metrics\":{");
  const std::size_t host = line.find("\"host\":{");
  ASSERT_NE(metrics, std::string::npos) << line;
  ASSERT_NE(host, std::string::npos) << line;
  ASSERT_LT(metrics, host) << line;
  const std::string metrics_map = line.substr(metrics, host - metrics);
  const std::string host_map = line.substr(host);
  EXPECT_EQ(metrics_map, "\"metrics\":{\"latency_cycles\":42},") << line;
  EXPECT_EQ(host_map.rfind("\"host\":{\"speedup\":2.5,\"wall_ms\":", 0), 0u)
      << line;

  // The run manifest carries the same stamped host map.
  std::ifstream run(dir_ + "/results/run_host_tool.json");
  std::ostringstream os;
  os << run.rdbuf();
  EXPECT_NE(os.str().find("\"host\":{\"speedup\":2.5,\"wall_ms\":"),
            std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("\n\"metrics\":{\"latency_cycles\":42},\n"),
            std::string::npos)
      << os.str();
}

TEST_F(SummaryWriter, RewriteAcrossToolsPreservesOtherEntries) {
  obs::RunManifest m = obs::make_manifest("survivor");
  m.metrics["keep"] = 7.0;
  write_summary(dir_, m);

  obs::RunManifest other = obs::make_manifest("overwriter");
  other.metrics["y"] = 1.0;
  write_summary(dir_, other);
  other.metrics["y"] = 3.0;
  write_summary(dir_, other);  // warned, last-writer-wins

  const std::string text = read_summary_file();
  EXPECT_EQ(count_occurrences(text, "\"survivor\":"), 1u);
  EXPECT_NE(text.find("\"keep\":7"), std::string::npos);
  EXPECT_EQ(count_occurrences(text, "\"overwriter\":"), 1u);
  EXPECT_NE(text.find("\"y\":3"), std::string::npos);
}

}  // namespace
}  // namespace nocw::bench

#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <system_error>

#include "nn/serialize.hpp"
#include "nn/train.hpp"
#include "obs/jsonfmt.hpp"
#include "obs/log.hpp"
#include "util/check.hpp"

namespace nocw::bench {

namespace {

// Captured at static initialization, i.e. (close enough to) process start;
// write_summary stamps wall_ms relative to this.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

std::string summary_path(const std::string& dir) {
  return env_string("NOCW_SUMMARY_JSON",
                    dir + "/results/BENCH_summary.json");
}

// Tools this process has already registered with write_summary, so a
// double registration (two write_summary calls for one tool in one run)
// is warned about instead of silently keeping whichever ran last without
// anyone noticing. The summary itself stays last-writer-wins either way:
// entries are keyed by tool, so duplicates cannot appear in the file.
std::mutex g_registered_mu;
std::set<std::string> g_registered_tools;
std::uint64_t g_duplicate_writes = 0;

// One bench's entry in the aggregated summary, rendered on a single line
// (the merge below is line-based).
std::string summary_entry(const obs::RunManifest& m) {
  std::ostringstream os;
  os << "{\"model\":\"" << obs::json_escape(m.model) << "\",\"git_sha\":\""
     << obs::json_escape(m.build.count("git_sha") ? m.build.at("git_sha")
                                                  : "unknown")
     << "\",\"threads\":" << m.threads
     << ",\"metrics\":" << obs::json_number_map(m.metrics)
     << ",\"host\":" << obs::json_number_map(m.host) << "}";
  return os.str();
}

// Read an existing summary back into name -> raw entry line. Tolerates a
// missing or foreign file (returns empty: the writer below regenerates the
// envelope from scratch).
std::map<std::string, std::string> read_summary(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return out;
  if (line.find("nocw.bench_summary.v1") == std::string::npos) return out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '"') continue;
    const auto name_end = line.find('"', 1);
    if (name_end == std::string::npos) continue;
    const auto colon = line.find(':', name_end);
    if (colon == std::string::npos) continue;
    std::string entry = line.substr(colon + 1);
    while (!entry.empty() && (entry.back() == ',' || entry.back() == '\r')) {
      entry.pop_back();
    }
    out[line.substr(1, name_end - 1)] = entry;
  }
  return out;
}

}  // namespace

std::string output_dir(const char* argv0) {
  std::string path(argv0 ? argv0 : ".");
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash);
}

double emit(const std::string& title, const Table& table,
            const std::string& dir, const std::string& slug) {
  std::printf("\n== %s ==\n%s", title.c_str(), table.to_string().c_str());
  std::error_code ec;
  std::filesystem::create_directories(dir + "/results", ec);
  const std::string csv_path = dir + "/results/" + slug + ".csv";
  if (table.write_csv(csv_path)) {
    std::printf("(csv: %s)\n", csv_path.c_str());
  }
  std::fflush(stdout);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : table.to_csv()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return static_cast<double>(h & ((std::uint64_t{1} << 48) - 1));
}

TrainedLenet trained_lenet(const std::string& cache_dir) {
  TrainedLenet out{nn::make_lenet5(), nn::Dataset{}, 0.0};
  const int test_n = 400;
  out.test = nn::make_digits(test_n, /*seed=*/90001);

  std::error_code ec;
  std::filesystem::create_directories(cache_dir + "/results", ec);
  const std::string cache = cache_dir + "/results/lenet5_trained.weights";
  bool loaded = false;
  try {
    loaded = nn::load_weights(out.model.graph, cache);
  } catch (const nn::SerializeError& e) {
    // Stale or corrupt cache (e.g. written by an older format version):
    // report it and retrain rather than aborting the bench.
    obs::log("[bench] discarding cached checkpoint %s: %s\n", cache.c_str(),
             e.what());
  }
  if (!loaded) {
    const int train_n = static_cast<int>(env_int("REPRO_TRAIN", 1200, 1));
    const int epochs = static_cast<int>(env_int("REPRO_EPOCHS", 5, 1));
    obs::log("[bench] training LeNet-5 (%d samples, %d epochs)...\n",
             train_n, epochs);
    const nn::Dataset train = nn::make_digits(train_n, /*seed=*/90002);
    nn::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batch_size = 32;
    cfg.learning_rate = 0.08F;
    const nn::TrainStats stats =
        nn::train_classifier(out.model.graph, train, cfg);
    obs::log("[bench] final train accuracy %.3f, loss %.4f\n",
             stats.epoch_accuracy.back(), stats.epoch_loss.back());
    (void)nn::save_weights(out.model.graph, cache);
  }
  out.test_accuracy = nn::evaluate_top1(out.model.graph, out.test);
  obs::log("[bench] LeNet-5 test top-1 accuracy: %.4f\n",
           out.test_accuracy);
  return out;
}

void write_summary(const std::string& dir, const obs::RunManifest& m) {
  {
    const std::lock_guard<std::mutex> lock(g_registered_mu);
    if (!g_registered_tools.insert(m.tool).second) {
      ++g_duplicate_writes;
      // Under the strict regression gate a double registration is a bench
      // bug (two mains claiming one summary key), not a warning: the same
      // switch that turns tolerance drift into failures turns this hard.
      if (env_int("NOCW_REGRESS_STRICT", 0) == 1) {
        throw CheckError("write_summary: duplicate registration for tool '" +
                         m.tool + "' with NOCW_REGRESS_STRICT=1");
      }
      std::fprintf(stderr,
                   "[bench] warning: write_summary called again for tool "
                   "'%s' in this process; keeping the latest entry "
                   "(last-writer-wins)\n",
                   m.tool.c_str());
    }
  }
  // Stamp the bench's wall-clock cost as a host value (reported by the
  // regression gate, never gated). Stamped here, at the end of the run,
  // because manifests are often created at bench start.
  obs::RunManifest stamped = m;
  stamped.host["wall_ms"] =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - kProcessStart)
          .count();

  std::error_code ec;
  std::filesystem::create_directories(dir + "/results", ec);
  const std::string run_path = dir + "/results/run_" + m.tool + ".json";
  if (obs::write_manifest(stamped, run_path)) {
    std::printf("(manifest: %s)\n", run_path.c_str());
  }

  const std::string path = summary_path(dir);
  std::map<std::string, std::string> entries = read_summary(path);
  entries[m.tool] = summary_entry(stamped);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << "{\"schema\":\"nocw.bench_summary.v1\",\"benches\":{\n";
    std::size_t i = 0;
    for (const auto& [name, entry] : entries) {
      out << "\"" << obs::json_escape(name) << "\":" << entry
          << (++i < entries.size() ? "," : "") << "\n";
    }
    out << "}}\n";
    if (!out.good()) return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (!ec) std::printf("(summary: %s)\n", path.c_str());
  std::fflush(stdout);
}

void write_summary(const std::string& dir, const std::string& bench_name,
                   const std::map<std::string, double>& metrics,
                   const std::string& model) {
  obs::RunManifest m = obs::make_manifest(bench_name, model);
  m.metrics = metrics;
  write_summary(dir, m);
}

std::uint64_t duplicate_summary_writes() {
  const std::lock_guard<std::mutex> lock(g_registered_mu);
  return g_duplicate_writes;
}

}  // namespace nocw::bench

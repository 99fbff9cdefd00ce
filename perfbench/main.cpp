// perfbench: the repository's benchmark. Runs one workload against the
// shipped server stack in-process over loopback TCP + mutual TLS, checks
// every output, and prints its metrics; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
//
//   perfbench --workload portal_get|job_renew|user_init --seed N
//             --seconds S --trace 0|1 --rate R [--source ID]
//
// Each run: set-up (PKI, preload, server start, first request), a 1 s
// closed-loop warm-up, then --seconds of measurement. Every delivered
// credential is checked by the generator thread that received it, as it
// arrives, outside the op's timing and CPU accounting.
// --trace 0: end-to-end metrics. Set-up runs kSetups times (setup_s is the
//            median), then a closed loop with one client per core (at most
//            4) gives goodput and CPU per op.
// --trace 1: per-layer metrics. Half the time an untraced open loop at
//            --rate ops/s (latency from due time: gen.*), half a traced
//            one, then replays of each layer's entry points; spans go to
//            .bench_run/<run>/trace.json.
// Normally started through perfbench/run.py, which builds this binary and
// takes the rate from BENCHMARK.json.
#include <fcntl.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common/logging.hpp"
#include "core.hpp"
#include "replay.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;  // NOLINT(google-build-using-namespace)
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double rate = 0;
  std::string source = "unknown";
};

/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 3;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --rate R [--source ID]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value);
      else if (key == "--rate") a.rate = std::stod(value);
      else if (key == "--source") a.source = value;
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown workload");
  if (a.rate <= 0 || a.seconds <= 0) {
    usage("--rate and --seconds must be positive");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// syncfs() on the filesystem holding `dir`.
void sync_filesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string fs_type(const fs::path& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// p-quantile of the ops recorded in a server latency histogram between two
/// snapshots, interpolated inside the power-of-two bucket (µs).
double histogram_quantile_us(const mp::server::LatencyHistogram::Snapshot& a,
                             const mp::server::LatencyHistogram::Snapshot& b,
                             double q) {
  const std::uint64_t total = b.total - a.total;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < mp::server::LatencyHistogram::kBuckets; ++i) {
    const auto n = static_cast<double>(b.counts[i] - a.counts[i]);
    if (n > 0 && seen + n >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      return lo + (hi - lo) * (target - seen) / n;
    }
    seen += n;
  }
  return std::ldexp(1.0, static_cast<int>(mp::server::LatencyHistogram::kBuckets));
}

/// Sends the library's log (INFO, as the server tool runs it) to a file in
/// the run's scratch directory for the life of the object.
class LogToFile {
 public:
  explicit LogToFile(const fs::path& path) : file_(path) {
    mp::log::Logger::instance().set_sink(&file_);
    mp::log::Logger::instance().set_level(mp::log::Level::kInfo);
  }
  ~LogToFile() { mp::log::Logger::instance().set_sink(nullptr); }
  LogToFile(const LogToFile&) = delete;
  LogToFile& operator=(const LogToFile&) = delete;

 private:
  std::ofstream file_;
};

struct Counters {
  mp::server::LatencyHistogram::Snapshot dispatch;
  std::uint64_t full = 0;
  std::uint64_t resumed = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

Counters sample(Workload& wl) {
  const auto& st = wl.stack().server().stats();
  Counters c;
  c.dispatch = st.op_latency[static_cast<std::size_t>(wl.shape().command)]
                   .snapshot();
  c.full = st.full_handshakes.load();
  c.resumed = st.resumed_handshakes.load();
  c.pool_hits = st.keypool_hits.load();
  c.pool_misses = st.keypool_misses.load();
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::size_t successes(const std::vector<OpRecord>& ops) {
  std::size_t n = 0;
  for (const auto& op : ops) n += op.ok ? 1 : 0;
  return n;
}

std::string provenance(const Args& args, Workload& wl, const fs::path& dir) {
  utsname u{};
  uname(&u);
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  const auto& cfg = wl.stack().config();
  const auto& sc = wl.stack().server_config();
  std::ostringstream o;
  o << "{\"source\":" << json_string(args.source)
    << ",\"host\":" << json_string(host)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
    << ",\"kernel\":" << json_string(std::string(u.sysname) + " " + u.release)
    << ",\"store_fs\":" << json_string(fs_type(dir))
    << ",\"traffic\":\"loopback TCP, mutual TLS\""
    << ",\"workload\":" << json_string(args.workload)
    << ",\"seed\":" << args.seed << ",\"seconds\":" << json_number(args.seconds)
    << ",\"open_loop_rate\":" << json_number(args.rate)
    << ",\"kdf_iterations\":" << wl.stack().repository().policy().kdf_iterations
    << ",\"store_sync_mode\":"
    << json_string(cfg.get_or("store_sync_mode", "fsync"))
    << ",\"replication_sync_mode\":"
    << json_string(wl.shape().replicated
                       ? cfg.get_or("replication_sync_mode", "fsync")
                       : "off (standalone)")
    << ",\"delegation_key_spec\":"
    << json_string(sc.delegation_key_spec.type == mp::crypto::KeyType::kEc
                       ? "ec-p256"
                       : "rsa-" + std::to_string(
                                      sc.delegation_key_spec.rsa_bits))
    << ",\"keygen_pool_size\":" << sc.keygen_pool_size
    << ",\"worker_threads\":" << sc.worker_threads
    << ",\"reactor_threads\":" << sc.reactor_threads
    << ",\"io_model\":" << json_string(mp::server::to_string(sc.io_model))
    << ",\"tls_session_resumption\":" << (sc.tls_session_resumption ? 1 : 0)
    << ",\"store_cache_shards\":" << cfg.get_int_or("store_cache_shards", 8)
    << ",\"store_shards\":" << cfg.get_int_or("store_shards", 16) << "}";
  return o.str();
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::ostringstream o;
  o << "{\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
    << ",\"metrics\":{";
  bool first = true;
  for (const auto& [spec, value] : metrics) {
    if (!first) o << ",";
    first = false;
    o << json_string(spec.name) << ":{\"value\":" << json_number(value)
      << ",\"unit\":" << json_string(spec.unit) << "}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

MetricSpec spec_of(std::string_view name, const auto& table) {
  for (const auto& spec : table) {
    if (spec.name == name) return spec;
  }
  throw std::logic_error("unlisted metric " + std::string(name));
}

int run(const Args& args) {
  const WorkloadShape& shape = *find_workload(args.workload);
  const std::size_t threads = generator_threads();
  const fs::path run_dir =
      fs::absolute(".bench_run") /
      (args.workload + "-s" + std::to_string(args.seed) + "-t" +
       std::to_string(args.trace));
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  auto log = std::make_unique<LogToFile>(run_dir / "server.log");

  const bool traced = args.trace == 1;
  const std::size_t setups = traced ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl;
  for (std::size_t k = 0; k < setups; ++k) {
    const fs::path dir = run_dir / ("setup" + std::to_string(k));
    wl.reset();
    if (k > 0) fs::remove_all(run_dir / ("setup" + std::to_string(k - 1)));
    sync_filesystem(run_dir);
    const auto t0 = Clock::now();
    wl = std::make_unique<Workload>(shape, args.seed, dir, traced);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const fs::path store_dir = run_dir / ("setup" + std::to_string(setups - 1));
  std::cout << "provenance " << provenance(args, *wl, store_dir) << "\n";
  // Preload writes with commit sync off; flush it now so its writeback
  // does not land on the measured phases' fsyncs.
  sync_filesystem(run_dir);

  const auto op_for = [&wl](std::size_t phase) -> OpFn {
    return [&wl, phase](std::size_t t, std::uint64_t i) {
      return wl->op(t, phase, i);
    };
  };
  const CheckFn check = [&wl](std::size_t t, std::uint64_t) {
    return wl->verify(t);
  };
  const auto part = [&args](double share) {
    return std::chrono::duration<double>(args.seconds * share);
  };

  // Warm-up: sessions, caches and the key pool settle before timing.
  PhaseResult warm = run_closed_loop(std::chrono::duration<double>(1.0),
                                     threads, op_for(0), check);
  Tally tally;
  std::vector<std::pair<MetricSpec, double>> metrics;
  bool correct = true;

  if (!traced) {
    const double cpu0 = process_cpu_s();
    PhaseResult closed =
        run_closed_loop(part(1.0), threads, op_for(1), check);
    const double cpu1 = process_cpu_s();
    const std::size_t mismatches =
        wl->check_replica({&warm.ops, &closed.ops});
    tally.add(warm.ops);
    tally.add(closed.ops);
    correct = mismatches == 0 && tally.failed == 0;

    const auto lat = latencies_ms(closed.ops);
    const Rank p50 = percentile(lat, 0.50);
    const Rank p99 = percentile(lat, 0.99);
    const double ok_closed = static_cast<double>(successes(closed.ops));
    const double server_cpu_s =
        cpu1 - cpu0 - closed.generator_cpu_s - closed.check_cpu_s;
    const double goodput = windowed_ops_per_s(closed.ops, closed.wall_s);
    metrics = {
        {spec_of("setup_s", kEndToEnd), median(setup_s)},
        {spec_of("ops_per_s", kEndToEnd), goodput},
        {spec_of("server_cpu_ms_per_op", kEndToEnd),
         1000.0 * ratio(server_cpu_s, ok_closed)},
        {spec_of("client_cpu_ms_per_op", kEndToEnd),
         1000.0 * ratio(closed.generator_cpu_s, ok_closed)},
        {spec_of("peak_rss_mb", kEndToEnd), peak_rss_mb()},
    };
    std::printf("%s: closed loop %zu clients x %.1f s: %.1f ops/s, server "
                "%.3f + client %.3f cpu-ms/op (checks %.3f), latency p50 "
                "%.3f ms p99 %.3f ms (%zu samples); fail_frac %.6f (%llu of "
                "%llu)\n",
                args.workload.c_str(), threads, closed.wall_s, goodput,
                1000.0 * ratio(server_cpu_s, ok_closed),
                1000.0 * ratio(closed.generator_cpu_s, ok_closed),
                1000.0 * ratio(closed.check_cpu_s, ok_closed), p50.value,
                p99.value, p99.samples, tally.fail_frac(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
  } else {
    PhaseResult plain =
        run_open_loop(args.rate, part(0.5), threads, op_for(1), check);
    const Counters before = sample(*wl);
    spans().set_enabled(true);
    PhaseResult traced_phase =
        run_open_loop(args.rate, part(0.5), threads, op_for(2), check);
    spans().set_enabled(false);
    const Counters after = sample(*wl);
    const LayerCosts costs = replay_layers(*wl);
    const std::size_t mismatches =
        wl->check_replica({&warm.ops, &plain.ops, &traced_phase.ops});
    tally.add(warm.ops);
    tally.add(plain.ops);
    tally.add(traced_phase.ops);

    std::vector<Span> spans_taken = spans().take();
    join_spans(spans_taken);
    write_trace(spans_taken, run_dir / "trace.json");

    const auto& server = wl->stack().server();
    const auto adm = server.admission().counters();
    const double shed = static_cast<double>(adm.shed_rate + adm.shed_queue +
                                            adm.preauth_shed);
    correct = mismatches == 0 && tally.failed == 0 && shed == 0;

    const double ops = static_cast<double>(successes(traced_phase.ops));
    const auto plain_lat = latencies_ms(plain.ops);
    const double p50_plain = percentile(plain_lat, 0.5).value;
    const double p50_traced =
        percentile(latencies_ms(traced_phase.ops), 0.5).value;
    const Rank p90 = percentile(plain_lat, 0.90);
    const Rank p99 = percentile(plain_lat, 0.99);
    std::vector<double> late;
    for (const auto& op : plain.ops) late.push_back(op.late_ms());

    const double dispatch_ms =
        histogram_quantile_us(before.dispatch, after.dispatch, 0.5) / 1000.0;
    const double full = static_cast<double>(after.full - before.full);
    const double resumed = static_cast<double>(after.resumed - before.resumed);
    const double hits = static_cast<double>(after.pool_hits - before.pool_hits);
    const double misses =
        static_cast<double>(after.pool_misses - before.pool_misses);
    const double full_frac = ratio(full, full + resumed);

    const auto front = wl->stack().front().totals();
    const StoreTap::Totals back =
        wl->stack().back() != nullptr ? wl->stack().back()->totals()
                                      : StoreTap::Totals{};
    const StoreTap::Totals journal =
        wl->stack().above_journal() != nullptr
            ? wl->stack().above_journal()->totals()
            : StoreTap::Totals{};
    const double front_get_us = ratio(front.get_us, front.gets);
    const double front_put_us = ratio(front.put_us, front.puts);
    const double back_put_us = ratio(back.put_us, back.puts);
    const double gets_per_op = ratio(front.gets, ops);
    const double puts_per_op = ratio(back.puts, ops);
    const std::vector<double> lags = wl->stack().replica_lags_ms();

    // Replayed cost of the blocking steps of one op. Full handshakes also
    // pay two chain verifications: the server's of the client and the
    // client's of the host.
    double attributed_us =
        full_frac * (costs.full_handshake_us + 2 * costs.chain_verify_us) +
        (1 - full_frac) * costs.resumed_handshake_us + costs.delegate_us +
        costs.complete_us;
    if (shape.command == mp::protocol::Command::kPut) {
      attributed_us += ratio(misses, hits + misses) * costs.keygen_us +
                       costs.repo_store_us + front_put_us * puts_per_op +
                       front_get_us * gets_per_op;
    } else {
      attributed_us += costs.keygen_us + costs.repo_open_us +
                       front_get_us * std::max(0.0, gets_per_op - 1);
    }

    metrics = {
        {spec_of("server.dispatch_p50_ms", kPerLayer), dispatch_ms},
        {spec_of("server.outside_dispatch_ms", kPerLayer),
         p50_plain - dispatch_ms},
        {spec_of("server.peak_in_flight", kPerLayer),
         static_cast<double>(server.stats().peak_in_flight.load())},
        {spec_of("admission.shed", kPerLayer), shed},
        {spec_of("tls.resumed_frac", kPerLayer), ratio(resumed, full + resumed)},
        {spec_of("tls.full_handshake_us", kPerLayer), costs.full_handshake_us},
        {spec_of("tls.resumed_handshake_us", kPerLayer),
         costs.resumed_handshake_us},
        {spec_of("pki.chain_verify_us", kPerLayer), costs.chain_verify_us},
        {spec_of("gsi.delegate_us", kPerLayer), costs.delegate_us},
        {spec_of("gsi.complete_us", kPerLayer), costs.complete_us},
        {spec_of("crypto.keygen_us", kPerLayer), costs.keygen_us},
        {spec_of("keypool.hit_frac", kPerLayer), ratio(hits, hits + misses)},
        {spec_of("crypto.kdf_us", kPerLayer), costs.kdf_us},
        {spec_of("repo.open_us", kPerLayer), costs.repo_open_us},
        {spec_of("repo.store_us", kPerLayer), costs.repo_store_us},
        {spec_of("store.front.get_per_op", kPerLayer), gets_per_op},
        {spec_of("store.front.get_us", kPerLayer), front_get_us},
        {spec_of("store.cache_hit_frac", kPerLayer),
         front.gets > 0 ? 1.0 - ratio(back.gets, front.gets) : 0.0},
        {spec_of("store.back.get_us", kPerLayer), ratio(back.get_us, back.gets)},
        {spec_of("store.back.put_us", kPerLayer), back_put_us},
        {spec_of("store.put_per_op", kPerLayer), puts_per_op},
        {spec_of("repl.journal_us", kPerLayer),
         journal.puts > 0 ? ratio(journal.put_us, journal.puts) - back_put_us
                          : 0.0},
        {spec_of("repl.lag_p50_ms", kPerLayer), percentile(lags, 0.5).value},
        {spec_of("repl.lag_p90_ms", kPerLayer), percentile(lags, 0.9).value},
        {spec_of("gen.p50_ms", kPerLayer), p50_plain},
        {spec_of("gen.p90_ms", kPerLayer), p90.value},
        {spec_of("gen.p99_ms", kPerLayer), p99.value},
        {spec_of("gen.late_p90_ms", kPerLayer), percentile(late, 0.9).value},
        {spec_of("gen.samples", kPerLayer), static_cast<double>(p99.samples)},
        {spec_of("trace.overhead_frac", kPerLayer),
         ratio(p50_traced, p50_plain) - 1.0},
        {spec_of("unattributed_ms", kPerLayer),
         p50_plain - attributed_us / 1000.0},
    };
    std::printf("%s: untraced p50 %.3f ms, traced p50 %.3f ms, dispatch p50 "
                "%.3f ms; p99 %.3f ms (%zu samples, %zu beyond)\n",
                args.workload.c_str(), p50_plain, p50_traced, dispatch_ms,
                p99.value, p99.samples, p99.beyond);
    std::printf("%s: self time per op (trace: %s)\n", args.workload.c_str(),
                (run_dir / "trace.json").c_str());
    for (const auto& [layer, us] : self_time_us_per_op(spans_taken)) {
      std::printf("  %-20s %10.1f us\n", layer.c_str(), us);
    }
    for (const auto& [spec, value] : metrics) {
      std::printf("  %-28s %14.4f %-5s  moves %s\n",
                  std::string(spec.name).c_str(), value,
                  std::string(spec.unit).c_str(),
                  std::string(spec.moves).c_str());
    }
  }

  if (metrics.size() != (traced ? std::size(kPerLayer) : std::size(kEndToEnd))) {
    throw std::logic_error("a listed metric was not measured");
  }
  if (const std::string error = wl->first_error(); !error.empty()) {
    std::printf("check failed: %s\n", error.c_str());
  }
  wl.reset();
  log.reset();
  // Keep the trace and, on failure, the log; stores are large.
  fs::remove_all(store_dir);
  sync_filesystem(run_dir);
  if (correct) fs::remove(run_dir / "server.log");
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--list-metrics") {
    for (const auto& m : kEndToEnd) {
      std::cout << "end_to_end " << m.name << ' ' << m.unit << '\n';
    }
    for (const auto& m : kPerLayer) {
      std::cout << "per_layer " << m.name << ' ' << m.unit << '\n';
    }
    return 0;
  }
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

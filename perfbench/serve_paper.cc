// serve_paper: anyoptd as operators run it.  The daemon is spawned cold at
// paper scale; one client process drives two closed-loop connections: an
// interactive one cycling subset predicts, full-population predicts and
// scores, and an operator one sending distinct mitigations back to back.
// See README.md for why.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anycast/world.h"
#include "common.h"
#include "core/optimizer.h"
#include "core/predictor.h"
#include "hostspeed.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "topo/builder.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace anyopt;

/// Daemon spawns per run; setup_s is the median spawn-to-first-answer time.
constexpr int kSetups = 3;
/// Connection workers; each connection pins one (src/serve/server.cc), so
/// this must be at least the number of connections.
constexpr int kDaemonThreads = 2;
/// Nominal costs (4-vCPU Xeon VM), used only to size the two request lists
/// from `--seconds` so both connections finish together.  The operator's
/// share varies by seed (an 8x search costs 0.4-1.0 s): over 23 runs its
/// list took 0.75-1.33 times as long as the interactive one.
constexpr double kNominalInteractiveCycleS = 0.06;
constexpr double kNominalMitigateS = 0.6;
/// Interactive cycles sent on the interactive connection before timing
/// starts (answers checked, times not reported).
constexpr std::size_t kWarmupCycles = 2;
/// Attack intensities of the operator's mitigations, taken in turn: the 2x,
/// 4x and 8x that bench/bench_agility.cc benches.
constexpr double kIntensities[] = {2.0, 4.0, 8.0};
/// Requests the traced run re-times with direct predictor/optimizer calls.
constexpr std::size_t kDirectSamples = 40;
/// Mitigation configs converged and measured alone in traced runs.
constexpr std::size_t kSplitSamples = 4;

/// anyoptd child process; the destructor stops it and waits for it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         std::uint64_t world_seed)
      : socket_path_(socket_path) {
    ::unlink(socket_path_.c_str());
    const std::string log = socket_path_ + ".log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const std::string a_socket = "--socket=" + socket_path_;
    const std::string a_threads = "--threads=" + std::to_string(kDaemonThreads);
    const std::string a_seed = "--seed=" + std::to_string(world_seed);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>(a_socket.c_str()),
                               const_cast<char*>(a_threads.c_str()),
                               const_cast<char*>(a_seed.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  /// True while the child has not exited.
  [[nodiscard]] bool alive() {
    if (pid_ < 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    ::unlink(socket_path_.c_str());
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

/// One client connection: newline-delimited request/response.
class Connection {
 public:
  /// Connects, retrying while the daemon builds its snapshot.
  Connection(const std::string& path, Daemon& daemon) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const double deadline = now_s() + 150.0;
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (!daemon.alive()) throw std::runtime_error("anyoptd exited early");
      if (now_s() > deadline) throw std::runtime_error("anyoptd never listened");
      ::usleep(2000);
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line and returns the response line.
  std::string call(const std::string& request) {
    std::string line = request + "\n";
    for (std::size_t sent = 0; sent < line.size();) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      sent += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("connection closed");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

enum class Kind { kSubset, kFull, kScore, kMitigate };

struct Request {
  Kind kind = Kind::kSubset;
  std::string line;
  std::vector<std::uint32_t> sites;    ///< announcement order
  std::vector<std::uint32_t> clients;  ///< subset predicts only
  double intensity = 0;                ///< mitigations only
  std::string response;                ///< the daemon's answer
  std::string expected;                ///< the in-process answer
  double rt_ms = 0;                    ///< socket round trip
  double inproc_ms = 0;                ///< in-process handle_line
};

std::string ids_json(const std::vector<std::uint32_t>& sites) {
  std::string out = "[";
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(sites[i]);
  }
  return out + "]";
}

std::vector<std::uint32_t> random_order(Rng& rng, std::size_t sites,
                                        std::size_t count) {
  std::vector<std::uint32_t> order(sites);
  for (std::uint32_t s = 0; s < sites; ++s) order[s] = s;
  rng.shuffle(order);
  order.resize(count);
  return order;
}

/// The interactive list (subset, full, score, score, repeating) and the
/// operator list (mitigations).  Sizes and intensities follow fixed sequences
/// so every run measures the same mix; sites, orders and clients come from
/// the seed.  No request repeats.
void make_requests(std::uint64_t seed, double seconds, std::size_t sites,
                   std::size_t targets, std::vector<Request>& warmup,
                   std::vector<Request>& interactive,
                   std::vector<Request>& operator_list) {
  Rng rng{derive(seed, 0x5E7E)};
  std::set<std::string> seen;
  // Appends `r` unless an identical request line exists; true if added.
  const auto add = [&](std::vector<Request>& list, Request r) {
    if (!seen.insert(r.line).second) return false;
    list.push_back(std::move(r));
    return true;
  };
  const std::size_t cycles = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kNominalInteractiveCycleS + 0.5));
  for (std::size_t k = 0; k < kWarmupCycles + cycles; ++k) {
    std::vector<Request>& list = k < kWarmupCycles ? warmup : interactive;
    while (true) {
      Request r;
      r.kind = Kind::kSubset;
      r.sites = random_order(rng, sites, 1 + k % 5);
      std::set<std::uint32_t> clients;
      const std::size_t want = 16 + (k * 7) % 49;
      while (clients.size() < want) {
        clients.insert(static_cast<std::uint32_t>(rng.below(targets)));
      }
      r.clients.assign(clients.begin(), clients.end());
      rng.shuffle(r.clients);
      r.line = "{\"op\":\"predict\",\"sites\":" + ids_json(r.sites) +
               ",\"clients\":" + ids_json(r.clients) + "}";
      if (add(list, std::move(r))) break;
    }
    // Full predicts and scores cycle through an odd number of deployment
    // sizes ending at every site, so the median of the pooled times falls
    // inside the middle size instead of on the edge between two: over the
    // 14 equally frequent sizes 2-15, the score median jumped between about
    // 19 and 25 ms from run to run.
    const std::size_t smallest = sites % 2 == 0 ? 2 : 3;
    const std::size_t size = smallest + k % (sites - smallest + 1);
    for (const Kind kind : {Kind::kFull, Kind::kScore, Kind::kScore}) {
      while (true) {
        Request r;
        r.kind = kind;
        r.sites = random_order(rng, sites, size);
        r.line = std::string("{\"op\":\"") +
                 (kind == Kind::kFull ? "predict" : "score") +
                 "\",\"sites\":" + ids_json(r.sites) + "}";
        if (add(list, std::move(r))) break;
      }
    }
  }
  const std::size_t mitigations = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kNominalMitigateS + 0.5));
  while (operator_list.size() < mitigations) {
    // The operator's deployment announces every site, in a seeded order.
    Request r;
    r.kind = Kind::kMitigate;
    r.intensity = kIntensities[operator_list.size() % std::size(kIntensities)];
    r.sites = random_order(rng, sites, sites);
    char intensity[32];
    std::snprintf(intensity, sizeof intensity, "%g", r.intensity);
    r.line = "{\"op\":\"mitigate\",\"sites\":" + ids_json(r.sites) +
             ",\"intensity\":" + intensity + "}";
    add(operator_list, std::move(r));
  }
}

/// The integer value of `"key":N` in a response line; 0 when absent.
std::uint64_t field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

/// Runs one connection's list back to back, timing each round trip.
void drive(Connection& connection, std::vector<Request>& list,
           std::int64_t op_base, double& elapsed_s) {
  static const char* const kNames[] = {"serve.rt.predict_subset",
                                       "serve.rt.predict_full",
                                       "serve.rt.score", "serve.rt.mitigate"};
  const double start = now_s();
  for (std::size_t i = 0; i < list.size(); ++i) {
    Request& r = list[i];
    double t0 = 0;
    {
      const Span span(kNames[static_cast<int>(r.kind)], "serve",
                      op_base + static_cast<std::int64_t>(i));
      t0 = now_s();
      r.response = connection.call(r.line);
    }
    r.rt_ms = (now_s() - t0) * 1e3;
  }
  elapsed_s = now_s() - start;
}

/// Starts `workers` threads answering `items` in order with the in-process
/// service, timing each call.
void answer_in_process(serve::Service& service,
                       const std::vector<Request*>& items, unsigned workers,
                       std::atomic<std::size_t>& next,
                       std::vector<std::thread>& pool) {
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&service, &items, &next] {
      for (std::size_t i = next++; i < items.size(); i = next++) {
        Request& r = *items[i];
        const Span span("serve::Service::handle_line", "serve", kNoOp, true);
        const double t0 = now_s();
        try {
          r.expected = service.handle_line(r.line);
        } catch (const std::exception& e) {
          r.expected = std::string("exception: ") + e.what();
        }
        r.inproc_ms = (now_s() - t0) * 1e3;
      }
    });
  }
}

/// The `field_ms` times of the requests of one kind (and, for mitigations,
/// one intensity when `intensity` is not 0).
std::vector<double> times(const std::vector<Request>& list, Kind kind,
                          double Request::*field_ms, double intensity = 0) {
  std::vector<double> out;
  for (const Request& r : list) {
    if (r.kind == kind && (intensity == 0 || r.intensity == intensity)) {
      out.push_back(r.*field_ms);
    }
  }
  return out;
}

}  // namespace

void run_serve_paper(const Args& args, Record& record) {
  if (args.anyoptd.empty()) throw std::runtime_error("--anyoptd is required");
  const std::string socket_path =
      "anyoptd-" + std::to_string(::getpid()) + ".sock";

  // Set-up: spawn the daemon cold until it answers `info`; kSetups times,
  // keeping the last daemon.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::string info;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    const double t0 = now_s();
    {
      const Span span("anyoptd.spawn_to_info", "serve");
      daemon = std::make_unique<Daemon>(args.anyoptd, socket_path,
                                        args.world_seed);
      Connection connection(socket_path, *daemon);
      info = connection.call("{\"op\":\"info\"}");
    }
    setups.push_back(now_s() - t0);
  }
  HostSpeed::global().end_setup();
  record.metric("setup_s", median(setups), "s");
  const std::size_t sites = field(info, "sites");
  const std::size_t targets = field(info, "targets");
  if (info.rfind("{\"ok\":true", 0) != 0 || sites < 2 || targets == 0) {
    record.fail("unexpected info answer: " + info.substr(0, 200));
    record.op(false);
    return;
  }

  std::vector<Request> warmup, interactive, operator_list;
  make_requests(args.seed, args.seconds, sites, targets, warmup, interactive,
                operator_list);

  // Timed phase: both connections start together and run closed-loop,
  // after a few untimed requests have warmed the interactive worker.
  double interactive_s = 0, operator_s = 0, warmup_s = 0;
  {
    Connection a(socket_path, *daemon);
    Connection b(socket_path, *daemon);
    try {
      drive(a, warmup, -1'000'000, warmup_s);
    } catch (const std::exception& e) {
      record.fail(std::string("warm-up: ") + e.what());
    }
    std::exception_ptr error;
    std::thread op_thread([&] {
      try {
        drive(b, operator_list, 1'000'000, operator_s);
      } catch (...) {
        error = std::current_exception();
      }
    });
    try {
      drive(a, interactive, 0, interactive_s);
    } catch (const std::exception& e) {
      record.fail(std::string("interactive connection: ") + e.what());
    }
    op_thread.join();
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        record.fail(std::string("operator connection: ") + e.what());
      }
    }
  }
  // The answer checks below load every core: host-speed samples end here.
  HostSpeed::global().stop();
  record.metric("peak_rss_mb", peak_rss_mb(daemon->pid()), "MB");
  daemon->stop();

  // Answer checks: every response must equal, byte for byte, the answer of
  // an in-process Service over a snapshot of the same world seed (snapshot
  // tables are bit-identical at any thread count).
  serve::SnapshotOptions snapshot_options;
  snapshot_options.seed = args.world_seed;
  snapshot_options.threads = kDaemonThreads;
  const double b0 = now_s();
  std::shared_ptr<serve::Snapshot> snapshot;
  {
    const Span span("serve::Snapshot::build", "serve", kNoOp, true);
    Result<std::shared_ptr<serve::Snapshot>> built =
        serve::Snapshot::build(snapshot_options);
    if (!built.ok()) throw std::runtime_error(built.error().message);
    snapshot = std::move(built).value();
  }
  const double snapshot_build_s = now_s() - b0;
  serve::Service service;
  service.publish(snapshot);
  if (service.handle_line("{\"op\":\"info\"}") != info) {
    record.fail("info answer differs from the in-process service");
  }
  std::vector<Request*> all, operator_items, interactive_items;
  for (Request& r : operator_list) operator_items.push_back(&r);
  for (Request& r : warmup) interactive_items.push_back(&r);
  for (Request& r : interactive) interactive_items.push_back(&r);
  all = operator_items;
  all.insert(all.end(), interactive_items.begin(), interactive_items.end());
  {
    std::atomic<std::size_t> next_all{0}, next_operator{0}, next_interactive{0};
    std::vector<std::thread> pool;
    if (args.trace) {
      // Traced runs re-time the calls as the daemon saw them: one thread
      // per connection, each answering its list in order, so exactly one
      // mitigation is in flight beside one interactive request.
      answer_in_process(service, operator_items, 1, next_operator, pool);
      answer_in_process(service, interactive_items, 1, next_interactive, pool);
    } else {
      // Plain runs use every core to finish the check sooner.
      answer_in_process(
          service, all,
          std::max(1u, std::min(4u, std::thread::hardware_concurrency())),
          next_all, pool);
    }
    for (std::thread& t : pool) t.join();
  }
  std::uint64_t errors = 0, candidates = 0, pruned = 0, sim_events = 0,
                mitigated = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Request& r = *all[i];
    const bool answered = r.response.rfind("{\"ok\":true", 0) == 0;
    errors += !answered;
    const bool ok = answered && r.response == r.expected;
    if (!ok) {
      record.fail("request " + std::to_string(i) + " answered " +
                  r.response.substr(0, 160) + ", want " +
                  r.expected.substr(0, 160));
    }
    record.op(ok);
    if (r.kind == Kind::kMitigate) {
      candidates += field(r.response, "candidates");
      pruned += field(r.response, "pruned");
      sim_events += field(r.response, "sim_events");
      mitigated += r.response.find("\"mitigated\":true") != std::string::npos;
    }
  }
  record.count("agility.candidates", candidates);
  record.count("agility.mitigated", mitigated);
  record.count("agility.pruned", pruned);
  record.count("agility.sim_events", sim_events);

  // The headline op is the configuration score, the interactive what-if
  // with real work behind it: its tail is steady run to run, while the
  // tail of a sub-millisecond subset predict is set by rare host stalls.
  const std::vector<double> subset_rt =
      times(interactive, Kind::kSubset, &Request::rt_ms);
  const std::vector<double> score_rt =
      times(interactive, Kind::kScore, &Request::rt_ms);
  const std::vector<double> full_rt =
      times(interactive, Kind::kFull, &Request::rt_ms);
  const std::vector<double> mitigate_rt =
      times(operator_list, Kind::kMitigate, &Request::rt_ms);
  record.samples("predict_subset_rt", subset_rt);
  record.samples("predict_full_rt", full_rt);
  record.samples("score_rt", score_rt);
  record.samples("mitigate_rt", mitigate_rt);
  const double tail = tail_percentile(score_rt.size());
  record.info("tail_percentile", std::to_string(tail));
  record.info("ops", std::to_string(interactive.size()) +
                         " interactive requests + " +
                         std::to_string(operator_list.size()) +
                         " mitigations");
  record.metric("op_p50_ms", median(score_rt), "ms");
  record.metric("op_tail_ms", percentile(score_rt, tail), "ms");
  // Mitigations are reported per layer (serve.mitigate_rt_ms): across two
  // sets of ten runs their median moved by 33% with host speed, against
  // 18-20% for every interactive request kind.
  record.metric("aux_p50_ms", median(full_rt), "ms");
  record.metric("ops_per_s",
                static_cast<double>(interactive.size()) / interactive_s,
                "1/s");
  record.metric("serve.predict_subset_rt_us", median(subset_rt) * 1e3, "us");
  record.metric("serve.mitigate_rt_ms", median(mitigate_rt), "ms");
  // Per attack intensity, shown but not gated (a third of the list each).
  for (const double x : kIntensities) {
    const std::string tag = std::to_string(static_cast<int>(x)) + "x";
    const std::vector<double> rt =
        times(operator_list, Kind::kMitigate, &Request::rt_ms, x);
    record.samples("mitigate_rt_" + tag, rt);
    record.metric("serve.mitigate_rt_" + tag + "_ms", median(rt), "ms");
  }
  record.metric("serve.operator_s", operator_s, "s");
  record.metric("serve.interactive_s", interactive_s, "s");

  if (!args.trace) return;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double mitigations = static_cast<double>(operator_list.size());
  record.metric("serve.snapshot_build_s", snapshot_build_s, "s");
  record.metric("serve.errors", n(errors), "count");
  record.metric("agility.mitigate_ms",
                median(times(operator_list, Kind::kMitigate, &Request::inproc_ms)),
                "ms");
  for (const double x : kIntensities) {
    record.metric("agility.mitigate_" + std::to_string(static_cast<int>(x)) +
                      "x_ms",
                  median(times(operator_list, Kind::kMitigate,
                               &Request::inproc_ms, x)),
                  "ms");
  }
  record.metric("agility.candidates", n(candidates) / mitigations, "count");
  record.metric("agility.pruned", n(pruned) / mitigations, "count");
  record.metric("agility.sim_events", n(sim_events) / mitigations, "count");
  record_registry_metrics(record, operator_list.size());

  // Direct core calls on the same requests: the predictor and evaluator
  // without the protocol around them.
  const core::Predictor& predictor = snapshot->predictor();
  std::vector<double> subset_us, full_ms, evaluate_ms;
  std::size_t full_n = 0, score_n = 0;
  for (const Request& r : interactive) {
    std::vector<SiteId> order;
    for (const std::uint32_t s : r.sites) order.push_back(SiteId{s});
    const anycast::AnycastConfig config =
        anycast::AnycastConfig::of_sites(std::move(order));
    if (r.kind == Kind::kSubset) {
      std::vector<TargetId> clients;
      for (const std::uint32_t c : r.clients) clients.push_back(TargetId{c});
      const Span span("core::Predictor::predict_subset", "core", kNoOp, true);
      const double t0 = now_s();
      (void)predictor.predict_subset(config, clients);
      subset_us.push_back((now_s() - t0) * 1e6);
    } else if (r.kind == Kind::kFull && full_n++ < kDirectSamples) {
      const Span span("core::Predictor::predict", "core", kNoOp, true);
      const double t0 = now_s();
      (void)predictor.predict(config);
      full_ms.push_back((now_s() - t0) * 1e3);
    } else if (r.kind == Kind::kScore && score_n++ < kDirectSamples) {
      const Span span("core::Optimizer::evaluate_uncached", "core", kNoOp,
                      true);
      const double t0 = now_s();
      (void)snapshot->optimizer().evaluate_uncached(config);
      evaluate_ms.push_back((now_s() - t0) * 1e3);
    }
  }
  const double subset_inproc_us =
      median(times(interactive, Kind::kSubset, &Request::inproc_ms)) * 1e3;
  record.metric("core.predict_subset_us", median(subset_us), "us");
  record.metric("core.predict_full_ms", median(full_ms), "ms");
  record.metric("core.evaluate_ms", median(evaluate_ms), "ms");
  record.metric("serve.protocol_us", subset_inproc_us - median(subset_us),
                "us");
  record.metric("serve.socket_us", median(subset_rt) * 1e3 - subset_inproc_us,
                "us");

  // The mitigations' bgp and measure work, split on the snapshot's world:
  // a few deployed configs converged alone and measured as a census.
  const measure::Orchestrator orchestrator(snapshot->world());
  std::vector<double> converge_ms, census_ms, resolve_ms, ns_per_event, events;
  for (std::size_t k = 0; k < kSplitSamples && k < operator_list.size(); ++k) {
    std::vector<SiteId> order;
    for (const std::uint32_t s : operator_list[k].sites) {
      order.push_back(SiteId{s});
    }
    const anycast::AnycastConfig config =
        anycast::AnycastConfig::of_sites(std::move(order));
    const std::uint64_t nonce = derive(args.seed, 0x5B1, k);
    const double c0 = now_s();
    std::size_t e = 0;
    {
      const Span span("measure::Orchestrator::converge_base", "bgp", kNoOp,
                      true);
      e = orchestrator.converge_base(config, nonce).events();
    }
    const double c1 = now_s();
    {
      const Span span("measure::Orchestrator::measure", "measure", kNoOp, true);
      (void)orchestrator.measure(config, nonce);
    }
    const double c2 = now_s();
    converge_ms.push_back((c1 - c0) * 1e3);
    census_ms.push_back((c2 - c1) * 1e3);
    resolve_ms.push_back(((c2 - c1) - (c1 - c0)) * 1e3);
    ns_per_event.push_back((c1 - c0) * 1e9 / static_cast<double>(e));
    events.push_back(static_cast<double>(e));
  }
  record.metric("bgp.converge_ms", median(converge_ms), "ms");
  record.metric("bgp.events_per_census", mean(events), "count");
  record.metric("bgp.ns_per_event", median(ns_per_event), "ns");
  record.metric("measure.census_ms", median(census_ms), "ms");
  record.metric("measure.resolve_probe_ms", median(resolve_ms), "ms");
  record.metric("measure.experiments_per_s", 1e3 / median(census_ms), "1/s");
  {
    const double t0 = now_s();
    {
      const Span span("anycast.World::create", "anycast", kNoOp, true);
      const auto world =
          anycast::World::create(anycast::WorldParams::paper_scale(args.world_seed));
    }
    record.metric("anycast.world_build_s", now_s() - t0, "s");
    const double t1 = now_s();
    {
      const Span span("topo::build_internet", "topo", kNoOp, true);
      const topo::Internet net =
          topo::build_internet(snapshot->world().params().internet);
    }
    record.metric("topo.build_internet_s", now_s() - t1, "s");
  }
}

}  // namespace perfbench

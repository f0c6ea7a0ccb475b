// The benchmark's load generator: runs one workload and prints its result
// record as the last line of standard output.  perfbench/run.py builds and
// drives it; see README.md for the workloads and metrics.
//
//   perfbench_loadgen --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--world-seed=N] [--anyoptd=PATH] [--spans-out=FILE]
//
//   --workload    plan_paper | census_35k | serve_paper
//   --seed        request seed: op lists, subsets, orders, nonces
//   --seconds     run length; fixes the size of the op list
//   --trace=1     record spans around every call into a layer, read exact
//                 counters from the telemetry registry and report the
//                 per-layer metrics (with --trace=0 this process keeps
//                 telemetry off; anyoptd always turns its own on)
//   --world-seed  world seed (default 1897, the paper environment)
//   --anyoptd     daemon binary spawned by serve_paper
//   --spans-out   where a traced run writes its spans (JSON lines)

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "hostspeed.h"
#include "netbase/telemetry.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool parse(int argc, char** argv, perfbench::Args& args) {
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "world-seed") {
      args.world_seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = args.seconds > 0;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "anyoptd") {
      args.anyoptd = value;
    } else if (key == "spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return !args.workload.empty() && have_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 [--world-seed=N] [--anyoptd=PATH] "
                 "[--spans-out=FILE]\n");
    return 2;
  }
  // Untraced runs keep this process's telemetry off, so src/ pays only its
  // disabled-path branch; traced runs turn the registry on for exact
  // counters.  The anyoptd child of serve_paper is not covered: the daemon
  // turns telemetry on at start in both modes.
  anyopt::telemetry::set_enabled(args.trace);
  perfbench::Tracer::global().set_enabled(args.trace);

  perfbench::Record record;
  record.info("workload", args.workload);
  record.info("seed", std::to_string(args.seed));
  record.info("world_seed", std::to_string(args.world_seed));
  record.info("seconds", std::to_string(args.seconds));
  record.info("trace", args.trace ? "1" : "0");
  record.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  record.info("build_type", PERFBENCH_BUILD_TYPE);
  // Samples the host's speed from set-up to the end of the timed work;
  // run.py scales the run's timings by it.
  perfbench::HostSpeed& speed = perfbench::HostSpeed::global();
  speed.start();
  try {
    if (args.workload == "plan_paper") {
      perfbench::run_plan_paper(args, record);
    } else if (args.workload == "census_35k") {
      perfbench::run_census_35k(args, record);
    } else if (args.workload == "serve_paper") {
      perfbench::run_serve_paper(args, record);
    } else {
      std::fprintf(stderr, "perfbench_loadgen: unknown workload \"%s\"\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    record.fail(std::string("workload aborted: ") + e.what());
    record.op(false);
  }
  speed.stop();
  record.info("host_speed_samples", std::to_string(speed.setup_samples()) +
                                        " in set-up, " +
                                        std::to_string(speed.samples()) +
                                        " after");
  if (speed.setup_samples() < 10 || speed.samples() < 10) {
    record.fail("too few host-speed samples: " +
                std::to_string(speed.setup_samples()) + " in set-up, " +
                std::to_string(speed.samples()) + " after");
  } else {
    record.metric("host.setup_reference_ms", speed.setup_reference_ms(), "ms");
    record.metric("host.reference_ms", speed.reference_ms(), "ms");
    record.metric("host.setup_speed_factor",
                  perfbench::kNominalReferenceMs / speed.setup_reference_ms(),
                  "ratio");
    record.metric("host.speed_factor",
                  perfbench::kNominalReferenceMs / speed.reference_ms(),
                  "ratio");
  }
  if (args.trace) {
    perfbench::record_self_times(record);
    // World::create's own share: the build minus the topology it makes.
    record.metric("anycast.self_s",
                  record.value("anycast.world_build_s", 0) -
                      record.value("topo.build_internet_s", 0),
                  "s");
    const auto spans = perfbench::Tracer::global().spans();
    record.metric("trace.spans", static_cast<double>(spans.size()), "count");
    if (!args.spans_out.empty() &&
        !perfbench::Tracer::global().write_jsonl(args.spans_out)) {
      record.fail("cannot write spans to " + args.spans_out);
    }
  }
  std::printf("%s\n", record.json().c_str());
  return 0;
}

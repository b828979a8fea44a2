// datanet_perfbench: runs one benchmark workload and prints its raw
// measurements as one JSON object on the last line of stdout.
//
//   datanet_perfbench --workload batch-hot|serve-zipf|ingest-query
//                    --seed N --seconds S [--trace 0|1]
//                    [--trace-out spans.json] [--work-dir DIR]
//
// perfbench/run.py builds this program and turns its output into the
// benchmark's metrics; see perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/simd_scan.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* why, const std::string& what = "") {
  std::fprintf(stderr,
               "datanet_perfbench: %s %s\nusage: datanet_perfbench --workload "
               "batch-hot|serve-zipf|ingest-query --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE] [--work-dir DIR]\n",
               why, what.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for", flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = v == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = v;
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else {
        usage("unknown flag", flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for", flag);
    }
  }
  if (a.workload != "batch-hot" && a.workload != "serve-zipf" &&
      a.workload != "ingest-query") {
    usage("unknown workload", a.workload);
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "datanet_perfbench: refusing to run an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const perfbench::ThreadBudget budget = perfbench::budget_for(args.workload);
  if (nproc < 1 || budget.runnable() > static_cast<unsigned long>(nproc)) {
    std::fprintf(stderr,
                 "datanet_perfbench: %s keeps %u threads runnable but nproc "
                 "is %ld; refusing to run\n",
                 args.workload.c_str(), budget.runnable(), nproc);
    return 3;
  }

  datanet::common::JsonWriter out;
  out.begin_object();
  out.field("workload", args.workload);
  out.field("seed", args.seed);
  out.field("seconds", args.seconds);
  out.field("trace", args.trace);
  out.key("env").begin_object();
  out.field("nproc", static_cast<std::uint64_t>(nproc));
  out.field("build_type", PERFBENCH_BUILD_TYPE);
  out.field("optimized", true);
  out.field("scan_kernel", datanet::common::scan_kernel_name(
                               datanet::common::active_scan_kernel()));
  out.key("threads").begin_object();
  out.field("load", static_cast<std::uint64_t>(budget.load));
  out.field("engine", static_cast<std::uint64_t>(budget.engine));
  out.field("connections", static_cast<std::uint64_t>(budget.connections));
  out.field("server_workers",
            static_cast<std::uint64_t>(budget.server_workers));
  out.field("server_handlers",
            static_cast<std::uint64_t>(budget.server_handlers));
  out.field("runnable", static_cast<std::uint64_t>(budget.runnable()));
  out.end_object();
  out.end_object();

  perfbench::RunStatus status;
  try {
    std::unique_ptr<perfbench::Tracer> tracer;
    if (args.trace) tracer = std::make_unique<perfbench::Tracer>();
    if (args.workload == "batch-hot") {
      status = perfbench::run_batch_hot(args, out, tracer.get());
    } else if (args.workload == "serve-zipf") {
      status = perfbench::run_serve_zipf(args, out, tracer.get());
    } else {
      status = perfbench::run_ingest_query(args, out, tracer.get());
    }
    if (tracer != nullptr) {
      if (args.trace_out.empty()) usage("--trace 1 needs --trace-out");
      tracer->write_json(args.trace_out);
      out.field("spans", static_cast<std::uint64_t>(tracer->size()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "datanet_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  out.field("peak_rss_mib", perfbench::peak_rss_mib());
  out.field("correct", status.correct);
  out.key("errors").begin_array();
  for (const auto& e : status.errors) out.value(e);
  out.end_array();
  out.field("attempted", status.attempted);
  out.field("failed", status.failed);
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// serve-zipf: an in-process datanetd (server::Server) on loopback, driven by
// an open loop. One generator thread multiplexes two connections with ppoll
// and sends requests on a fixed schedule whatever the server's state; a
// request that falls due while both connections are busy waits on the
// client, and its latency still counts from when it was due. Keys follow a
// Zipf law over the dataset's 16 hot keys in a sequence fixed by the seed;
// three tenants take turns. The dataset is fixed; the seed draws the
// request stream. Phases: a fixed offered rate (latency) and saturation
// (all requests due at once: capacity), interleaved in rounds so both see
// the same host conditions. The traced run adds a
// ladder of offered rates (qps_at_slo) and an in-process replay of the
// fixed-phase requests through the calls execute_query makes, which splits
// the service time by layer. Every digest is compared with
// server::local_query's.

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <span>

#include "bench.hpp"
#include "common/rng.hpp"
#include "server/client.hpp"
#include "server/dataset_cache.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket_io.hpp"
#include "stats/zipf.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

namespace {

namespace srv = dn::server;

constexpr std::uint64_t kBlocks = 64;
constexpr int kSetups = 3;
constexpr std::uint32_t kTenants = 3;
constexpr double kZipfExponent = 1.0;
// Offered rate of the fixed phase: about a fifth of what two connections
// carry, so queueing stays rare.
constexpr double kFixedRate = 400.0;
// Saturation phase: every request due at once, so both connections stay
// busy and the reply rate is the server's capacity. It offers this many
// requests per second of --seconds: about a quarter of the run at 1600/s.
constexpr double kSaturationPerSecond = 400.0;
constexpr double kSaturationRate = 1e9;
// The two phases run in this many alternating rounds, and capacity is the
// median of the rounds' saturation rates. With one long saturation phase the
// rate read 1297-1794/s over 20 runs on a 4-vCPU VM, while 1000-request
// windows within one run stayed within about 10% of each other.
constexpr std::uint64_t kRounds = 8;
// Ladder (traced run): offered rates from 400/s x 1.25^-2 to 400/s x
// 1.25^6 (256/s to 1526/s), 1000 requests each — enough for a p99 with 10
// samples beyond it.
constexpr std::uint64_t kRungRequests = 1000;
constexpr double kRungStep = 1.25;
constexpr int kRungsBelow = 2;
constexpr int kRungsAbove = 6;
// A request unanswered this long fails the run instead of hanging it.
constexpr double kStallLimitS = 10.0;

// One request's timeline, in ms from the phase start.
struct Timed {
  double due = 0.0;
  double ready = 0.0;  // due, or later if no connection was free
  double send = 0.0;
  double reply = 0.0;
  bool ok = false;
  double queue_us = 0.0;
  double service_us = 0.0;
};

struct Conn {
  srv::Fd fd;
  bool busy = false;
  std::size_t request = 0;
  double free_at = 0.0;  // ms from the phase start
  std::string in;
};

class OpenLoop {
 public:
  OpenLoop(std::uint16_t port, std::uint32_t connections,
           const std::vector<srv::QueryRequest>& sequence,
           const std::map<std::string, std::uint64_t>& golden,
           RunStatus& status)
      : sequence_(&sequence), golden_(&golden), status_(&status) {
    for (std::uint32_t i = 0; i < connections; ++i) {
      Conn c;
      c.fd = srv::connect_loopback(port);
      if (::fcntl(c.fd.get(), F_SETFL, O_NONBLOCK) != 0) {
        throw std::runtime_error("fcntl(O_NONBLOCK) failed");
      }
      conns_.push_back(std::move(c));
    }
  }

  // Offer `n` requests at `rate` per second, starting at sequence position
  // `offset`; returns once every reply is in.
  std::vector<Timed> run(double rate, std::uint64_t n, std::uint64_t offset) {
    std::vector<Timed> reqs(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      reqs[i].due = 1e3 * static_cast<double>(i) / rate;
    }
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const auto ms_now = [&] { return ms_between(start, Clock::now()); };
    for (Conn& c : conns_) c.free_at = 0.0;
    std::uint64_t next = 0, done = 0;
    double last_progress = 0.0;  // last send or reply
    std::vector<pollfd> fds(conns_.size());
    while (done < n) {
      // Send every due request a free connection can take.
      for (Conn& c : conns_) {
        if (next >= n || reqs[next].due > ms_now()) break;
        if (c.busy) continue;
        Timed& r = reqs[next];
        r.ready = std::max(r.due, c.free_at);
        r.send = ms_now();
        send_request(c, (*sequence_)[(offset + next) % sequence_->size()]);
        c.busy = true;
        c.request = next++;
        last_progress = r.send;
      }
      // Sleep until a reply arrives or, with a connection free, until the
      // next request falls due.
      bool any_free = false, any_busy = false;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const bool busy = conns_[i].busy;
        fds[i] = {conns_[i].fd.get(), static_cast<short>(busy ? POLLIN : 0), 0};
        any_free = any_free || !busy;
        any_busy = any_busy || busy;
      }
      const double wait_ms = next < n && any_free
                                 ? std::max(0.0, reqs[next].due - ms_now())
                                 : 100.0;
      const timespec timeout{static_cast<time_t>(wait_ms / 1e3),
                             static_cast<long>(std::fmod(wait_ms, 1e3) * 1e6)};
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
          errno != EINTR) {
        throw std::runtime_error("ppoll failed");
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (receive(conns_[i], reqs, offset, ms_now)) {
          ++done;
          last_progress = ms_now();
        }
      }
      if (any_busy && ms_now() - last_progress > 1e3 * kStallLimitS) {
        throw std::runtime_error("serve-zipf: no reply for " +
                                 std::to_string(kStallLimitS) + " s");
      }
    }
    return reqs;
  }

  // kRejected replies received so far, over all phases.
  std::uint64_t rejected() const { return rejected_; }

 private:
  static void send_request(Conn& c, const srv::QueryRequest& q) {
    const std::string bytes = srv::frame(srv::encode_query(q));
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::send(c.fd.get(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{c.fd.get(), POLLOUT, 0};
        (void)::poll(&p, 1, 1000);
      } else {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
    }
  }

  // Reads what is available; true when a whole reply frame completed.
  template <typename Now>
  bool receive(Conn& c, std::vector<Timed>& reqs, std::uint64_t offset,
               const Now& ms_now) {
    char buf[4096];
    for (;;) {
      const ssize_t r = ::recv(c.fd.get(), buf, sizeof buf, 0);
      if (r > 0) {
        c.in.append(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) throw std::runtime_error("server closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) {
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
    }
    if (c.in.size() < srv::kFrameHeaderBytes) return false;
    const srv::FrameHeader header = srv::decode_frame_header(
        std::string_view(c.in).substr(0, srv::kFrameHeaderBytes));
    if (c.in.size() < srv::kFrameHeaderBytes + header.payload_len) return false;
    const double now = ms_now();
    const std::string payload =
        c.in.substr(srv::kFrameHeaderBytes, header.payload_len);
    c.in.erase(0, srv::kFrameHeaderBytes + header.payload_len);
    srv::check_frame_payload(header, payload);

    Timed& t = reqs[c.request];
    t.reply = now;
    c.busy = false;
    c.free_at = now;
    const srv::QueryRequest& q =
        (*sequence_)[(offset + c.request) % sequence_->size()];
    switch (srv::peek_type(payload)) {
      case srv::MsgType::kQueryOk: {
        const srv::QueryReply reply = srv::decode_query_ok(payload);
        t.queue_us = static_cast<double>(reply.queue_micros);
        t.service_us = static_cast<double>(reply.service_micros);
        t.ok = reply.digest == golden_->at(q.key);
        if (!t.ok) {
          status_->fail("served digest for " + q.key +
                        " differs from local_query");
        }
        break;
      }
      case srv::MsgType::kRejected:
        ++rejected_;
        status_->note("rejected: " + srv::decode_rejected(payload).detail);
        break;
      default:
        status_->note("error reply for " + q.key);
        break;
    }
    return true;
  }

  const std::vector<srv::QueryRequest>* sequence_;
  const std::map<std::string, std::uint64_t>* golden_;
  RunStatus* status_;
  std::vector<Conn> conns_;
  std::uint64_t rejected_ = 0;
};

void write_phase(dn::common::JsonWriter& out, const std::vector<Timed>& reqs) {
  const auto series = [&](std::string_view name, auto field) {
    std::vector<double> v;
    v.reserve(reqs.size());
    for (const Timed& t : reqs) v.push_back(field(t));
    write_series(out, name, v);
  };
  series("due_ms", [](const Timed& t) { return t.due; });
  series("ready_ms", [](const Timed& t) { return t.ready; });
  series("send_ms", [](const Timed& t) { return t.send; });
  series("reply_ms", [](const Timed& t) { return t.reply; });
  series("ok", [](const Timed& t) { return t.ok ? 1.0 : 0.0; });
  series("queue_us", [](const Timed& t) { return t.queue_us; });
  series("service_us", [](const Timed& t) { return t.service_us; });
}

// In-process replay of served requests, for the traced run.
struct Replay {
  std::vector<double> plain_ms, traced_ms, candidate_ratio, match_ratio;
  LayerCounts counts;
  std::uint64_t meta_memory = 0, meta_raw = 0;
};

// Replays `requests` through the calls execute_query makes (cache lookup,
// scheduling graph, run_graph with CostOnlyBackend on one engine thread,
// digest), each once plain and once traced, alternating which goes first.
// The dataset is built as the server builds its own, with the set-up layers
// traced; every digest must match the served golden one.
Replay replay_traced(const srv::ServerOptions& opts, const std::string& path,
                     std::span<const srv::QueryRequest> requests,
                     const std::map<std::string, std::uint64_t>& golden,
                     Tracer& tracer, RunStatus& status) {
  Replay out;
  tracer.set_operation(0);
  std::unique_ptr<dn::dfs::MiniDfs> dfs;
  {
    Span setup(&tracer, tracer.intern("setup"));
    MovieSource src = [&] {
      Span s(&tracer, tracer.intern("workload.generate"));
      return generate_movies(opts.cfg, movie_records(opts.cfg, kBlocks));
    }();
    Span s(&tracer, tracer.intern("dfs.ingest"));
    dfs = std::make_unique<dn::dfs::MiniDfs>(
        dn::dfs::ClusterTopology::flat(opts.cfg.num_nodes),
        dn::core::make_dfs_options(opts.cfg));
    dn::workload::ingest(*dfs, path, src.records);
  }
  srv::DatasetCache cache;
  {
    Span setup(&tracer, tracer.intern("setup"));
    Span s(&tracer, tracer.intern("elasticmap.build"));
    (void)cache.get(*dfs, path);
  }
  dn::core::ExperimentConfig qcfg = opts.cfg;
  qcfg.execution_threads = 1;
  dn::core::CostOnlyBackend cost_only;
  const std::uint32_t query_name = tracer.intern("query");
  const std::uint32_t cache_name = tracer.intern("server.cache_get");
  const std::uint32_t digest_name = tracer.intern("datanet.digest");
  const std::uint64_t blocks = dfs->blocks_of(path).size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const srv::QueryRequest& q = requests[i];
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (i % 2 == 1);
      Tracer* t = traced ? &tracer : nullptr;
      if (t) t->set_operation(1 + i);
      const std::uint64_t read_before = out.counts.read_bytes;
      std::uint64_t candidates = 0, digest = 0, matched = 0;
      const auto t0 = Clock::now();
      {
        Span root(t, query_name);
        const auto net = [&] {
          Span s(t, cache_name);
          return cache.get(*dfs, path);
        }();
        const auto selection = select_key(*dfs, *net, q.key, cost_only, qcfg,
                                          t, out.counts, candidates);
        Span s(t, digest_name);
        digest = srv::selection_digest(selection);
        matched = matched_bytes(selection);
      }
      (traced ? out.traced_ms : out.plain_ms)
          .push_back(ms_between(t0, Clock::now()));
      if (digest != golden.at(q.key)) {
        status.fail("replayed digest for " + q.key +
                    " differs from local_query");
      }
      if (!traced) continue;
      out.candidate_ratio.push_back(ratio(candidates, blocks));
      out.match_ratio.push_back(
          ratio(matched, out.counts.read_bytes - read_before));
    }
  }
  out.meta_memory = cache.get(*dfs, path)->meta().memory_bytes();
  out.meta_raw = cache.get(*dfs, path)->meta().raw_bytes();
  return out;
}

}  // namespace

RunStatus run_serve_zipf(const Args& args, dn::common::JsonWriter& out,
                         Tracer* tracer) {
  // Wake from ppoll on time: the default 50 us timer slack would show up as
  // generator lateness.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const ThreadBudget budget = budget_for(args.workload);
  srv::ServerOptions opts;
  opts.workers = budget.server_workers;
  opts.max_connections = budget.server_handlers;
  opts.default_limits = {.max_queue = 256, .max_inflight = 2, .weight = 1};
  opts.cfg.num_nodes = 16;
  opts.cfg.block_size = 64 * 1024;
  opts.cfg.replication = 3;
  opts.cfg.seed = kDatasetSeed;  // the seed draws the request stream
  opts.dataset_blocks = kBlocks;

  // ---- set-up: server construction (generate + ingest), start, and the
  // first query, which builds the ElasticMap into the dataset cache ----
  std::vector<double> setup_s;
  std::unique_ptr<srv::Server> server;
  for (int i = 0; i < kSetups; ++i) {
    if (server) server->stop();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<srv::Server>(opts);
    server->start();
    srv::Client warm(server->port(), 10'000);
    const auto r = warm.query(
        {.tenant = "warmup", .key = server->dataset().hot_keys.front()});
    if (!r.ok()) throw std::runtime_error("serve-zipf: warm-up query failed");
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::vector<std::string> hot = server->dataset().hot_keys;

  // ---- golden digests and the seeded request sequence ----
  RunStatus status;
  std::map<std::string, std::uint64_t> golden;
  for (const auto& key : hot) {
    const auto g = srv::local_query(opts, {.tenant = "golden", .key = key});
    if (!g.ok) throw std::runtime_error("local_query failed for " + key);
    golden[key] = g.reply.digest;
  }
  std::vector<srv::QueryRequest> sequence;
  {
    dn::common::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 0x5e12e);
    const dn::stats::ZipfSampler zipf(hot.size(), kZipfExponent);
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      const std::uint64_t rank =
          std::min<std::uint64_t>(zipf.sample(rng), hot.size() - 1);
      sequence.push_back({.tenant = "tenant" + std::to_string(i % kTenants),
                          .key = hot[rank]});
    }
  }

  const auto stats0 = server->cache().stats();
  OpenLoop loop(server->port(), budget.connections, sequence, golden, status);
  const auto account = [&](const std::vector<Timed>& reqs) {
    status.attempted += reqs.size();
    for (const Timed& t : reqs) status.failed += t.ok ? 0 : 1;
  };

  // ---- fixed rate (half the time, at least 1000 requests) and saturation
  // (at least 1000), alternating over kRounds rounds. Fixed-rate requests
  // take sequence positions [0, fixed_n), saturation ones the next
  // saturation_n; a phase's times are ms from the start of its segment ----
  const auto fixed_n = static_cast<std::uint64_t>(
      std::max(1000.0, 0.5 * args.seconds * kFixedRate));
  const auto saturation_n = static_cast<std::uint64_t>(
      std::max(1000.0, kSaturationPerSecond * args.seconds));
  std::vector<Timed> fixed;
  std::vector<std::vector<Timed>> saturation;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const std::uint64_t f0 = fixed_n * r / kRounds;
    const std::uint64_t f1 = fixed_n * (r + 1) / kRounds;
    const std::vector<Timed> part = loop.run(kFixedRate, f1 - f0, f0);
    account(part);
    fixed.insert(fixed.end(), part.begin(), part.end());
    const std::uint64_t s0 = saturation_n * r / kRounds;
    const std::uint64_t s1 = saturation_n * (r + 1) / kRounds;
    saturation.push_back(loop.run(kSaturationRate, s1 - s0, fixed_n + s0));
    account(saturation.back());
  }
  std::uint64_t offset = fixed_n + saturation_n;

  // ---- ladder (traced run); benchlib.py judges the rungs ----
  struct Rung {
    double rate;
    std::vector<Timed> reqs;
  };
  std::vector<Rung> ladder;
  for (int k = -kRungsBelow; tracer != nullptr && k <= kRungsAbove; ++k) {
    const double rate = kFixedRate * std::pow(kRungStep, k);
    ladder.push_back({rate, loop.run(rate, kRungRequests, offset)});
    offset += kRungRequests;
    account(ladder.back().reqs);
  }
  const auto stats1 = server->cache().stats();

  Replay replay;
  if (tracer != nullptr) {
    replay = replay_traced(opts, server->dataset().path,
                           std::span(sequence).first(fixed_n), golden, *tracer,
                           status);
  }
  server->stop();

  write_series(out, "setup_s", setup_s);
  out.field("fixed_rate", kFixedRate);
  out.key("samples").begin_object();
  out.key("fixed").begin_object();
  write_phase(out, fixed);
  out.end_object();
  out.key("saturation").begin_array();
  for (const std::vector<Timed>& segment : saturation) {
    out.begin_object();
    write_phase(out, segment);
    out.end_object();
  }
  out.end_array();
  out.key("ladder").begin_array();
  for (const Rung& r : ladder) {
    out.begin_object();
    out.field("rate", r.rate);
    write_phase(out, r.reqs);
    out.end_object();
  }
  out.end_array();
  if (tracer != nullptr) {
    write_series(out, "replay_ms", replay.plain_ms);
    write_series(out, "traced_replay_ms", replay.traced_ms);
    write_series(out, "candidate_block_ratio", replay.candidate_ratio);
    write_series(out, "match_ratio", replay.match_ratio);
  }
  out.end_object();
  out.key("counts").begin_object();
  out.field("cache_hits", stats1.hits - stats0.hits);
  out.field("cache_rebuilds", stats1.rebuilds - stats0.rebuilds);
  out.field("cache_delta_applies", stats1.delta_applies - stats0.delta_applies);
  out.field("rejected", loop.rejected());
  out.field("traced_ops", static_cast<std::uint64_t>(replay.traced_ms.size()));
  out.field("read_calls", replay.counts.read_calls);
  out.field("read_bytes", replay.counts.read_bytes);
  out.field("remote_reads", replay.counts.remote_reads);
  out.field("meta_memory_bytes", replay.meta_memory);
  out.field("meta_raw_bytes", replay.meta_raw);
  out.end_object();
  return status;
}

}  // namespace perfbench

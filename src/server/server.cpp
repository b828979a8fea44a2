#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <sys/socket.h>

#include "common/hash.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/flow_sched.hpp"
#include "scheduler/locality.hpp"
#include "scheduler/lpt.hpp"

namespace datanet::server {

namespace {

std::uint64_t now_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

dfs::MetaPlane make_plane(const ServerOptions& opts) {
  opts.cfg.validate();
  dfs::MetaPlaneOptions popt;
  popt.num_shards = std::max(1u, opts.meta_shards);
  popt.dfs = core::make_dfs_options(opts.cfg);
  return {dfs::ClusterTopology::flat(opts.cfg.num_nodes), popt};
}

}  // namespace

std::uint64_t selection_digest(const core::SelectionResult& r) {
  // Chain, not XOR: node identity and order are part of the result (the
  // same bytes landing on a different node is a different selection).
  std::uint64_t h = common::hash_bytes("datanetd-selection");
  for (const std::string& node_data : r.node_local_data) {
    h = common::hash_combine(h, common::hash_bytes(node_data));
  }
  return h;
}

std::unique_ptr<scheduler::TaskScheduler> make_scheduler(
    const std::string& name, std::uint64_t seed) {
  if (name == "datanet") return std::make_unique<scheduler::DataNetScheduler>();
  if (name == "locality") {
    return std::make_unique<scheduler::LocalityScheduler>(seed);
  }
  if (name == "lpt") return std::make_unique<scheduler::LptScheduler>();
  if (name == "maxflow") return std::make_unique<scheduler::FlowScheduler>();
  return nullptr;
}

QueryOutcome execute_query(const dfs::MiniDfs& dfs, const std::string& path,
                           const core::DataNet* net,
                           const QueryRequest& request,
                           const core::ExperimentConfig& cfg) {
  QueryOutcome out;
  const auto sched = make_scheduler(request.scheduler, cfg.seed);
  if (sched == nullptr) {
    out.error = "unknown scheduler '" + request.scheduler + "'";
    return out;
  }
  try {
    core::DirectReadPolicy read(dfs, cfg.remote_read_penalty);
    core::NoFaults faults;
    core::CostOnlyBackend timing;
    const core::SelectionRuntime runtime(read, faults, timing);
    // Serving config: one engine thread per query — parallelism comes from
    // the worker pool, not from each query fanning out.
    core::ExperimentConfig qcfg = cfg;
    qcfg.execution_threads = 1;
    const std::uint64_t t0 = now_micros();
    const core::SelectionResult result =
        runtime.run(dfs, path, request.key, *sched, net, qcfg);
    out.reply.service_micros = now_micros() - t0;
    out.reply.digest = selection_digest(result);
    out.reply.blocks_scanned = result.blocks_scanned;
    for (const std::uint64_t b : result.node_filtered_bytes) {
      out.reply.matched_bytes += b;
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

QueryOutcome local_query(const ServerOptions& opts,
                         const QueryRequest& request) {
  const core::StoredDataset ds =
      core::make_movie_dataset(opts.cfg, opts.dataset_blocks);
  const core::DataNet net(*ds.dfs, ds.path);
  return execute_query(*ds.dfs, ds.path,
                       request.use_datanet_meta ? &net : nullptr, request,
                       opts.cfg);
}

Server::Server(ServerOptions opts)
    : opts_(opts),
      plane_(make_plane(opts_)),
      dispatcher_(opts_.default_limits, opts_.breaker) {
  dataset_.path = "/data/movies.log";
  // Same generation as make_movie_dataset and same per-shard DfsOptions, so
  // the served dataset's placement is byte-identical to a `--local` build
  // at any shard count (the digest contract).
  auto ingested = core::ingest_movie_dataset(plane_.dfs_for(dataset_.path),
                                             dataset_.path, opts_.cfg,
                                             opts_.dataset_blocks);
  dataset_.hot_keys = std::move(ingested.hot_keys);
  auto [fd, port] = listen_loopback(opts_.port);
  listener_ = std::move(fd);
  port_ = port;
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) return;
  for (std::uint32_t i = 0; i < std::max(1u, opts_.workers); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::request_stop() {
  {
    std::lock_guard lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Server::stop() {
  request_stop();
  std::lock_guard teardown(teardown_mu_);
  if (torn_down_) return;
  torn_down_ = true;

  // 1. No new connections; the accept loop exits on the shutdown listener.
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. No new admissions; workers drain every accepted job, publish its
  //    outcome, then exit.
  dispatcher_.stop();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // 3. Wait until every accepted query's reply has been written (handlers
  //    consume outcomes and answer on still-open sockets) — the drain
  //    guarantee — then unblock handlers idling in recv() by shutting
  //    their sockets, and join them all.
  {
    std::unique_lock lock(pending_mu_);
    pending_cv_.wait(lock, [this] { return awaiting_replies_ == 0; });
  }
  std::vector<Handler> handlers;
  {
    std::lock_guard lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  for (Handler& h : handlers) {
    if (h.socket->valid()) ::shutdown(h.socket->get(), SHUT_RDWR);
  }
  for (Handler& h : handlers) {
    if (h.thread.joinable()) h.thread.join();
  }
  listener_.reset();
}

void Server::reap_finished_handlers() {
  std::lock_guard lock(handlers_mu_);
  std::erase_if(handlers_, [](Handler& h) {
    if (!h.finished->load(std::memory_order_acquire)) return false;
    if (h.thread.joinable()) h.thread.join();
    return true;
  });
}

void Server::accept_loop() {
  for (;;) {
    auto client = accept_client(listener_);
    if (!client.has_value()) return;  // listener shut down
    reap_finished_handlers();
    if (live_handlers_.load(std::memory_order_relaxed) >=
        opts_.max_connections) {
      // Connection-level backpressure: refuse before spawning a handler.
      try {
        write_all(*client,
                  frame(encode_rejected({RejectReason::kShuttingDown,
                                         "connection limit reached"})));
      } catch (const SocketError&) {
      }
      continue;
    }
    Handler h;
    h.socket = std::make_shared<Fd>(std::move(*client));
    h.finished = std::make_shared<std::atomic<bool>>(false);
    live_handlers_.fetch_add(1, std::memory_order_relaxed);
    h.thread = std::thread(
        [this, socket = h.socket, finished = h.finished] {
          handle_connection(socket);
          // The Handler entry keeps the Fd alive until it is reaped; send
          // the FIN now so the peer sees EOF as soon as the exchange ends
          // (shutdown, not close — stop() may also shut this fd down, and
          // shutdown never races with fd reuse).
          if (socket->valid()) ::shutdown(socket->get(), SHUT_RDWR);
          finished->store(true, std::memory_order_release);
          live_handlers_.fetch_sub(1, std::memory_order_relaxed);
        });
    std::lock_guard lock(handlers_mu_);
    handlers_.push_back(std::move(h));
  }
}

void Server::handle_connection(const std::shared_ptr<Fd>& socket) {
  const Fd& fd = *socket;
  const std::uint32_t io_ms = opts_.io_timeout_ms;
  // One request-response at a time per connection; a protocol error is
  // answered (best effort) and the connection dropped. A peer that stalls
  // MID-frame — the slowloris shape: first header byte arrives, the rest
  // never does — trips SocketTimeoutError (a SocketError) after io_ms and
  // the handler drops the connection instead of wedging forever. Only the
  // wait for a NEW message (first byte of a header) is unbounded.
  try {
    for (;;) {
      const auto first = read_exact(fd, 1);
      if (!first.has_value()) return;  // clean EOF between messages
      const auto rest = read_exact(fd, kFrameHeaderBytes - 1, io_ms);
      if (!rest.has_value()) return;  // EOF inside the header: peer gone
      const FrameHeader header = decode_frame_header(*first + *rest);
      const auto payload = read_exact(fd, header.payload_len, io_ms);
      if (!payload.has_value()) return;
      check_frame_payload(header, *payload);

      const MsgType type = peek_type(*payload);
      if (type == MsgType::kShutdown) {
        write_all(fd, frame(encode_shutdown_ok()), io_ms);
        // Wake wait(); the owning thread (cmd_serve, a test) performs the
        // actual teardown — stop() joins this very handler, so the handler
        // cannot run it itself.
        request_stop();
        return;
      }
      if (type == MsgType::kStats) {
        write_all(fd, frame(encode_stats_ok(snapshot_stats())), io_ms);
        continue;
      }
      if (type != MsgType::kQuery) {
        write_all(fd, frame(encode_rejected(
                          {RejectReason::kBadRequest,
                           "only query/stats/shutdown messages are accepted"})), io_ms);
        continue;
      }

      QueryRequest request;
      try {
        request = decode_query(*payload);
      } catch (const ProtocolError& e) {
        write_all(fd, frame(encode_rejected({RejectReason::kBadRequest, e.what()})), io_ms);
        continue;
      }
      if (request.key.empty() || request.tenant.empty()) {
        write_all(fd, frame(encode_rejected({RejectReason::kBadRequest,
                                             "tenant and key are required"})), io_ms);
        continue;
      }
      if (make_scheduler(request.scheduler, opts_.cfg.seed) == nullptr) {
        write_all(fd, frame(encode_rejected(
                          {RejectReason::kBadRequest,
                           "unknown scheduler '" + request.scheduler + "'"})), io_ms);
        continue;
      }

      const std::uint64_t submitted_at = now_micros();
      std::uint64_t ticket = 0;
      SubmitStatus status = SubmitStatus::kStopped;
      {
        // Count the pending reply BEFORE submitting: once the dispatcher
        // has the job, stop() must not shut this socket until the reply is
        // out (the drain guarantee in stop() step 3).
        std::lock_guard lock(pending_mu_);
        status = dispatcher_.submit(request.tenant, request, &ticket);
        if (status == SubmitStatus::kAccepted) ++awaiting_replies_;
      }
      switch (status) {
        case SubmitStatus::kQueueFull:
          write_all(fd, frame(encode_rejected({RejectReason::kQueueFull,
                                               "tenant queue is full"})), io_ms);
          continue;
        case SubmitStatus::kTooManyInflight:
          write_all(fd, frame(encode_rejected({RejectReason::kTooManyInflight,
                                           "tenant in-flight cap reached"})), io_ms);
          continue;
        case SubmitStatus::kCircuitOpen:
          write_all(fd, frame(encode_rejected(
                            {RejectReason::kCircuitOpen,
                             "tenant circuit breaker is open"})), io_ms);
          continue;
        case SubmitStatus::kStopped:
          write_all(fd, frame(encode_rejected({RejectReason::kShuttingDown,
                                               "server is draining"})), io_ms);
          continue;
        case SubmitStatus::kAccepted:
          break;
      }

      // Wait for a worker to publish this ticket's outcome, answer, and
      // only then release the drain count — even when the write fails.
      QueryOutcome outcome;
      {
        std::unique_lock lock(pending_mu_);
        pending_cv_.wait(lock, [&] { return finished_.contains(ticket); });
        outcome = std::move(finished_.at(ticket));
        finished_.erase(ticket);
      }
      try {
        if (outcome.ok) {
          const std::uint64_t total = now_micros() - submitted_at;
          outcome.reply.queue_micros =
              total > outcome.reply.service_micros
                  ? total - outcome.reply.service_micros
                  : 0;
          // Counted before the write, so a client holding its reply never
          // reads a served count that misses it.
          queries_served_.fetch_add(1, std::memory_order_relaxed);
          write_all(fd, frame(encode_query_ok(outcome.reply)), io_ms);
        } else if (outcome.rejected) {
          // Worker-side shed (deadline exceeded / shard unavailable): typed,
          // so a retrying client can tell "don't bother" from "try again".
          write_all(fd, frame(encode_rejected(outcome.rejection)), io_ms);
        } else {
          write_all(fd, frame(encode_error(outcome.error)), io_ms);
        }
      } catch (...) {
        std::lock_guard lock(pending_mu_);
        --awaiting_replies_;
        pending_cv_.notify_all();
        throw;
      }
      {
        std::lock_guard lock(pending_mu_);
        --awaiting_replies_;
      }
      pending_cv_.notify_all();
    }
  } catch (const ProtocolError& e) {
    try {
      write_all(fd, frame(encode_rejected({RejectReason::kBadRequest,
                                           e.what()})), io_ms);
    } catch (const SocketError&) {
    }
  } catch (const SocketError&) {
    // Peer went away; nothing to answer.
  }
}

ServerStats Server::snapshot_stats() const {
  ServerStats s;
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  const DatasetCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_revalidations = cs.revalidations;
  s.cache_rebuilds = cs.rebuilds;
  s.cache_delta_applies = cs.delta_applies;
  s.meta_shards = plane_.num_shards();
  s.degraded_served = degraded_served_.load(std::memory_order_relaxed);
  s.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  for (const std::string& name : dispatcher_.tenants()) {
    const TenantStats ts = dispatcher_.tenant_stats(name);
    s.circuit_rejected += ts.rejected_circuit;
    s.tenants.push_back({.tenant = name,
                         .submitted = ts.submitted,
                         .accepted = ts.accepted,
                         .rejected_queue_full = ts.rejected_queue_full,
                         .rejected_inflight = ts.rejected_inflight,
                         .dispatched = ts.dispatched,
                         .completed = ts.completed,
                         .queue_wait_micros = ts.queue_wait_micros});
  }
  return s;
}

QueryOutcome Server::run_job(const DispatchJob& job) {
  QueryOutcome outcome;
  // Deadline budget is measured from ADMISSION, not dispatch: a job that sat
  // in the tenant queue past its budget is stale — the client gave up — so
  // doing the work now only starves live queries. Shed it typed instead.
  if (job.request.deadline_ms != 0) {
    const std::uint64_t budget_micros =
        static_cast<std::uint64_t>(job.request.deadline_ms) * 1000;
    if (now_micros() - job.submitted_micros > budget_micros) {
      deadline_shed_.fetch_add(1, std::memory_order_relaxed);
      outcome.rejected = true;
      outcome.rejection = {RejectReason::kDeadlineExceeded,
                           "deadline of " +
                               std::to_string(job.request.deadline_ms) +
                               "ms exceeded while queued"};
      return outcome;
    }
  }
  try {
    const dfs::MiniDfs& shard = plane_.dfs_for(dataset_.path);
    const core::DataNet* net = nullptr;
    std::shared_ptr<const core::DataNet> cached;
    if (job.request.use_datanet_meta) {
      cached = cache_.get(plane_, dataset_.path);
      net = cached.get();
    }
    return execute_query(shard, dataset_.path, net, job.request, opts_.cfg);
  } catch (const dfs::ShardUnavailableError&) {
    // The owning metadata shard is down ("NameNode down"). The
    // block BYTES survive a NameNode crash, so answer read-only from the
    // shard's in-memory snapshot plus the last epoch-validated bundle —
    // marked degraded so the client knows the metadata was not revalidated.
  } catch (const std::exception& e) {
    outcome.error = e.what();
    return outcome;
  }
  try {
    std::shared_ptr<const core::DataNet> stale;
    std::uint64_t staleness_micros = 0;
    if (job.request.use_datanet_meta) {
      auto bundle = cache_.get_stale(dataset_.path);
      stale = bundle.net;
      staleness_micros = bundle.age_micros;
      if (stale == nullptr) {
        // Cold cache: nothing trustworthy to serve from. Typed, not an
        // error — the client may retry after recover_shard.
        outcome.rejected = true;
        outcome.rejection = {RejectReason::kShardUnavailable,
                             "metadata shard is down and no cached bundle "
                             "exists for degraded serving"};
        return outcome;
      }
    }
    const auto snapshot =
        plane_.dfs_snapshot(plane_.shard_of(dataset_.path));
    outcome = execute_query(*snapshot, dataset_.path, stale.get(),
                            job.request, opts_.cfg);
    if (outcome.ok) {
      outcome.reply.degraded = true;
      // How long since the bundle was last known fresh: the client can
      // decide whether an aged answer is still acceptable (PR 9 leftover —
      // degraded mode used to trust the cached bundle silently).
      outcome.reply.staleness_micros = staleness_micros;
      degraded_served_.fetch_add(1, std::memory_order_relaxed);
    }
    return outcome;
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.rejected = false;
    outcome.error = e.what();
    return outcome;
  }
}

void Server::worker_loop() {
  for (;;) {
    auto job = dispatcher_.next();
    if (!job.has_value()) return;  // stopped and drained
    QueryOutcome outcome = run_job(*job);
    // Breaker accounting: an answered query (ok, degraded included) is a
    // success; an execution error or shard-unavailable shed is a failure.
    // Deadline sheds are neutral — the CLIENT's budget expired, the server
    // did not fail — so they neither trip nor heal the breaker.
    const bool deadline =
        outcome.rejected &&
        outcome.rejection.reason == RejectReason::kDeadlineExceeded;
    if (!deadline) dispatcher_.record_outcome(job->tenant, outcome.ok);
    dispatcher_.complete(job->tenant);
    {
      std::lock_guard lock(pending_mu_);
      finished_.emplace(job->ticket, std::move(outcome));
    }
    pending_cv_.notify_all();
  }
}

}  // namespace datanet::server

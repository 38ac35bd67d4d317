#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include "common/fault.h"
#include "common/status.h"

namespace pdm::server {

using broker::ProductHandle;

/// One accepted connection: nonblocking socket plus buffered frame I/O.
struct TcpServer::Connection {
  UniqueFd fd;
  std::string in;
  size_t in_offset = 0;  ///< consumed prefix of `in`
  std::string out;
  size_t out_offset = 0;  ///< flushed prefix of `out`
  bool peer_closed = false;
  bool dead = false;
  /// Accepted on the metrics port: speaks HTTP, not pdm.wire.v1.
  bool scrape = false;
  /// Response fully buffered; close once the write buffer drains. Also set
  /// after a framing violation: the final error frame is the last thing the
  /// peer gets, and further input is discarded rather than parsed.
  bool close_after_flush = false;
  /// Last inbound traffic (or accept), for the idle reaper (§14).
  std::chrono::steady_clock::time_point last_activity;

  bool output_pending() const { return out_offset < out.size(); }
};

TcpServer::TcpServer(broker::Broker* broker, const ServerConfig& config)
    : broker_(broker), config_(config) {
  registry_ = config_.metrics;
  if (registry_ == nullptr) {
    // Private fallback: stats() and GetMetrics must always read real cells,
    // so the server never wires against sinks even when the process didn't
    // provide a registry.
    own_registry_ = std::make_unique<metrics::MetricRegistry>();
    registry_ = own_registry_.get();
  }
  metrics::MetricRegistry& gw = *registry_;
  metrics_.connections = gw.GetCounter("pdm_server_connections_total",
                                       "pdm.wire.v1 connections accepted.");
  static constexpr const char* kOpcodeNames[] = {
      "invalid",     "resolve",  "post_price", "observe", "estimate_value",
      "post_prices", "observes", "ping",       "get_metrics"};
  static_assert(std::size(kOpcodeNames) ==
                static_cast<size_t>(Opcode::kGetMetrics) + 1);
  for (size_t op = 0; op < std::size(kOpcodeNames); ++op) {
    metrics_.frames_by_op[op] =
        gw.GetCounter("pdm_server_frames_total", "Request frames served, by opcode.",
                      {{"opcode", kOpcodeNames[op]}});
  }
  metrics_.frames_coalesced = gw.GetCounter(
      "pdm_server_frames_coalesced_total",
      "Frames answered through a coalesced PostPrices/Observes run.");
  metrics_.coalesced_runs =
      gw.GetCounter("pdm_server_coalesced_runs_total",
                    "Pipelined runs coalesced into one batched broker call.");
  metrics_.protocol_errors = gw.GetCounter(
      "pdm_server_protocol_errors_total",
      "Connections dropped for framing violations.");
  metrics_.shed_frames = gw.GetCounter(
      "pdm_server_shed_frames_total",
      "Frames answered with ResourceExhausted by overload shedding.");
  metrics_.idle_reaped = gw.GetCounter(
      "pdm_server_idle_reaped_total",
      "Connections closed by the idle reaper.");
  metrics_.active_connections = gw.GetGauge(
      "pdm_server_active_connections",
      "Connections currently held by the event loop (wire and scrape).");
  metrics_.request_ns = gw.GetHistogram(
      "pdm_server_request_ns",
      "Serving latency per run: decode, broker call(s), response encode "
      "(nanoseconds; one sample per run, coalesced or single).");
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  Status s = ListenTcp(config_.host, config_.port, &listen_fd_, &port_);
  if (!s.ok()) return s;
  s = SetNonBlocking(listen_fd_.get());
  if (!s.ok()) return s;

  if (config_.metrics_port >= 0) {
    s = ListenTcp(config_.host, static_cast<uint16_t>(config_.metrics_port),
                  &metrics_listen_fd_, &metrics_port_);
    if (!s.ok()) return s;
    s = SetNonBlocking(metrics_listen_fd_.get());
    if (!s.ok()) return s;
  }

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    return Status::FailedPrecondition(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_ = UniqueFd(pipefd[0]);
  wake_write_ = UniqueFd(pipefd[1]);
  (void)SetNonBlocking(wake_read_.get());
  (void)SetNonBlocking(wake_write_.get());

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread(&TcpServer::EventLoop, this);
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!stop_.exchange(true, std::memory_order_acq_rel)) {
    char byte = 1;
    if (wake_write_.valid()) {
      [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
    }
  }
  if (loop_.joinable()) loop_.join();
  running_.store(false, std::memory_order_release);
}

ServerStats TcpServer::stats() const {
  // Reads the same registry cells the scrape endpoint renders — there is no
  // second set of counters to drift out of sync.
  ServerStats s;
  s.connections_accepted = static_cast<int64_t>(metrics_.connections.value());
  uint64_t frames = 0;
  for (const metrics::Counter& c : metrics_.frames_by_op) frames += c.value();
  s.frames_served = static_cast<int64_t>(frames);
  s.frames_coalesced = static_cast<int64_t>(metrics_.frames_coalesced.value());
  s.coalesced_runs = static_cast<int64_t>(metrics_.coalesced_runs.value());
  s.protocol_errors = static_cast<int64_t>(metrics_.protocol_errors.value());
  s.shed_frames = static_cast<int64_t>(metrics_.shed_frames.value());
  s.idle_reaped = static_cast<int64_t>(metrics_.idle_reaped.value());
  return s;
}

void TcpServer::EventLoop() {
  std::vector<pollfd> fds;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  for (;;) {
    if (!draining && stop_.load(std::memory_order_acquire)) {
      // Drain entry: stop accepting, serve everything already buffered, and
      // give slow peers a bounded window to take their responses.
      draining = true;
      listen_fd_.Reset();
      metrics_listen_fd_.Reset();
      for (auto& conn : connections_) {
        if (conn->dead) continue;
        if (conn->scrape) {
          ServeScrape(conn.get());
          if (!FlushWrites(conn.get())) conn->dead = true;
          continue;
        }
        if (!ServeBufferedFrames(conn.get()) || !FlushWrites(conn.get())) {
          conn->dead = true;
        }
      }
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
    }

    // Idle reaper (§14): a wire connection silent past the timeout gets a
    // best-effort error frame, one flush attempt, and dies. Scrapes are
    // exempt (one-shot by construction). Connections already scheduled to
    // close (close_after_flush) are NOT exempt: a peer that triggered a
    // framing violation and then never reads its socket would otherwise pin
    // its fd, buffers, and poll slot forever — silent past the limit, it
    // dies with the error frame undrained.
    if (!draining && config_.idle_timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
      for (auto& conn : connections_) {
        if (conn->dead || conn->scrape) continue;
        if (now - conn->last_activity < limit) continue;
        if (!conn->close_after_flush) {
          EncodeError(&conn->out, static_cast<Opcode>(0), 0,
                      StatusCode::kUnavailable, "connection closed: idle timeout");
          (void)FlushWrites(conn.get());
        }
        conn->dead = true;
        metrics_.idle_reaped.Increment();
      }
    }

    // Reap connections that are done: dead, fully flushed while the peer
    // (or the drain) has no more input for us, or an answered scrape.
    const size_t conns_before_reap = connections_.size();
    std::erase_if(connections_, [draining](const std::unique_ptr<Connection>& c) {
      return c->dead || ((c->peer_closed || draining) && !c->output_pending()) ||
             (c->close_after_flush && !c->output_pending());
    });
    metrics_.active_connections.Sub(
        static_cast<double>(conns_before_reap - connections_.size()));

    if (draining &&
        (connections_.empty() || std::chrono::steady_clock::now() >= drain_deadline)) {
      break;
    }

    fds.clear();
    if (!draining) {
      fds.push_back({listen_fd_.get(), POLLIN, 0});
      if (metrics_listen_fd_.valid()) {
        fds.push_back({metrics_listen_fd_.get(), POLLIN, 0});
      }
    }
    fds.push_back({wake_read_.get(), POLLIN, 0});
    const size_t first_conn = fds.size();
    const size_t num_conns = connections_.size();
    for (size_t i = 0; i < num_conns; ++i) {
      Connection* conn = connections_[i].get();
      // A violated connection is write-only: its final error frame drains,
      // further input is never parsed.
      short events = (draining || conn->close_after_flush) ? 0 : POLLIN;
      if (conn->output_pending()) events |= POLLOUT;
      fds.push_back({conn->fd.get(), events, 0});
    }

    int timeout_ms = -1;
    if (!draining && config_.idle_timeout_ms > 0) {
      // Coarse tick so idle connections are reaped even when no fd fires.
      timeout_ms = config_.idle_timeout_ms;
    }
    if (draining) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          drain_deadline - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
    }
    int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll failure is unrecoverable for the loop
    }

    size_t at = 0;
    if (!draining) {
      if (fds[at].revents & POLLIN) AcceptNew(listen_fd_.get(), /*scrape=*/false);
      ++at;
      if (metrics_listen_fd_.valid()) {
        if (fds[at].revents & POLLIN) {
          AcceptNew(metrics_listen_fd_.get(), /*scrape=*/true);
        }
        ++at;
      }
    }
    if (fds[at].revents & POLLIN) {
      char sink[64];
      while (::read(wake_read_.get(), sink, sizeof sink) > 0) {
      }
    }

    for (size_t i = 0; i < num_conns; ++i) {
      Connection* conn = connections_[i].get();
      short revents = fds[first_conn + i].revents;
      if (revents == 0 || conn->dead) continue;

      if (revents & POLLOUT) {
        if (!FlushWrites(conn)) {
          conn->dead = true;
          continue;
        }
      }
      if (!draining && !conn->close_after_flush &&
          (revents & (POLLIN | POLLHUP | POLLERR))) {
        if (fault::ShouldFail("server.recv_stall")) continue;  // starve a round
        // Read everything available, then serve the buffered frames.
        char chunk[16 << 10];
        for (;;) {
          ssize_t n = ::recv(conn->fd.get(), chunk, sizeof chunk, 0);
          if (n > 0) {
            if (fault::ShouldFail("server.recv_reset")) {
              conn->dead = true;  // simulated mid-frame ECONNRESET
              break;
            }
            conn->in.append(chunk, static_cast<size_t>(n));
            conn->last_activity = std::chrono::steady_clock::now();
            continue;
          }
          if (n == 0) {
            conn->peer_closed = true;  // half-close: still flush responses
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          conn->dead = true;
          break;
        }
        if (conn->dead) continue;
        if (conn->scrape) {
          ServeScrape(conn);
          if (!FlushWrites(conn)) conn->dead = true;
          continue;
        }
        if (!ServeBufferedFrames(conn) || !FlushWrites(conn)) conn->dead = true;
      }
    }
  }

  metrics_.active_connections.Sub(static_cast<double>(connections_.size()));
  connections_.clear();
  listen_fd_.Reset();
  metrics_listen_fd_.Reset();
}

void TcpServer::AcceptNew(int listen_fd, bool scrape) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors: retry on the next poll round
    }
    UniqueFd owned(fd);
    if (fault::ShouldFail("server.accept")) continue;  // drops `owned`
    if (!SetNonBlocking(fd).ok()) continue;  // drops `owned`
    SetNoDelay(fd);
    if (config_.so_sndbuf > 0) {
      int v = config_.so_sndbuf;
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof v);
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(owned);
    conn->scrape = scrape;
    conn->last_activity = std::chrono::steady_clock::now();
    connections_.push_back(std::move(conn));
    metrics_.active_connections.Add(1.0);
    if (!scrape) metrics_.connections.Increment();
  }
}

void TcpServer::ServeScrape(Connection* conn) {
  if (conn->close_after_flush) return;  // already answered
  // Answer once the request header is complete (blank line). The request
  // line is ignored — every path serves the full registry, which is all a
  // Prometheus scraper (or curl) needs.
  if (conn->in.find("\r\n\r\n") == std::string::npos &&
      conn->in.find("\n\n") == std::string::npos) {
    if (conn->peer_closed) conn->dead = true;  // header never completed
    return;
  }
  std::string body;
  registry_->RenderPrometheus(&body);
  conn->out += "HTTP/1.0 200 OK\r\n";
  conn->out += "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  conn->out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  conn->out += "Connection: close\r\n\r\n";
  conn->out += body;
  conn->close_after_flush = true;
}

bool TcpServer::ServeBufferedFrames(Connection* conn) {
  // Framing violations end the connection, but with a courtesy: the peer
  // gets a final connection-level error frame (opcode 0, id 0 — no request
  // frame can legitimately carry opcode 0) before close, so a desynced
  // client sees *why* instead of a silent reset. Input past the violation
  // is garbage by definition and is discarded unparsed.
  auto violated = [&](std::string_view reason) {
    metrics_.protocol_errors.Increment();
    EncodeError(&conn->out, static_cast<Opcode>(0), 0,
                StatusCode::kInvalidArgument, reason);
    conn->close_after_flush = true;
    conn->in.clear();
    conn->in_offset = 0;
    return true;  // the buffered error frame still needs a flush
  };

  // Split out every complete frame first: coalescing needs to see the whole
  // pipelined run, not one frame at a time.
  frames_.clear();
  size_t offset = conn->in_offset;
  for (;;) {
    std::string_view payload;
    size_t next;
    FrameResult r = NextFrame(conn->in, offset, &payload, &next);
    if (r == FrameResult::kMalformed) {
      return violated("framing violation: oversized frame length");
    }
    if (r == FrameResult::kNeedMore) break;
    frames_.push_back(payload);
    offset = next;
  }

  size_t at = 0;
  while (at < frames_.size()) {
    // A frame too short for the fixed header cannot be answered (there is
    // no id to echo) — that is a framing violation.
    RequestFrame frame;
    if (!DecodeRequestHeader(frames_[at], &frame)) {
      return violated("framing violation: frame shorter than request header");
    }
    // Overload shedding (§14): past either cap, answer ResourceExhausted
    // without touching the broker. The error frame is a few dozen bytes, so
    // shedding shrinks the backlog even as it answers every frame.
    const bool over_backlog =
        config_.max_buffered_bytes != 0 &&
        conn->out.size() - conn->out_offset > config_.max_buffered_bytes;
    const bool over_inflight =
        config_.max_inflight_frames != 0 && at >= config_.max_inflight_frames;
    if (over_backlog || over_inflight) {
      EncodeError(&conn->out, static_cast<Opcode>(frame.op), frame.id,
                  StatusCode::kResourceExhausted,
                  over_backlog ? "server overloaded: response backlog over cap"
                               : "server overloaded: pipelined frames over cap");
      metrics_.shed_frames.Increment();
      ++at;
      continue;
    }
    const auto run_start = std::chrono::steady_clock::now();
    at += ServeRun(conn, frame, at);
    metrics_.request_ns.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - run_start)
            .count()));
  }

  conn->in_offset = offset;
  CompactConsumed(&conn->in, &conn->in_offset);
  return true;
}

size_t TcpServer::ServeRun(Connection* conn, const RequestFrame& first, size_t at) {
  const uint8_t op = first.op;
  if (op != static_cast<uint8_t>(Opcode::kPostPrice) &&
      op != static_cast<uint8_t>(Opcode::kObserve)) {
    ServeFrame(conn, first);
    return 1;
  }
  // Every kPostPrice (kObserve) frame is served as part of a run — the
  // frames of that opcode from `at` on whose bodies decode — through one
  // batched broker call: one session-lock acquisition per run, and a lone
  // frame is a run of one. A frame of another opcode, a short header or a
  // malformed body ends the run.
  const bool price = op == static_cast<uint8_t>(Opcode::kPostPrice);
  run_ids_.clear();
  prices_.clear();
  feedback_.clear();
  for (size_t i = at; i < frames_.size(); ++i) {
    RequestFrame frame;
    if (!DecodeRequestHeader(frames_[i], &frame) || frame.op != op) break;
    if (!(price ? DecodePostPrice(frame.body, &prices_)
                : DecodeObserve(frame.body, &feedback_))) {
      break;
    }
    run_ids_.push_back(frame.id);
  }
  const size_t n = run_ids_.size();
  metrics_.frames_by_op[op].Add(std::max<size_t>(n, 1));
  if (n == 0) {
    EncodeError(&conn->out, static_cast<Opcode>(op), first.id,
                StatusCode::kInvalidArgument, "malformed request body");
    return 1;
  }
  if (n >= 2) {
    metrics_.frames_coalesced.Add(n);
    metrics_.coalesced_runs.Increment();
  }
  Status batch;
  if (price) {
    quotes_.assign(n, broker::Quote{});
    batch = broker_->PostPrices(prices_.requests, quotes_);
  } else {
    codes_.assign(n, StatusCode::kOk);
    batch = broker_->Observes(feedback_, codes_);
  }
  // Per-frame answers. The failure at the batch's first-error position
  // carries the broker's message, exactly as the scalar call would; later
  // failures name their code.
  bool first_failure = true;
  for (size_t i = 0; i < n; ++i) {
    const StatusCode code = price ? quotes_[i].status : codes_[i];
    if (code == StatusCode::kOk) {
      if (price) {
        EncodeQuote(&conn->out, run_ids_[i], quotes_[i]);
      } else {
        EncodeOk(&conn->out, Opcode::kObserve, run_ids_[i]);
      }
      continue;
    }
    EncodeError(&conn->out, static_cast<Opcode>(op), run_ids_[i], code,
                first_failure ? batch.message()
                              : std::string("batched request failed: ") + StatusCodeName(code));
    first_failure = false;
  }
  return n;
}

void TcpServer::ServeFrame(Connection* conn, const RequestFrame& frame) {
  const uint8_t op_byte = frame.op;
  const uint64_t id = frame.id;
  metrics_.frames_by_op[ValidOpcode(op_byte) ? op_byte : 0].Increment();
  const Opcode op = static_cast<Opcode>(op_byte);
  std::string* out = &conn->out;
  auto malformed = [&] {
    EncodeError(out, op, id, StatusCode::kInvalidArgument, "malformed request body");
  };

  switch (op) {
    case Opcode::kPing:
      if (!frame.body.empty()) return malformed();
      return EncodeOk(out, op, id);

    case Opcode::kGetMetrics:
      if (!frame.body.empty()) return malformed();
      return EncodeMetrics(out, id, registry_->EncodeDump());

    case Opcode::kResolve: {
      std::string_view product;
      if (!DecodeResolve(frame.body, &product)) return malformed();
      ProductHandle handle;
      Status s = broker_->Resolve(product, &handle);
      if (!s.ok()) return EncodeError(out, op, id, s.code(), s.message());
      return EncodeResolved(out, id, handle);
    }

    case Opcode::kEstimateValue: {
      ProductHandle handle;
      prices_.clear();  // only its features buffer is borrowed
      if (!DecodeEstimateValue(frame.body, &handle, &prices_.features)) return malformed();
      ValueInterval interval;
      Status s = broker_->EstimateValue(handle, prices_.features, &interval);
      if (!s.ok()) return EncodeError(out, op, id, s.code(), s.message());
      return EncodeInterval(out, id, interval);
    }

    case Opcode::kPostPrices:
      prices_.clear();
      if (!DecodePostPrices(frame.body, &prices_)) {
        return EncodePostPricesResult(out, id, Status::InvalidArgument("malformed batch body"),
                                      {});
      }
      quotes_.assign(prices_.requests.size(), broker::Quote{});
      return EncodePostPricesResult(out, id, broker_->PostPrices(prices_.requests, quotes_),
                                    quotes_);

    case Opcode::kObserves:
      feedback_.clear();
      if (!DecodeObserves(frame.body, &feedback_)) {
        return EncodeObservesResult(out, id, Status::InvalidArgument("malformed batch body"),
                                    {});
      }
      codes_.assign(feedback_.size(), StatusCode::kOk);
      return EncodeObservesResult(out, id, broker_->Observes(feedback_, codes_), codes_);

    default:  // ServeRun answers kPostPrice and kObserve
      return EncodeError(out, op, id, StatusCode::kInvalidArgument,
                         "unknown opcode " + std::to_string(op_byte));
  }
}

bool TcpServer::FlushWrites(Connection* conn) {
  while (conn->output_pending()) {
    ssize_t n = ::send(conn->fd.get(), conn->out.data() + conn->out_offset,
                       conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  conn->out.clear();
  conn->out_offset = 0;
  return true;
}

}  // namespace pdm::server

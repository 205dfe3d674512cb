// Live scrape endpoint for the telemetry stream (DESIGN.md 2.5). A minimal,
// dependency-free HTTP/1.1 server over POSIX sockets that serves the route
// table of the most recent PublishedSnapshot a timeline handed to Publish():
//
//   GET /metrics        Prometheus text exposition 0.0.4 (ToPrometheusText)
//   GET /timeline.jsonl the full sample/event timeline so far (ToJsonl)
//   GET /healthz        a tiny JSON liveness document
//   GET /shards.jsonl   per-shard snapshots (fleet aggregator only)
//   GET /slo.jsonl      per-tenant SLO ledger (attribution plane only)
//
// Unmapped paths answer 404. Before the first publish /healthz answers
// {"status":"starting"} and every other path 503. HEAD mirrors GET (same
// status/headers/Content-Length, no body); any other method answers 405
// with an Allow header.
//
// Concurrency model: the simulation stays single-threaded and deterministic.
// The timeline renders each snapshot on the simulation thread and swaps it in
// under a mutex; the single server thread only ever copies that shared_ptr
// (same mutex) and reads the immutable strings behind it. Enabling the
// server cannot perturb virtual-time results — the scraped bytes at sample
// seq N are identical to the file export taken at the same point.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "telemetry/timeline.h"

namespace bandslim::telemetry {

class HttpExporter : public SnapshotSink {
 public:
  HttpExporter() = default;
  ~HttpExporter() override;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the server thread.
  Status Start(std::uint16_t port);
  // Stops the server thread and closes the socket. Safe to call twice.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port (resolved after Start when an ephemeral port was asked).
  std::uint16_t port() const { return port_; }
  // Requests served since Start (any path, including 404s).
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_acquire);
  }

  // SnapshotSink: called on the simulation thread at each sample boundary.
  void Publish(std::shared_ptr<const PublishedSnapshot> snapshot) override;

  // Most recent snapshot (null before the first Publish). Thread-safe.
  std::shared_ptr<const PublishedSnapshot> Current() const;

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};

  mutable std::mutex mutex_;
  std::shared_ptr<const PublishedSnapshot> snapshot_;
};

// Blocking one-shot HTTP/1.1 GET against 127.0.0.1:`port`; returns the
// response body on 200, an error Status otherwise. Used by the bench/CI
// self-scrape to prove the over-the-wire bytes match the file export.
Result<std::string> HttpGet(std::uint16_t port, const std::string& path);

// Blocking one-shot request with an arbitrary method; returns the FULL
// response (status line + headers + body) regardless of status code, so
// tests can assert on 405 Allow headers and HEAD Content-Length.
Result<std::string> HttpRequestRaw(std::uint16_t port,
                                   const std::string& method,
                                   const std::string& path);

}  // namespace bandslim::telemetry

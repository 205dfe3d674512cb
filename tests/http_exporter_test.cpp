// HTTP exporter tests: server lifecycle on ephemeral ports, route-table
// serving (/metrics, /timeline.jsonl, /healthz, 404, 503-before-first-publish),
// snapshot swap semantics, and the end-to-end guarantee the CI scrape relies
// on — the bytes served over a real loopback socket equal the in-process
// exports at the same sample seq.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/kvssd.h"
#include "telemetry/export.h"
#include "telemetry/http_exporter.h"
#include "workload/value_gen.h"

namespace bandslim::telemetry {
namespace {

std::shared_ptr<PublishedSnapshot> MakeSnapshot(std::uint64_t seq) {
  auto snap = std::make_shared<PublishedSnapshot>();
  snap->sample_seq = seq;
  snap->t_ns = seq * 1000;
  snap->routes = {
      {"/metrics", "text/plain; version=0.0.4; charset=utf-8",
       "# seq " + std::to_string(seq) + "\nmetric 1\n"},
      {"/timeline.jsonl", "application/x-ndjson",
       "{\"seq\":" + std::to_string(seq) + "}\n"},
      {"/healthz", "application/json",
       "{\"status\":\"ok\",\"sample_seq\":" + std::to_string(seq) + "}\n"}};
  return snap;
}

void AddSloRoute(PublishedSnapshot* snap, std::string body) {
  snap->routes.push_back({"/slo.jsonl", "application/x-ndjson", std::move(body)});
}

TEST(HttpExporterTest, StartStopLifecycle) {
  HttpExporter server;
  EXPECT_FALSE(server.running());
  ASSERT_TRUE(server.Start(0).ok());  // 0 = kernel-assigned ephemeral port.
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  // A second Start while running is refused, not a silent rebind.
  EXPECT_TRUE(server.Start(0).IsAlreadyExists());
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
  // Restartable after Stop, picking up a fresh socket.
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
}

TEST(HttpExporterTest, HealthzLivesBeforeFirstPublishOtherPathsAre503) {
  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  const auto health = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().find("starting"), std::string::npos);
  // No snapshot yet: scrape paths answer 503, not empty documents.
  const auto metrics = HttpGet(server.port(), "/metrics");
  ASSERT_FALSE(metrics.ok());
  EXPECT_NE(metrics.status().message().find("503"), std::string::npos);
  server.Stop();
}

TEST(HttpExporterTest, ServesLatestPublishedSnapshot) {
  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  server.Publish(MakeSnapshot(1));
  server.Publish(MakeSnapshot(2));  // Swap: only the latest is visible.

  const auto metrics = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value(), "# seq 2\nmetric 1\n");
  const auto jsonl = HttpGet(server.port(), "/timeline.jsonl");
  ASSERT_TRUE(jsonl.ok());
  EXPECT_EQ(jsonl.value(), "{\"seq\":2}\n");
  const auto health = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().find("\"sample_seq\":2"), std::string::npos);

  const auto missing = HttpGet(server.port(), "/no-such-path");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("404"), std::string::npos);

  EXPECT_GE(server.requests_served(), 4u);
  ASSERT_NE(server.Current(), nullptr);
  EXPECT_EQ(server.Current()->sample_seq, 2u);
  server.Stop();
}

TEST(HttpExporterTest, HeadMatchesGetHeadersWithoutBody) {
  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  auto snap = MakeSnapshot(3);
  AddSloRoute(snap.get(), "{\"tenant\":0}\n");
  server.Publish(std::move(snap));

  for (const char* path : {"/metrics", "/timeline.jsonl", "/slo.jsonl",
                           "/healthz"}) {
    const auto get = HttpRequestRaw(server.port(), "GET", path);
    const auto head = HttpRequestRaw(server.port(), "HEAD", path);
    ASSERT_TRUE(get.ok() && head.ok()) << path;
    // HEAD: status line and every header (Content-Length included) equal
    // the GET response's, with no body after the blank line.
    const std::size_t get_hdr_end = get.value().find("\r\n\r\n");
    ASSERT_NE(get_hdr_end, std::string::npos) << path;
    EXPECT_EQ(head.value(), get.value().substr(0, get_hdr_end + 4)) << path;
    EXPECT_NE(head.value().find("Content-Length: "), std::string::npos)
        << path;
    EXPECT_GT(get.value().size(), get_hdr_end + 4) << path;  // GET has body.
  }
  server.Stop();
}

TEST(HttpExporterTest, NonGetMethodsAnswer405WithAllow) {
  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  server.Publish(MakeSnapshot(4));
  for (const char* method : {"POST", "PUT", "DELETE", "PATCH"}) {
    const auto resp = HttpRequestRaw(server.port(), method, "/metrics");
    ASSERT_TRUE(resp.ok()) << method;
    EXPECT_NE(resp.value().find("405 Method Not Allowed"), std::string::npos)
        << method;
    EXPECT_NE(resp.value().find("Allow: GET, HEAD"), std::string::npos)
        << method;
  }
  // A garbage method token is a malformed request, not a 405.
  const auto bad = HttpRequestRaw(server.port(), "ge t", "/metrics");
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad.value().find("400 Bad Request"), std::string::npos);
  server.Stop();
}

TEST(HttpExporterTest, SloRouteServesPublishedDocumentOr404) {
  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  // Snapshot without an SLO route (attribution disabled): 404, so a
  // scraper can tell "no attribution" from "empty attribution".
  server.Publish(MakeSnapshot(5));
  const auto missing = HttpGet(server.port(), "/slo.jsonl");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("404"), std::string::npos);

  auto snap = MakeSnapshot(6);
  AddSloRoute(snap.get(), "{\"tenant\":0,\"name\":\"frontend\"}\n");
  server.Publish(std::move(snap));
  const auto slo = HttpGet(server.port(), "/slo.jsonl");
  ASSERT_TRUE(slo.ok());
  EXPECT_EQ(slo.value(), "{\"tenant\":0,\"name\":\"frontend\"}\n");
  server.Stop();
}

TEST(HttpExporterTest, PortCollisionReportsIoError) {
  HttpExporter first;
  ASSERT_TRUE(first.Start(0).ok());
  HttpExporter second;
  const Status status = second.Start(first.port());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bind"), std::string::npos);
  first.Stop();
}

TEST(HttpExporterTest, DeviceScrapeMatchesInProcessExports) {
  KvSsdOptions o;
  o.trace.enabled = true;
  o.telemetry.enabled = true;
  o.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  auto ssd = KvSsd::Open(o).value();

  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  ssd->Hooks().sampler->SetSink(&server);

  for (int i = 0; i < 150; ++i) {
    Bytes value = workload::MakeValue(64, 3, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put("k" + std::to_string(i), ByteSpan(value)).ok());
  }
  ASSERT_TRUE(ssd->Flush().ok());
  ssd->Hooks().sampler->Finalize();

  // Finalize always publishes the closing sample, so the wire bytes equal
  // the exports rendered right now — the CI gate's core invariant.
  const auto metrics = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value(), ToPrometheusText(ssd->telemetry()));
  const auto jsonl = HttpGet(server.port(), "/timeline.jsonl");
  ASSERT_TRUE(jsonl.ok());
  EXPECT_EQ(jsonl.value(), ToJsonl(ssd->telemetry()));
  ASSERT_NE(server.Current(), nullptr);
  EXPECT_EQ(server.Current()->sample_seq,
            ssd->telemetry().samples().back().seq);
  server.Stop();
}

}  // namespace
}  // namespace bandslim::telemetry

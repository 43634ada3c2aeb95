// Telemetry-plane unit tests: the record ring (breadcrumbs and spans) and
// its dump formats, the Collector's prefix-splitting / rate conversion, the
// mini JSON reader, the span delta cursor, concurrent ring readers, chunked
// monitor snapshot fetches, and the observer HELLO auto-peer reply path
// doct-top rides on.
//
// The record ring is a process singleton whose capacity is fixed at the
// FIRST configure — every ring test pins it (kRing) before anything else can
// reserve the default size.  Each ctest entry is its own process, so nothing
// leaks into other binaries.  This binary's global operator new/delete are
// the counting alloc probe (see the zero-allocation span test).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_probe.hpp"
#include "net/demux.hpp"
#include "net/socket_transport.hpp"
#include "obs/collector.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "runtime/runtime.hpp"
#include "services/monitor/monitor.hpp"

namespace doct {
namespace {

using namespace std::chrono_literals;
using runtime::Cluster;
using runtime::ClusterConfig;

constexpr std::size_t kRing = 64;

std::string test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = std::string(::testing::TempDir()) + "doct-flight-" +
                          info->name();
  (void)std::system(("mkdir -p " + dir).c_str());
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- flight recorder ---------------------------------------------------------

TEST(Flight, RingRecordsWrapsAndTruncates) {
  auto& recorder = obs::flight();
  recorder.configure(7, test_dir(), kRing);
  ASSERT_TRUE(recorder.enabled());
  ASSERT_EQ(recorder.capacity(), kRing);

  const std::string long_detail(500, 'x');
  for (int i = 0; i < static_cast<int>(kRing) + 40; ++i) {
    recorder.note("test", i == 0 ? long_detail : "entry-" + std::to_string(i),
                  static_cast<std::uint64_t>(i), 99);
  }

  const std::vector<obs::Record> entries = recorder.records_since(0);
  ASSERT_EQ(entries.size(), kRing);  // bounded: oldest 40 evicted
  // Oldest-first, strictly increasing publish order.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GT(entries[i].seq, entries[i - 1].seq);
  }
  EXPECT_EQ(entries.back().seq, recorder.noted_total());
  EXPECT_STREQ(entries.back().name, "test");
  EXPECT_EQ(entries.back().track, 99u);  // breadcrumb operand b
  EXPECT_FALSE(entries.back().is_span());
  // The 500-char detail was clamped to the POD slot, NUL-terminated.
  EXPECT_LT(std::string(entries.front().detail).size(),
            sizeof(obs::Record{}.detail));
}

TEST(Flight, DumpWritesParseableJson) {
  auto& recorder = obs::flight();
  const std::string dir = test_dir();
  recorder.configure(7, dir, kRing);
  recorder.note("deliver", "quote\"and\\backslash", 1, 2);

  ASSERT_TRUE(recorder.dump("unit").is_ok());
  const std::string body = read_file(dir + "/flight-node7-unit.json");
  ASSERT_FALSE(body.empty());

  auto parsed = obs::parse_json(body);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.num_or("node", 0), 7);
  const obs::JsonValue* reason = doc.find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->string, "unit");
  const obs::JsonValue* entries = doc.find("entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_FALSE(entries->array.empty());
  // Full-fidelity dumps embed the metrics + trace documents.
  EXPECT_NE(doc.find("metrics"), nullptr);
  EXPECT_NE(doc.find("trace"), nullptr);
}

TEST(Flight, SignalDumpIsWellFormedJson) {
  auto& recorder = obs::flight();
  const std::string dir = test_dir();
  recorder.configure(7, dir, kRing);
  recorder.note("fault", "drop from=1 to=2", 1, 2);
  obs::Span span;
  span.trace_id = 41;
  span.span_id = 42;
  span.set_name("sigspan");
  obs::tracer().record(span);

  // Direct call of the async-signal-safe path (the crash handlers' body).
  recorder.dump_signal("sigtest");
  const std::string body = read_file(dir + "/flight-node7-sigtest.json");
  ASSERT_FALSE(body.empty());

  auto parsed = obs::parse_json(body);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue& doc = parsed.value();
  const obs::JsonValue* signal = doc.find("signal");
  ASSERT_NE(signal, nullptr);
  EXPECT_TRUE(signal->boolean);
  const obs::JsonValue* entries = doc.find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_FALSE(entries->array.empty());
  bool found = false;
  bool found_span = false;
  for (const obs::JsonValue& entry : entries->array) {
    const obs::JsonValue* kind = entry.find("kind");
    if (kind != nullptr && kind->string == "fault") found = true;
    // Spans share the ring, so a crash dump carries them with their ids.
    if (kind != nullptr && kind->string == "sigspan") {
      found_span = entry.num_or("trace_id", 0) == 41 &&
                   entry.num_or("span_id", 0) == 42;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(found_span);
}

// --- mini JSON reader --------------------------------------------------------

TEST(Collector, ParseJsonHandlesRealSnapshot) {
  obs::set_metrics_enabled(true);
  obs::metrics().counter("flighttest.parse_probe").add(3);
  const std::string doc = obs::metrics().snapshot_json();
  obs::set_metrics_enabled(false);

  auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue& root = parsed.value();

  // Meta object: monotone seq, wall-clock stamp, process uptime.
  const obs::JsonValue* meta = root.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_GE(meta->num_or("seq", 0), 1.0);
  EXPECT_GT(meta->num_or("wall_ms", 0), 1e12);  // epoch millis, not zero
  EXPECT_GT(meta->num_or("uptime_us", -1), 0.0);

  const obs::JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->num_or("flighttest.parse_probe", 0), 3.0);
}

TEST(Collector, ParseJsonRejectsMalformed) {
  EXPECT_FALSE(obs::parse_json("{\"unterminated\":").is_ok());
  EXPECT_FALSE(obs::parse_json("").is_ok());
  EXPECT_FALSE(obs::parse_json("{\"a\":1,}").is_ok());
  EXPECT_TRUE(obs::parse_json("{\"a\":[1,2,{\"b\":\"c\\\"d\"}]}").is_ok());
}

// --- collector merge ---------------------------------------------------------

std::string synthetic_snapshot(std::uint64_t seq, std::int64_t wall_ms,
                               const std::string& counters) {
  std::ostringstream out;
  out << "{\"meta\":{\"seq\":" << seq << ",\"wall_ms\":" << wall_ms
      << ",\"uptime_us\":5000,\"node\":0},\"counters\":{" << counters
      << "},\"gauges\":{},\"histograms\":{}}";
  return out.str();
}

TEST(Collector, SplitsNodePrefixesOntoRows) {
  obs::Collector collector;
  ASSERT_TRUE(collector
                  .ingest(1, synthetic_snapshot(
                                 1, 1000,
                                 "\"node1.exec.x\":5,\"node2.exec.x\":7,"
                                 "\"global.y\":3"))
                  .is_ok());

  const std::vector<std::uint64_t> nodes = collector.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 1u);
  EXPECT_EQ(nodes[1], 2u);

  auto parsed = obs::parse_json(collector.cluster_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue* rows = parsed.value().find("nodes");
  ASSERT_NE(rows, nullptr);
  const obs::JsonValue* row1 = rows->find("1");
  const obs::JsonValue* row2 = rows->find("2");
  ASSERT_NE(row1, nullptr);
  ASSERT_NE(row2, nullptr);
  // Prefixes stripped and re-homed; un-prefixed names on the source row.
  EXPECT_EQ(row1->find("counters")->num_or("exec.x", 0), 5.0);
  EXPECT_EQ(row2->find("counters")->num_or("exec.x", 0), 7.0);
  EXPECT_EQ(row1->find("counters")->num_or("global.y", 0), 3.0);
  EXPECT_EQ(row2->find("counters")->num_or("global.y", -1), -1.0);
}

TEST(Collector, ConvertsCounterDeltasToRates) {
  obs::Collector collector;
  ASSERT_TRUE(
      collector.ingest(3, synthetic_snapshot(1, 10'000, "\"k.c\":100"))
          .is_ok());
  ASSERT_TRUE(
      collector.ingest(3, synthetic_snapshot(2, 12'000, "\"k.c\":150"))
          .is_ok());

  auto parsed = obs::parse_json(collector.cluster_json());
  ASSERT_TRUE(parsed.is_ok());
  const obs::JsonValue* row = parsed.value().find("nodes")->find("3");
  ASSERT_NE(row, nullptr);
  // 50 increments over 2000ms -> 25/s.
  EXPECT_NEAR(row->find("rates")->num_or("k.c", 0), 25.0, 0.01);
  // A counter reset (delta < 0, e.g. a restarted shard) must not produce a
  // negative rate.
  ASSERT_TRUE(collector.ingest(3, synthetic_snapshot(3, 14'000, "\"k.c\":10"))
                  .is_ok());
  parsed = obs::parse_json(collector.cluster_json());
  ASSERT_TRUE(parsed.is_ok());
  row = parsed.value().find("nodes")->find("3");
  EXPECT_GE(row->find("rates")->num_or("k.c", 0), 0.0);
}

TEST(Collector, IngestRejectsGarbage) {
  obs::Collector collector;
  EXPECT_FALSE(collector.ingest(1, "not json at all").is_ok());
  EXPECT_TRUE(collector.nodes().empty());
}

// --- spans on the record ring -----------------------------------------------

TEST(Trace, BoundedBufferCountsDropsAndServesDeltas) {
  auto& recorder = obs::flight();
  recorder.configure(7, test_dir(), kRing);
  ASSERT_EQ(recorder.capacity(), kRing);
  auto& tracer = obs::tracer();
  // Records already in the ring are evicted too (none in a fresh process).
  const std::uint64_t resident =
      std::min<std::uint64_t>(recorder.noted_total(), kRing);
  const std::uint64_t dropped_before = tracer.dropped_total();
  for (std::size_t i = 0; i < kRing + 24; ++i) {
    obs::Span span;
    span.trace_id = 1;
    span.span_id = i + 1;
    span.node = 1;
    span.set_name("unit");
    tracer.record(span);
  }

  EXPECT_EQ(tracer.snapshot().size(), kRing);
  EXPECT_EQ(tracer.dropped_total() - dropped_before, 24u + resident);

  // Delta cursor: everything after the cut, nothing before it.
  const std::uint64_t last = tracer.last_seq();
  EXPECT_TRUE(tracer.snapshot_since(last).empty());
  const std::vector<obs::Span> tail = tracer.snapshot_since(last - 5);
  ASSERT_EQ(tail.size(), 5u);
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_GT(tail[i].seq, tail[i - 1].seq);
  }
  EXPECT_EQ(tail.back().span_id, kRing + 24);

  // clear() is a cursor: it hides the spans without touching the ring.
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(recorder.records_since(0).size(), kRing);
}

// Every field of a test record derives from one value, so a record mixed
// from two writes cannot pass.
bool whole(const obs::Record& r) {
  if (r.is_span()) {
    const std::uint64_t v = r.trace_id;
    return r.span_id == v && r.parent_span == v && r.node == v &&
           r.track == v && r.start_us == static_cast<std::int64_t>(v) &&
           r.dur_us == static_cast<std::int64_t>(v) &&
           std::string(r.name) == "w" && r.detail == std::to_string(v);
  }
  return std::string(r.name) == "n" && r.track == r.node &&
         r.detail == std::to_string(r.node);
}

// Four writers record spans and breadcrumbs while a reader pulls deltas the
// way the collector does.  Also the TSan lane's check that reading the ring
// under live writers is race-free.
TEST(Trace, ConcurrentReaderSeesWholeRecordsInOrder) {
  auto& recorder = obs::flight();
  recorder.configure(7, test_dir(), kRing);
  ASSERT_EQ(recorder.capacity(), kRing);
  constexpr std::uint64_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;

  std::atomic<std::uint64_t> running{kWriters};
  std::vector<std::thread> writers;
  for (std::uint64_t w = 1; w <= kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t v = (w << 32) | i;
        if (i % 2 == 0) {
          obs::Span span;
          span.trace_id = span.span_id = span.parent_span = v;
          span.node = span.track = v;
          span.start_us = span.dur_us = static_cast<std::int64_t>(v);
          span.set_name("w");
          span.set_detail(std::to_string(v));
          obs::tracer().record(span);
        } else {
          recorder.note("n", std::to_string(v), v, v);
        }
      }
      running.fetch_sub(1);
    });
  }

  std::uint64_t span_cursor = 0;
  std::uint64_t record_cursor = 0;
  std::uint64_t seen = 0;
  std::uint64_t torn = 0;
  std::uint64_t out_of_order = 0;
  bool last_pass = false;
  while (!last_pass) {
    last_pass = running.load() == 0;
    for (const obs::Span& span : obs::tracer().snapshot_since(span_cursor)) {
      if (!span.is_span() || !whole(span)) ++torn;
      if (span.seq <= span_cursor) ++out_of_order;
      span_cursor = span.seq;
      ++seen;
    }
    for (const obs::Record& r : recorder.records_since(record_cursor)) {
      if (!whole(r)) ++torn;
      if (r.seq <= record_cursor) ++out_of_order;
      record_cursor = r.seq;
      ++seen;
    }
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_GT(seen, 0u);
}

// Tracing on and the ring armed: opening and closing spans and writing
// breadcrumbs touches no heap, even with a detail longer than the
// small-string buffer.
TEST(Trace, SpansAndNotesAllocateNothing) {
  auto& recorder = obs::flight();
  recorder.configure(7, test_dir(), kRing);
  obs::set_tracing_enabled(true);
  const std::string detail = "perfbench.on_event.detail";
  {
    // Warm-up: the tracer singleton registers its metrics source.
    obs::SpanGuard warm("warm", 1, obs::kMintTrace, detail);
  }
  const std::uint64_t before = recorder.noted_total();
  common::alloc_probe_reset();
  for (int i = 0; i < 100; ++i) {
    obs::SpanGuard root("unit", 1, obs::kMintTrace, detail);
    {
      obs::SpanGuard child("child", 1, detail);
    }
    obs::mark("mark", 1, detail);
    recorder.note("note", detail, 1, 2);
  }
  const std::uint64_t allocs = common::alloc_probe_allocs();
  obs::set_tracing_enabled(false);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(recorder.noted_total() - before, 400u);  // 3 spans + 1 note each
}

// --- chunked monitor snapshot fetch ------------------------------------------

// A metrics document larger than one chunk must arrive intact through the
// monitor's chunked entries.  Counter registrations are process-permanent;
// this test binary owns its own process, so the padding stays local.
TEST(Monitor, ChunkedFetchReassemblesOversizedSnapshot) {
  obs::set_metrics_enabled(true);
  const std::string stem(120, 'p');
  for (int i = 0; i < 600; ++i) {
    obs::metrics().counter("pad." + stem + std::to_string(i)).add(1);
  }
  ASSERT_GT(obs::metrics().snapshot_json().size(),
            services::kSnapshotChunkBytes);

  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  const ObjectId server =
      n0.objects.add_object(services::MonitorServer::make());
  services::MonitorClient client(n1.events, n1.objects, server);

  std::string doc;
  const ThreadId tid = n1.kernel.spawn([&] {
    auto metrics = client.metrics_json();
    ASSERT_TRUE(metrics.is_ok()) << metrics.status().to_string();
    doc = metrics.value();
  });
  ASSERT_TRUE(n1.kernel.join_thread(tid, 30s).is_ok());
  obs::set_metrics_enabled(false);

  ASSERT_GT(doc.size(), services::kSnapshotChunkBytes);
  auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue* counters = parsed.value().find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->num_or("pad." + stem + "599", 0), 1.0);
}

// --- in-process cluster merge + sampled executor gauges ----------------------

TEST(ClusterTelemetry, InProcessClusterMetricsJson) {
  obs::set_metrics_enabled(true);
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  n1.rpc.register_method("flight.noop",
                         [](NodeId, Reader&) -> Result<rpc::Payload> {
                           return rpc::Payload{};
                         });
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(n0.rpc.call(n1.id, "flight.noop", {}).is_ok());
  }

  // cluster_metrics_json runs a collection round inline (no collector
  // thread): samples every executor, then merges the process snapshot.
  const std::string doc = cluster.cluster_metrics_json();
  obs::set_metrics_enabled(false);

  auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue* rows = parsed.value().find("nodes");
  ASSERT_NE(rows, nullptr);
  const obs::JsonValue* row1 = rows->find("1");
  const obs::JsonValue* row2 = rows->find("2");
  ASSERT_NE(row1, nullptr) << doc.substr(0, 200);
  ASSERT_NE(row2, nullptr);
  // Per-node attribution: node 2 executed the RPC bodies, node 1 did not.
  EXPECT_GE(row2->find("counters")->num_or("rpc.requests_executed", 0), 8.0);
  // Live per-node lane-depth entries ride the executor source.
  EXPECT_GE(row1->find("counters")->num_or("exec.control_executed", -1), 0.0);
  // sample_telemetry fed the sampled-depth histograms (process-global).
  const std::string snapshot = obs::metrics().snapshot_json();
  EXPECT_NE(snapshot.find("exec.lane_depth_sampled.control"),
            std::string::npos);
  EXPECT_NE(snapshot.find("exec.reservation_claimed_sampled"),
            std::string::npos);
}

TEST(ClusterTelemetry, BackgroundCollectorThreadPublishes) {
  obs::set_metrics_enabled(true);
  ClusterConfig config;
  config.telemetry.collector = true;
  config.telemetry.period = 20ms;
  Cluster cluster(2, config);

  // Two rounds make rates appear; poll until the collector has rows.
  std::string doc;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(10ms);
    doc = cluster.collector().cluster_json();
    auto parsed = obs::parse_json(doc);
    if (parsed.is_ok()) {
      const obs::JsonValue* rows = parsed.value().find("nodes");
      if (rows != nullptr && rows->find("1") != nullptr &&
          rows->find("1")->find("rates") != nullptr &&
          !rows->find("1")->find("rates")->object.empty()) {
        break;
      }
    }
  }
  obs::set_metrics_enabled(false);

  auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.is_ok()) << doc.substr(0, 200);
  const obs::JsonValue* row = parsed.value().find("nodes")->find("1");
  ASSERT_NE(row, nullptr);
  EXPECT_FALSE(row->find("rates")->object.empty())
      << "rates never appeared after two collector rounds";
}

// --- observer HELLO auto-peer (the doct-top attach path) ---------------------

// An endpoint the cluster was never configured with connects in, and the
// accepting side learns its reply address from the HELLO listen-address
// extension: the round trip works with NO peer entry for the observer.
TEST(ObserverAttach, HelloCarriesReplyAddress) {
  const std::string base = ::testing::TempDir() + "doct-hello-" +
                           std::to_string(::getpid());
  net::SocketTransportConfig server_config;
  server_config.self = NodeId{1};
  server_config.listen = "unix:" + base + "-server.sock";
  net::SocketTransport server(server_config);
  ASSERT_TRUE(server.start().is_ok());

  net::Demux server_demux;
  ASSERT_TRUE(server.register_node(NodeId{1}, server_demux.as_handler())
                  .is_ok());
  IdGenerator server_ids(1ull << 40);
  rpc::RpcEndpoint server_rpc(server, server_demux, NodeId{1}, server_ids);
  server_rpc.register_method("hello.echo",
                             [](NodeId caller, Reader&)
                                 -> Result<rpc::Payload> {
                               Writer w;
                               w.put(caller.value());
                               return std::move(w).take();
                             });

  net::SocketTransportConfig observer_config;
  observer_config.self = NodeId{913};
  observer_config.listen = "unix:" + base + "-observer.sock";
  observer_config.peers[NodeId{1}] = server_config.listen;
  net::SocketTransport observer(observer_config);
  ASSERT_TRUE(observer.start().is_ok());

  net::Demux observer_demux;
  ASSERT_TRUE(observer
                  .register_node(NodeId{913}, observer_demux.as_handler())
                  .is_ok());
  IdGenerator observer_ids(913ull << 40);
  rpc::RpcEndpoint observer_rpc(observer, observer_demux, NodeId{913},
                                observer_ids);
  ASSERT_TRUE(observer.wait_for_peers(1, 10s));

  auto reply = observer_rpc.call(NodeId{1}, "hello.echo", {}, 10s);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  Reader r(std::move(reply).value());
  EXPECT_EQ(r.get<std::uint64_t>(), 913u);

  // The endpoints die before their transports: unregister first, which waits
  // out a delivery batch still running, so no late frame reaches them.
  EXPECT_TRUE(observer.unregister_node(NodeId{913}).is_ok());
  EXPECT_TRUE(server.unregister_node(NodeId{1}).is_ok());
}

}  // namespace
}  // namespace doct

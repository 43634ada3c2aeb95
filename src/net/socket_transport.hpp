// Real-socket Transport backend: one local node per instance, speaking the
// versioned wire format (net/wire.hpp) over Unix-domain or TCP stream
// sockets.  This is what lets a runtime::Cluster span OS processes.
//
// Topology: every pair of nodes uses TWO simplex connections — each side
// dials the other's listen address for its outbound traffic and accepts the
// peer's dial for inbound.  Dial-only outbound means reconnect logic lives
// entirely on the writer side (no connection "glare" to arbitrate), and an
// accepted connection identifies its sender with a HELLO control frame
// before any data flows.
//
// Threads owned by one instance:
//   * per-peer writer   dials with exponential backoff, sends HELLO (version
//                       window + node id + multicast-group snapshot), then
//                       drains a bounded lock-free MPSC outbox mailbox
//                       with gathered {header, payload} writes — a
//                       broadcast's legs all reference the one SharedPayload
//                       buffer.  Frames a
//                       write error left undelivered stay in the writer's
//                       local staging deque, so the next connection retries
//                       them in order before touching the outbox again.
//   * accept + readers  one reader per accepted connection, each owning a
//                       wire::FrameDecoder.  Control frames (kind >= 0xFF00)
//                       are consumed by the transport; data frames go to the
//                       delivery queue.  A poisoned decoder tears the
//                       connection down — stream framing is unrecoverable
//                       after corruption — and the peer's dialer re-
//                       establishes it.
//   * delivery          a single thread drains the inbound queue and runs
//                       the registered handler one message at a time,
//                       preserving the simulator's serialized-handler-per-
//                       node contract.
//
// Loss semantics match the Transport contract: Ok from send() means
// "accepted".  While a peer is unreachable, frames queue up to
// pending_capacity and further sends are dropped (counted in stats) — the
// rpc retry layer owns reliability, and its CallId dedup makes
// retransmissions that straddle a reconnect idempotent.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/inline.hpp"
#include "common/mpsc_queue.hpp"
#include "common/result.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace doct::net {

// "unix:/path/to.sock" or "tcp:host:port".
struct SocketAddress {
  enum class Family { kUnix, kTcp };
  Family family = Family::kUnix;
  std::string path;  // unix
  std::string host;  // tcp
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static Result<SocketAddress> parse(const std::string& text);
};

struct SocketTransportConfig {
  NodeId self;
  // Address this node binds and accepts on.  "tcp:127.0.0.1:0" binds an
  // ephemeral port; listen_address() reports the real one after start().
  std::string listen;
  // Static mesh: peer node -> its listen address.  May also be filled in
  // after start() via set_peers() (the bind-then-exchange two-phase setup
  // ephemeral TCP ports require).
  std::map<NodeId, std::string> peers;
  Duration reconnect_backoff_initial{std::chrono::milliseconds(10)};
  Duration reconnect_backoff_max{std::chrono::seconds(1)};
  // Outbound frames queued per disconnected/slow peer before sends drop.
  std::size_t pending_capacity = 4096;
  // Inbound messages queued ahead of the delivery thread before drops.
  std::size_t inbound_capacity = 65536;
  std::size_t max_frame_payload = 0;  // 0 = wire::kMaxPayloadBytes
};

class SocketTransport final : public Transport {
 public:
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t dropped_backpressure = 0;  // pending deque full
    std::uint64_t dropped_inbound = 0;       // delivery queue full
    std::uint64_t dropped_no_peer = 0;       // destination not in the mesh
    std::uint64_t decode_errors = 0;         // poisoned streams torn down
    std::uint64_t rejected_version = 0;      // HELLO window mismatch
  };

  explicit SocketTransport(SocketTransportConfig config);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Binds the listen address and spawns the accept/delivery/writer threads.
  Status start();
  void stop();

  // The bound address in parseable form ("tcp:127.0.0.1:41623"), valid after
  // start(); for an ephemeral-port bind this is how peers learn the port.
  [[nodiscard]] std::string listen_address() const;

  // Adds (or replaces) one peer / the whole mesh.  Safe after start().
  void add_peer(NodeId node, const std::string& address);
  void set_peers(const std::map<NodeId, std::string>& peers);

  // Peers whose outbound connection is currently established.
  [[nodiscard]] std::size_t connected_peers() const;
  // Blocks until at least `count` peers are connected (HELLO sent).
  bool wait_for_peers(std::size_t count, Duration timeout);
  // Blocks until every peer's pending deque is empty (best effort).
  bool flush(Duration timeout);

  // Chaos/test hook: tears down every ESTABLISHED inbound connection.  The
  // peers' dialers hit the dead sockets, back off, and redial — the same
  // path a real connection loss takes.  A frame a sender had already written
  // into a torn socket is lost (datagram semantics); rpc's retry + CallId
  // dedup make that invisible one layer up.
  void drop_connections();

  [[nodiscard]] Stats stats() const;

  // Transport interface.  register_node accepts only the configured self
  // node: a socket transport hosts exactly one node per process.
  Status register_node(NodeId node, MessageHandler handler) override;
  Status unregister_node(NodeId node) override;
  Status send(Message message) override;
  Status broadcast(Message message) override;
  Status create_multicast_group(GroupId group) override;
  Status remove_multicast_group(GroupId group) override;
  Status join(GroupId group, NodeId node) override;
  Status leave(GroupId group, NodeId node) override;
  Status multicast(GroupId group, Message message) override;
  [[nodiscard]] std::vector<NodeId> nodes() const override;

 private:
  struct Peer {
    NodeId id;
    std::string address;

    // Outbound frames: senders push lock-free, the writer thread drains in
    // batches.  Closed by stop().  Frames the writer has harvested but not
    // yet written live in its local staging deque; `queued` counts both
    // (outbox + staging) so flush() sees the whole backlog.
    common::Mailbox<Message> outbox;
    std::atomic<std::uint64_t> queued{0};

    // Dial/backoff/lifecycle state only — the data path never takes mu.
    std::mutex mu;
    std::condition_variable cv;
    bool connected = false;
    bool stopping = false;
    std::thread writer;
  };

  struct Connection {
    int fd = -1;
    std::thread reader;
  };

  void writer_loop(Peer& peer);
  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void delivery_loop();

  // Queues one frame on a peer's writer, applying pending_capacity.
  void enqueue(Peer& peer, Message message);
  // Routes a control frame (HELLO / group join / leave) arriving on `fd`.
  // Returns false when the connection must be dropped (version mismatch).
  bool handle_control(const Message& message);
  // HELLO body for the current group membership snapshot.
  [[nodiscard]] std::vector<std::uint8_t> hello_payload() const;
  // Announces a local join/leave to every peer.
  void announce_group(std::uint16_t kind, GroupId group);
  void stamp_outgoing(Message& message) const;
  void note_transit(const Message& message);

  SocketTransportConfig config_;
  std::size_t max_payload_;

  mutable std::mutex peers_mu_;
  std::map<NodeId, std::unique_ptr<Peer>> peers_;

  // group -> member nodes; local joins are announced, remote ones replicated
  // via control frames.  Guarded by groups_mu_.
  mutable std::mutex groups_mu_;
  std::map<GroupId, std::set<NodeId>> groups_;

  mutable std::mutex handler_mu_;
  MessageHandler handler_;
  bool node_registered_ = false;
  // Held by the delivery thread while it runs a batch; unregister_node takes
  // it to wait out a batch still calling the old handler.
  std::mutex delivery_mu_;

  common::Mailbox<Message> inbound_;
  std::thread delivery_;

  int listen_fd_ = -1;
  std::string bound_address_;
  std::string unix_path_;  // unlinked on stop
  std::thread acceptor_;

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::atomic<bool> running_{false};

  // One counter per cache line: concurrent senders and per-connection
  // readers bump these on every frame.
  struct AtomicStats {
    common::PaddedCounter sent;
    common::PaddedCounter delivered;
    common::PaddedCounter bytes_sent;
    common::PaddedCounter reconnects;
    common::PaddedCounter dropped_backpressure;
    common::PaddedCounter dropped_inbound;
    common::PaddedCounter dropped_no_peer;
    common::PaddedCounter decode_errors;
    common::PaddedCounter rejected_version;
  };
  mutable AtomicStats stats_;

  obs::Histogram* transit_us_ = nullptr;  // same receive-side hook as Network
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace doct::net

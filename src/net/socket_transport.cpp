#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/log.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"

namespace doct::net {

namespace {

void inc(common::PaddedCounter& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// Bounds-checked little-endian reads over a control-frame payload; `ok`
// latches false on the first short read so callers can validate once at the
// end instead of per-field.
struct PayloadReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > size) { ok = false; return 0; }
    return data[pos++];
  }
  std::uint32_t u32() {
    if (pos + 4 > size) { ok = false; return 0; }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data[pos + i]} << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (pos + 8 > size) { ok = false; return 0; }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data[pos + i]} << (8 * i);
    pos += 8;
    return v;
  }
};

int dial(const SocketAddress& addr) {
  if (addr.family == SocketAddress::Family::kUnix) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) return -1;
    std::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(addr.port);
  if (::getaddrinfo(addr.host.c_str(), port.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    int one = 1;
    // Latency over batching for the RPC round-trip path; ignored on AF_UNIX.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

// Writes the whole frame — gathered {header, payload} so the payload bytes
// are never copied into a contiguous frame buffer.  Handles partial writes
// by advancing the iovec; MSG_NOSIGNAL turns a dead peer into an error
// return instead of SIGPIPE.
bool write_frame(int fd, const Message& message) {
  const wire::EncodedHeader header = wire::encode_header(message);
  iovec iov[2];
  iov[0].iov_base = const_cast<std::uint8_t*>(header.bytes.data());
  iov[0].iov_len = header.size;
  iov[1].iov_base = const_cast<std::uint8_t*>(message.payload.data());
  iov[1].iov_len = message.payload.size();
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = message.payload.empty() ? 1 : 2;
  std::size_t remaining = header.size + message.payload.size();
  while (remaining > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    remaining -= static_cast<std::size_t>(n);
    std::size_t advanced = static_cast<std::size_t>(n);
    while (advanced > 0 && msg.msg_iovlen > 0) {
      if (advanced >= msg.msg_iov[0].iov_len) {
        advanced -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<std::uint8_t*>(msg.msg_iov[0].iov_base) + advanced;
        msg.msg_iov[0].iov_len -= advanced;
        advanced = 0;
      }
    }
  }
  return true;
}

}  // namespace

std::string SocketAddress::to_string() const {
  if (family == Family::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Result<SocketAddress> SocketAddress::parse(const std::string& text) {
  SocketAddress addr;
  if (text.rfind("unix:", 0) == 0) {
    addr.family = Family::kUnix;
    addr.path = text.substr(5);
    if (addr.path.empty()) {
      return Status{StatusCode::kInvalidArgument, "empty unix socket path"};
    }
    return addr;
  }
  if (text.rfind("tcp:", 0) == 0) {
    addr.family = Family::kTcp;
    const std::string rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return Status{StatusCode::kInvalidArgument,
                    "expected tcp:host:port, got " + text};
    }
    addr.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    int port = 0;
    for (char c : port_text) {
      if (c < '0' || c > '9') port = -1;
      if (port >= 0) port = port * 10 + (c - '0');
      if (port > 65535) port = -1;
    }
    if (port_text.empty() || port < 0) {
      return Status{StatusCode::kInvalidArgument, "bad port in " + text};
    }
    addr.port = static_cast<std::uint16_t>(port);
    return addr;
  }
  return Status{StatusCode::kInvalidArgument,
                "address must start with unix: or tcp:, got " + text};
}

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)),
      max_payload_(config_.max_frame_payload != 0 ? config_.max_frame_payload
                                                  : wire::kMaxPayloadBytes) {
  transit_us_ = &obs::metrics().histogram("net.transit_us");
  metrics_source_ =
      obs::metrics().register_source("net.socket", [this] {
        const Stats s = stats();
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"sent", s.sent},
            {"delivered", s.delivered},
            {"bytes_sent", s.bytes_sent},
            {"reconnects", s.reconnects},
            {"dropped_backpressure", s.dropped_backpressure},
            {"dropped_inbound", s.dropped_inbound},
            {"dropped_no_peer", s.dropped_no_peer},
            {"decode_errors", s.decode_errors},
            {"rejected_version", s.rejected_version},
        };
      });
}

SocketTransport::~SocketTransport() { stop(); }

Status SocketTransport::start() {
  auto parsed = SocketAddress::parse(config_.listen);
  if (!parsed.is_ok()) return parsed.status();
  const SocketAddress addr = std::move(parsed).value();

  if (addr.family == SocketAddress::Family::kUnix) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) {
      return {StatusCode::kInvalidArgument,
              "unix socket path too long: " + addr.path};
    }
    std::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    ::unlink(addr.path.c_str());  // stale socket from a previous run
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string err = std::strerror(errno);
      if (listen_fd_ >= 0) ::close(listen_fd_);
      listen_fd_ = -1;
      return {StatusCode::kInternal, "bind " + addr.to_string() + ": " + err};
    }
    unix_path_ = addr.path;
    bound_address_ = addr.to_string();
  } else {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
      return {StatusCode::kInvalidArgument,
              "listen host must be a numeric IPv4 address: " + addr.host};
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    if (listen_fd_ >= 0) {
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string err = std::strerror(errno);
      if (listen_fd_ >= 0) ::close(listen_fd_);
      listen_fd_ = -1;
      return {StatusCode::kInternal, "bind " + addr.to_string() + ": " + err};
    }
    // Ephemeral-port bind: report the port the kernel actually assigned so
    // the driver can hand it to peers.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    SocketAddress actual = addr;
    actual.port = ntohs(bound.sin_port);
    bound_address_ = actual.to_string();
  }

  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  delivery_ = std::thread([this] { delivery_loop(); });
  set_peers(config_.peers);
  return Status::ok();
}

void SocketTransport::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // Wake the acceptor: shutdown (not just close) reliably unblocks a
  // concurrent accept(2) on Linux.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());

  // Wake every reader mid-recv, then join.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }

  // Writers: datagram semantics, so pending frames are abandoned, not
  // flushed (callers wanting a clean drain call flush() first).
  std::vector<std::unique_ptr<Peer>> peers;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (auto& [id, peer] : peers_) peers.push_back(std::move(peer));
    peers_.clear();
  }
  for (auto& peer : peers) {
    {
      std::lock_guard<std::mutex> lock(peer->mu);
      peer->stopping = true;
    }
    peer->outbox.close();  // unblocks a writer parked in pop_all()
    peer->cv.notify_all();
    if (peer->writer.joinable()) peer->writer.join();
  }

  inbound_.close();
  if (delivery_.joinable()) delivery_.join();
}

std::string SocketTransport::listen_address() const { return bound_address_; }

void SocketTransport::add_peer(NodeId node, const std::string& address) {
  if (node == config_.self) return;
  std::lock_guard<std::mutex> lock(peers_mu_);
  auto it = peers_.find(node);
  if (it != peers_.end()) return;  // mesh addresses are set once
  auto peer = std::make_unique<Peer>();
  peer->id = node;
  peer->address = address;
  Peer* raw = peer.get();
  peers_.emplace(node, std::move(peer));
  raw->writer = std::thread([this, raw] { writer_loop(*raw); });
}

void SocketTransport::set_peers(const std::map<NodeId, std::string>& peers) {
  for (const auto& [node, address] : peers) add_peer(node, address);
}

std::size_t SocketTransport::connected_peers() const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  std::size_t count = 0;
  for (const auto& [id, peer] : peers_) {
    std::lock_guard<std::mutex> peer_lock(peer->mu);
    if (peer->connected) ++count;
  }
  return count;
}

bool SocketTransport::wait_for_peers(std::size_t count, Duration timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (connected_peers() < count) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

bool SocketTransport::flush(Duration timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    bool drained = true;
    {
      std::lock_guard<std::mutex> lock(peers_mu_);
      for (const auto& [id, peer] : peers_) {
        // `queued` covers the outbox AND the writer's local staging deque.
        if (peer->queued.load(std::memory_order_acquire) != 0) {
          drained = false;
        }
      }
    }
    if (drained) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void SocketTransport::drop_connections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
}

SocketTransport::Stats SocketTransport::stats() const {
  Stats s;
  s.sent = stats_.sent.load(std::memory_order_relaxed);
  s.delivered = stats_.delivered.load(std::memory_order_relaxed);
  s.bytes_sent = stats_.bytes_sent.load(std::memory_order_relaxed);
  s.reconnects = stats_.reconnects.load(std::memory_order_relaxed);
  s.dropped_backpressure =
      stats_.dropped_backpressure.load(std::memory_order_relaxed);
  s.dropped_inbound = stats_.dropped_inbound.load(std::memory_order_relaxed);
  s.dropped_no_peer = stats_.dropped_no_peer.load(std::memory_order_relaxed);
  s.decode_errors = stats_.decode_errors.load(std::memory_order_relaxed);
  s.rejected_version = stats_.rejected_version.load(std::memory_order_relaxed);
  return s;
}

Status SocketTransport::register_node(NodeId node, MessageHandler handler) {
  if (node != config_.self) {
    return {StatusCode::kInvalidArgument,
            "socket transport hosts only " + config_.self.to_string()};
  }
  std::lock_guard<std::mutex> lock(handler_mu_);
  if (node_registered_) {
    return {StatusCode::kAlreadyExists, node.to_string()};
  }
  handler_ = std::move(handler);
  node_registered_ = true;
  return Status::ok();
}

Status SocketTransport::unregister_node(NodeId node) {
  if (node != config_.self) {
    return {StatusCode::kNoSuchNode, node.to_string()};
  }
  {
    std::lock_guard<std::mutex> lock(handler_mu_);
    node_registered_ = false;
    handler_ = nullptr;
  }
  // Like the simulator's unregister: once this returns, no handler call is
  // in flight, so the caller may tear the node down.
  std::lock_guard<std::mutex> drain(delivery_mu_);
  return Status::ok();
}

Status SocketTransport::send(Message message) {
  inc(stats_.sent);
  stamp_outgoing(message);
  if (message.to == config_.self) {
    // Loopback goes through the same delivery queue as remote traffic so the
    // serialized-handler contract holds regardless of source.
    if (inbound_.push_bounded(std::move(message), config_.inbound_capacity) !=
        common::Mailbox<Message>::PushResult::kOk) {
      inc(stats_.dropped_inbound);
    }
    return Status::ok();
  }
  std::lock_guard<std::mutex> lock(peers_mu_);
  auto it = peers_.find(message.to);
  if (it == peers_.end()) {
    inc(stats_.dropped_no_peer);
    return {StatusCode::kNoSuchNode, message.to.to_string()};
  }
  enqueue(*it->second, std::move(message));
  return Status::ok();
}

Status SocketTransport::broadcast(Message message) {
  stamp_outgoing(message);  // one stamp shared by all legs
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (auto& [id, peer] : peers_) {
    if (id == message.from) continue;
    Message copy = message;  // shares the payload buffer
    copy.to = id;
    inc(stats_.sent);
    enqueue(*peer, std::move(copy));
  }
  return Status::ok();
}

Status SocketTransport::create_multicast_group(GroupId group) {
  std::lock_guard<std::mutex> lock(groups_mu_);
  auto [it, inserted] = groups_.try_emplace(group);
  (void)it;
  if (!inserted) return {StatusCode::kAlreadyExists, group.to_string()};
  return Status::ok();
}

Status SocketTransport::remove_multicast_group(GroupId group) {
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    if (groups_.erase(group) == 0) {
      return {StatusCode::kNoSuchGroup, group.to_string()};
    }
  }
  // Peers hold replicas of every group this node joined; drop them too.
  announce_group(wire::kCtrlGroupRemove, group);
  return Status::ok();
}

Status SocketTransport::join(GroupId group, NodeId node) {
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    auto it = groups_.find(group);
    if (it == groups_.end()) {
      return {StatusCode::kNoSuchGroup, group.to_string()};
    }
    it->second.insert(node);
  }
  if (node == config_.self) announce_group(wire::kCtrlGroupJoin, group);
  return Status::ok();
}

Status SocketTransport::leave(GroupId group, NodeId node) {
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    auto it = groups_.find(group);
    if (it == groups_.end()) {
      return {StatusCode::kNoSuchGroup, group.to_string()};
    }
    it->second.erase(node);
  }
  if (node == config_.self) announce_group(wire::kCtrlGroupLeave, group);
  return Status::ok();
}

Status SocketTransport::multicast(GroupId group, Message message) {
  std::vector<NodeId> members;
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    auto it = groups_.find(group);
    if (it == groups_.end()) {
      return {StatusCode::kNoSuchGroup, group.to_string()};
    }
    members.assign(it->second.begin(), it->second.end());
  }
  stamp_outgoing(message);
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (NodeId member : members) {
    if (member == message.from) continue;
    auto it = peers_.find(member);
    if (it == peers_.end()) {
      if (member == config_.self) {
        Message copy = message;
        copy.to = member;
        inc(stats_.sent);
        if (inbound_.push_bounded(std::move(copy), config_.inbound_capacity) !=
            common::Mailbox<Message>::PushResult::kOk) {
          inc(stats_.dropped_inbound);
        }
      }
      continue;
    }
    Message copy = message;
    copy.to = member;
    inc(stats_.sent);
    enqueue(*it->second, std::move(copy));
  }
  return Status::ok();
}

std::vector<NodeId> SocketTransport::nodes() const {
  std::vector<NodeId> out{config_.self};
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (const auto& [id, peer] : peers_) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SocketTransport::enqueue(Peer& peer, Message message) {
  const std::size_t bytes = message.payload.size();
  // Count before pushing so `queued` never under-reads the real backlog
  // (the writer may drain and decrement the instant the push lands).
  peer.queued.fetch_add(1, std::memory_order_acq_rel);
  switch (peer.outbox.push_bounded(std::move(message),
                                   config_.pending_capacity)) {
    case common::Mailbox<Message>::PushResult::kOk:
      inc(stats_.bytes_sent, bytes);
      break;
    case common::Mailbox<Message>::PushResult::kFull:
      peer.queued.fetch_sub(1, std::memory_order_relaxed);
      inc(stats_.dropped_backpressure);
      break;  // datagram semantics: loss is silent
    case common::Mailbox<Message>::PushResult::kClosed:
      peer.queued.fetch_sub(1, std::memory_order_relaxed);
      break;  // stopping
  }
}

std::vector<std::uint8_t> SocketTransport::hello_payload() const {
  // u8 min_version, u8 version, u64 node, u32 n, n x u64 group ids this node
  // is currently a member of — the snapshot a reconnecting peer needs to
  // rebuild its sender-side membership map.
  std::vector<std::uint8_t> out;
  out.push_back(wire::kMinVersion);
  out.push_back(wire::kVersion);
  put_u64(out, config_.self.value());
  std::vector<std::uint64_t> member_of;
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    for (const auto& [group, members] : groups_) {
      if (members.contains(config_.self)) member_of.push_back(group.value());
    }
  }
  put_u32(out, static_cast<std::uint32_t>(member_of.size()));
  for (std::uint64_t group : member_of) put_u64(out, group);
  // v1-compatible trailing extension (v1 readers ignore bytes past the
  // group list): the sender's listen address.  A receiver that does not
  // know this peer — a doct-top observer attaching to the mesh — adds it
  // and thereby gains a reply path for RPC responses.
  put_u32(out, static_cast<std::uint32_t>(bound_address_.size()));
  for (const char c : bound_address_) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  return out;
}

void SocketTransport::announce_group(std::uint16_t kind, GroupId group) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, group.value());
  Message announce;
  announce.from = config_.self;
  announce.kind = kind;
  announce.payload = SharedPayload{std::move(payload)};
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (auto& [id, peer] : peers_) {
    Message copy = announce;
    copy.to = id;
    enqueue(*peer, std::move(copy));
  }
}

bool SocketTransport::handle_control(const Message& message) {
  PayloadReader reader{message.payload.data(), message.payload.size()};
  switch (message.kind) {
    case wire::kCtrlHello: {
      const std::uint8_t peer_min = reader.u8();
      const std::uint8_t peer_max = reader.u8();
      const std::uint64_t node = reader.u64();
      const std::uint32_t ngroups = reader.u32();
      if (!reader.ok) return false;
      // Version windows must overlap — a peer that can only speak versions
      // newer than ours (or vice versa) gets its connection dropped, and its
      // dialer's backoff turns that into a visible reconnect loop rather
      // than silent garbled traffic.
      if (peer_min > wire::kVersion || peer_max < wire::kMinVersion) {
        inc(stats_.rejected_version);
        DOCT_LOG(kWarn) << "socket: rejecting " << NodeId{node}.to_string()
                        << " hello: version window [" << int{peer_min} << ","
                        << int{peer_max} << "] does not overlap ours";
        return false;
      }
      {
        std::lock_guard<std::mutex> lock(groups_mu_);
        for (std::uint32_t i = 0; i < ngroups; ++i) {
          const std::uint64_t group = reader.u64();
          if (!reader.ok) return false;
          groups_[GroupId{group}].insert(NodeId{node});
        }
      }
      // Optional trailing extension: the sender's listen address.  Unknown
      // senders (observer processes outside the configured mesh) become
      // peers so replies to them have somewhere to go; configured mesh
      // members keep their addresses (add_peer is first-write-wins).
      if (reader.pos + 4 <= reader.size) {
        const std::uint32_t len = reader.u32();
        if (reader.ok && len > 0 && len <= 512 &&
            reader.pos + len <= reader.size) {
          const std::string address(
              reinterpret_cast<const char*>(reader.data + reader.pos), len);
          add_peer(NodeId{node}, address);
        }
      }
      return true;
    }
    case wire::kCtrlGroupJoin:
    case wire::kCtrlGroupLeave:
    case wire::kCtrlGroupRemove: {
      const std::uint64_t group = reader.u64();
      if (!reader.ok) return false;
      std::lock_guard<std::mutex> lock(groups_mu_);
      if (message.kind == wire::kCtrlGroupJoin) {
        groups_[GroupId{group}].insert(message.from);
      } else if (message.kind == wire::kCtrlGroupRemove) {
        groups_.erase(GroupId{group});
      } else {
        auto it = groups_.find(GroupId{group});
        if (it != groups_.end()) it->second.erase(message.from);
      }
      return true;
    }
    default:
      // Unknown control kind from a same-version peer: ignore, keep stream.
      return true;
  }
}

void SocketTransport::stamp_outgoing(Message& message) const {
  if ((obs::tracing_enabled() || obs::metrics_enabled()) &&
      message.sent_at_us == 0) {
    message.sent_at_us = obs::now_us();
  }
}

void SocketTransport::note_transit(const Message& message) {
  // Receive-side transit attribution, same shape as Network::note_transit.
  // steady-clock stamps are comparable across processes on one machine.
  if (message.sent_at_us == 0) return;
  const std::int64_t now = obs::now_us();
  const std::int64_t transit =
      now > message.sent_at_us ? now - message.sent_at_us : 0;
  if (obs::metrics_enabled()) {
    transit_us_->record_us(transit);
  }
  obs::record_span("wire", message.to.value(),
                   obs::TraceContext{message.trace_id, message.span_id},
                   message.sent_at_us, transit);
}

void SocketTransport::writer_loop(Peer& peer) {
  auto parsed = SocketAddress::parse(peer.address);
  if (!parsed.is_ok()) {
    DOCT_LOG(kError) << "socket: bad peer address for " << peer.id.to_string()
                     << ": " << parsed.status().to_string();
    return;
  }
  const SocketAddress addr = std::move(parsed).value();
  Duration backoff = config_.reconnect_backoff_initial;
  int fd = -1;
  bool ever_connected = false;
  // Frames harvested from the outbox but not yet on the wire.  A write
  // failure leaves the unsent frame (and everything behind it) here, so the
  // next connection retries them in order — no front-requeue into the
  // producers' queue.
  std::deque<Message> staging;

  auto disconnect = [&] {
    if (fd >= 0) ::close(fd);
    fd = -1;
    std::lock_guard<std::mutex> lock(peer.mu);
    peer.connected = false;
  };

  while (true) {
    {
      std::lock_guard<std::mutex> lock(peer.mu);
      if (peer.stopping) break;
    }
    if (fd < 0) {
      fd = dial(addr);
      if (fd < 0) {
        // Exponential backoff between dial attempts, interruptible by stop.
        std::unique_lock<std::mutex> lock(peer.mu);
        peer.cv.wait_for(lock, backoff, [&] { return peer.stopping; });
        backoff = std::min(backoff * 2, config_.reconnect_backoff_max);
        continue;
      }
      backoff = config_.reconnect_backoff_initial;
      if (ever_connected) inc(stats_.reconnects);
      ever_connected = true;
      // Every (re)connection opens with a HELLO: version window + identity +
      // membership snapshot, so the peer can re-learn state lost with the
      // previous stream.
      Message hello;
      hello.from = config_.self;
      hello.to = peer.id;
      hello.kind = wire::kCtrlHello;
      hello.payload = SharedPayload{hello_payload()};
      if (!write_frame(fd, hello)) {
        disconnect();
        continue;
      }
      std::lock_guard<std::mutex> lock(peer.mu);
      peer.connected = true;
    }

    if (staging.empty()) {
      // Blocks until producers push (one coalesced wakeup per burst) or
      // stop() closes the outbox; empty batch == closed-and-drained.
      std::deque<Message> batch = peer.outbox.pop_all();
      if (batch.empty()) break;
      staging = std::move(batch);
    }
    while (!staging.empty()) {
      if (!write_frame(fd, staging.front())) {
        // Not delivered: keep it (and the rest of the batch) staged for the
        // next connection, in order.
        disconnect();
        break;
      }
      staging.pop_front();
      peer.queued.fetch_sub(1, std::memory_order_release);
    }
  }
  if (fd >= 0) ::close(fd);
}

void SocketTransport::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void SocketTransport::reader_loop(std::shared_ptr<Connection> conn) {
  wire::FrameDecoder decoder(max_payload_);
  std::vector<std::uint8_t> buf(64 * 1024);
  bool drop = false;
  while (!drop) {
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: peer's dialer owns re-establishment
    if (!decoder.feed(buf.data(), static_cast<std::size_t>(n)).is_ok()) {
      // Corrupted stream framing is unrecoverable: count it and tear the
      // connection down; the peer redials with a fresh stream.
      inc(stats_.decode_errors);
      DOCT_LOG(kWarn) << "socket: dropping connection: "
                      << decoder.error().to_string();
      break;
    }
    while (auto message = decoder.next()) {
      if (wire::is_control_kind(message->kind)) {
        if (!handle_control(*message)) {
          drop = true;
          break;
        }
      } else if (inbound_.push_bounded(std::move(*message),
                                       config_.inbound_capacity) !=
                 common::Mailbox<Message>::PushResult::kOk) {
        inc(stats_.dropped_inbound);
      }
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
}

void SocketTransport::delivery_loop() {
  // Single consumer: handlers run one message at a time, same contract as
  // the simulator's per-node delivery thread.
  while (true) {
    std::deque<Message> batch = inbound_.pop_all();
    if (batch.empty()) return;
    std::lock_guard<std::mutex> running(delivery_mu_);
    MessageHandler handler;
    {
      std::lock_guard<std::mutex> lock(handler_mu_);
      if (node_registered_) handler = handler_;
    }
    for (Message& message : batch) {
      note_transit(message);
      if (handler) {
        handler(message);
        inc(stats_.delivered);
      } else {
        inc(stats_.dropped_inbound);  // no local node registered yet
      }
    }
  }
}

}  // namespace doct::net

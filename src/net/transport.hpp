// Pluggable node-to-node transport.
//
// Exactly the surface the node stack (rpc, kernel, events, health, runtime)
// needs from a network: node registration, the three §7.1 primitives
// (point-to-point send, broadcast, multicast groups), and the membership
// roll-call kernel census sizing uses.  Two backends implement it:
//
//   * net::Network          — the in-process simulator: deterministic wire
//     timing, fault injection, partitions, quiesce().  Every existing test
//     and chaos/stress suite runs on it unchanged.
//   * net::SocketTransport  — real sockets (Unix-domain or TCP): one local
//     node per instance, framed writev I/O in the versioned wire format
//     (net/wire.hpp), per-peer reconnect with backoff.  This is what lets a
//     runtime::Cluster span OS processes.
//
// Semantics shared by both backends (callers may rely on nothing more):
//   * datagram delivery: Ok from send() means "accepted", not "delivered" —
//     messages can still be lost (faults, disconnection, backpressure), and
//     loss is silent.  Retry layers (rpc) own reliability.
//   * handlers run on a transport-owned delivery thread, one message at a
//     time per local node, never on the sender's stack.
//   * broadcast() and multicast() skip the sending node.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "net/message.hpp"

namespace doct::net {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Status register_node(NodeId node, MessageHandler handler) = 0;
  virtual Status unregister_node(NodeId node) = 0;

  virtual Status send(Message message) = 0;
  virtual Status broadcast(Message message) = 0;

  virtual Status create_multicast_group(GroupId group) = 0;
  // Deletes the group with its members; kNoSuchGroup if it does not exist.
  // leave() keeps an emptied group (a multicast to it is still ok), so a
  // caller that is done with a group for good removes it.
  virtual Status remove_multicast_group(GroupId group) = 0;
  virtual Status join(GroupId group, NodeId node) = 0;
  virtual Status leave(GroupId group, NodeId node) = 0;
  virtual Status multicast(GroupId group, Message message) = 0;

  // Known cluster membership, sorted.  The simulator reports registered
  // nodes; the socket backend reports the configured mesh (self + peers),
  // whether or not a peer is currently reachable — census-style callers pair
  // this with the failure detector's note_peer_down fast path.
  [[nodiscard]] virtual std::vector<NodeId> nodes() const = 0;
};

}  // namespace doct::net

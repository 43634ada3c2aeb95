// Versioned binary wire format for net::Message.
//
// Every message that crosses a process boundary is framed as:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     4  magic        0xD0C7A5E1, little-endian ("is this doct?")
//        4     1  version      kVersion; peers reject frames outside
//                              [kMinVersion, kVersion] and drop the stream
//        5     1  flags        bit 0 (kFlagTrace): trace extension present
//        6     2  kind         MessageKind (subsystem-namespaced, u16)
//        8     8  from         sender NodeId
//       16     8  to           destination NodeId
//       24     8  call         correlation CallId (0 for one-way traffic)
//       32     8  sent_at_us   sender CLOCK_MONOTONIC stamp (0 = obs off)
//       40     4  payload_len  body length-prefix; bounded by max_payload
//       44    16  [trace]      trace_id u64 + span_id u64, iff kFlagTrace
//        .     .  payload      payload_len opaque bytes
//
// Integers are little-endian.  The trace extension is optional so the
// tracing-off hot path pays zero extra wire bytes; flag bits other than
// kFlagTrace are reserved and MUST be zero in v1 (a decoder that sees one
// rejects the frame — v1 has no concept of ignorable extensions, so a
// future version that adds some must bump `version`).
//
// The send path never copies the payload: encode_header() renders the fixed
// part into a stack buffer and the socket transport writes
// {header, payload.data()} with writev, so a broadcast's legs all reference
// the one SharedPayload buffer the fan-out already shares.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.hpp"
#include "net/message.hpp"

namespace doct::net::wire {

inline constexpr std::uint32_t kMagic = 0xD0C7A5E1;
inline constexpr std::uint8_t kVersion = 1;
// Oldest protocol version this build still speaks.  Connection handshakes
// advertise [kMinVersion, kVersion]; a peer whose window does not overlap
// ours cannot talk to us (see DESIGN.md §12 "version negotiation").
inline constexpr std::uint8_t kMinVersion = 1;

inline constexpr std::uint8_t kFlagTrace = 0x01;

inline constexpr std::size_t kHeaderBytes = 44;
inline constexpr std::size_t kTraceExtBytes = 16;
inline constexpr std::size_t kMaxHeaderBytes = kHeaderBytes + kTraceExtBytes;

// Upper bound a receiver will accept for payload_len.  Protects the decoder
// from allocating garbage lengths out of a corrupted or hostile stream.
inline constexpr std::size_t kMaxPayloadBytes = 64u << 20;  // 64 MiB

// Transport-control message kinds (handshake + multicast-group replication).
// These frames are consumed by the transport itself and never reach the node
// demux; the range is reserved here so packet traces attribute them.
inline constexpr std::uint16_t kCtrlHello = 0xFF01;
inline constexpr std::uint16_t kCtrlGroupJoin = 0xFF02;
inline constexpr std::uint16_t kCtrlGroupLeave = 0xFF03;
// Added without a version bump: older peers ignore unknown control kinds, so
// they merely keep a removed group's replica.
inline constexpr std::uint16_t kCtrlGroupRemove = 0xFF04;

[[nodiscard]] constexpr bool is_control_kind(std::uint16_t kind) {
  return kind >= 0xFF00;
}

// The fixed-size part of one frame, rendered for a writev-style send:
// write bytes[0..size), then the payload buffer.
struct EncodedHeader {
  std::array<std::uint8_t, kMaxHeaderBytes> bytes{};
  std::size_t size = 0;
};

[[nodiscard]] EncodedHeader encode_header(const Message& message);

// One contiguous frame (header + payload copy).  Tests and small control
// frames; the socket send path uses encode_header + writev instead.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& message);

// Decodes exactly one complete frame.  Rejects bad magic, unsupported
// version, reserved flags, oversized or truncated payloads, and trailing
// bytes.  Never throws; malformed input is a Status, not UB.
[[nodiscard]] Result<Message> decode(const std::vector<std::uint8_t>& frame);

// Incremental frame decoder for a byte stream: feed() socket reads in any
// chunking, pop complete messages with next().  The first malformed header
// poisons the decoder (feed/next return the error from then on) — stream
// framing is unrecoverable after corruption, so the connection owning the
// decoder must be torn down and re-established.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  Status feed(const std::uint8_t* data, std::size_t len);

  [[nodiscard]] std::optional<Message> next();

  // Bytes buffered but not yet consumed as complete messages.
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }
  [[nodiscard]] bool poisoned() const { return !error_.is_ok(); }
  [[nodiscard]] const Status& error() const { return error_; }

 private:
  // Parses frames out of buffer_[pos_..] into ready_; sets error_ on the
  // first malformed header.
  void drain();

  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  // consumed prefix of buffer_
  std::vector<Message> ready_;
  std::size_t ready_pos_ = 0;
  Status error_;
};

}  // namespace doct::net::wire

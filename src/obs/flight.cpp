#include "obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <type_traits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace doct::obs {

// A slot is the Record's bytes as atomic words; word 0 is the seq.
constexpr std::size_t kWords = sizeof(Record) / sizeof(std::uint64_t);
static_assert(sizeof(Record) == 128 && std::is_trivially_copyable_v<Record>);

struct alignas(64) FlightRecorder::Slot {
  std::atomic<std::uint64_t> word[kWords];
};

namespace {

constexpr std::size_t kDefaultRing = 65536;
// Slot seq while a writer fills the body.
constexpr std::uint64_t kBusy = ~std::uint64_t{0};

template <std::size_t N>
void copy_field(char (&dst)[N], std::string_view src) {
  const std::size_t n = std::min(src.size(), N - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = src[i];
    dst[i] = (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                 ? '.'
                 : c;
  }
  std::memset(dst + n, 0, N - n);
}

// Seqlock read of the slot expected to hold `seq`: false when the slot holds
// another record, is being written, or changed under the read.  Only atomic
// loads and memcpy, so it is safe in a signal handler.
bool read_slot(const std::atomic<std::uint64_t> (&word)[kWords],
               std::uint64_t seq, Record& out) {
  if (word[0].load(std::memory_order_acquire) != seq) return false;
  std::uint64_t body[kWords];
  body[0] = seq;
  for (std::size_t k = 1; k < kWords; ++k) {
    body[k] = word[k].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (word[0].load(std::memory_order_relaxed) != seq) return false;
  std::memcpy(&out, body, sizeof(out));
  return true;
}

// write(2) sink with a sticky error; signal-safe.
struct FdOut {
  int fd;
  bool ok = true;

  void put(const char* s) {
    std::size_t len = std::strlen(s);
    while (ok && len > 0) {
      const ssize_t n = ::write(fd, s, len);
      if (n <= 0) {
        ok = false;
        return;
      }
      s += n;
      len -= static_cast<std::size_t>(n);
    }
  }
};

// Minimal unsigned/signed decimal rendering into a caller buffer
// (snprintf is not on the async-signal-safe list; this is).
const char* format_u64(std::uint64_t v, char* buf, std::size_t cap) {
  char tmp[24];
  std::size_t i = 0;
  do {
    tmp[i++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0 && i < sizeof(tmp));
  std::size_t o = 0;
  while (i > 0 && o + 1 < cap) buf[o++] = tmp[--i];
  buf[o] = '\0';
  return buf;
}

const char* format_i64(std::int64_t v, char* buf, std::size_t cap) {
  if (v < 0 && cap > 1) {
    buf[0] = '-';
    format_u64(static_cast<std::uint64_t>(-v), buf + 1, cap - 1);
    return buf;
  }
  return format_u64(static_cast<std::uint64_t>(v), buf, cap);
}

struct sigaction g_prev_actions[NSIG];
std::atomic<bool> g_handlers_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

void crash_handler(int sig) {
  char reason[32] = "sig-";
  format_i64(sig, reason + 4, sizeof(reason) - 4);
  FlightRecorder::global().dump_signal(reason);
  // Restore the previous disposition and re-raise so the default action
  // (core dump, nonzero exit) still happens.
  if (sig > 0 && sig < NSIG) {
    ::sigaction(sig, &g_prev_actions[sig], nullptr);
  }
  ::raise(sig);
}

[[noreturn]] void terminate_handler() {
  FlightRecorder::global().dump_signal("terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void Record::set_name(std::string_view text) { copy_field(name, text); }

void Record::set_detail(std::string_view text) { copy_field(detail, text); }

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = new FlightRecorder();  // never destroyed
  return *instance;
}

void FlightRecorder::reserve(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.load(std::memory_order_relaxed) != nullptr) return;
  if (capacity == 0) {
    if (const char* env = std::getenv("DOCT_FLIGHT_RING")) {
      capacity = std::strtoull(env, nullptr, 10);
    }
    if (capacity == 0) capacity = kDefaultRing;
  }
  capacity_ = capacity;
  ring_.store(new Slot[capacity](), std::memory_order_release);
}

void FlightRecorder::configure(std::uint64_t node, std::string dir,
                               std::size_t capacity) {
  reserve(capacity);
  {
    std::lock_guard<std::mutex> lock(mu_);
    dir_ = std::move(dir);
  }
  node_.store(node, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

bool FlightRecorder::configure_from_env(std::uint64_t node) {
  const char* dir = std::getenv("DOCT_FLIGHT_DIR");
  if (dir == nullptr || *dir == '\0') return enabled();
  configure(node, dir);
  return true;
}

std::size_t FlightRecorder::capacity() const {
  return ring_.load(std::memory_order_acquire) != nullptr ? capacity_ : 0;
}

std::uint64_t FlightRecorder::dropped_total() const {
  const std::uint64_t head = noted_total();
  const std::size_t cap = capacity();
  return head > cap ? head - cap : 0;
}

void FlightRecorder::note(const char* kind, std::string_view detail,
                          std::uint64_t a, std::uint64_t b) {
  if (!enabled()) return;
  Record record;
  record.start_us = now_us();
  record.node = a;
  record.track = b;
  record.set_name(kind);
  record.set_detail(detail);
  write(record);
}

void FlightRecorder::write(const Record& record) {
  Slot* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto& word = ring[(seq - 1) % capacity_].word;
  // Claim the slot.  It is busy (kBusy is above every seq) or holds a newer
  // lap only when this writer fell a whole lap behind: drop the record
  // rather than mix two bodies.
  std::uint64_t held = word[0].load(std::memory_order_relaxed);
  if (held > seq ||
      !word[0].compare_exchange_strong(held, kBusy,
                                       std::memory_order_relaxed)) {
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);
  std::uint64_t body[kWords];
  std::memcpy(body, &record, sizeof(body));
  for (std::size_t k = 1; k < kWords; ++k) {
    word[k].store(body[k], std::memory_order_relaxed);
  }
  word[0].store(seq, std::memory_order_release);
}

template <typename Fn>
void FlightRecorder::for_each_since(std::uint64_t after, Fn&& fn) const {
  const Slot* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const std::uint64_t head = noted_total();
  // Seq s lives in slot (s - 1) % capacity until a lap overwrites it, so
  // walking the live seq window yields publish order without sorting.
  std::uint64_t seq = std::max<std::uint64_t>(
      after, head > capacity_ ? head - capacity_ : 0);
  Record record;
  while (++seq <= head) {
    if (read_slot(ring[(seq - 1) % capacity_].word, seq, record)) fn(record);
  }
}

std::vector<Record> FlightRecorder::records_since(std::uint64_t after) const {
  std::vector<Record> out;
  for_each_since(after, [&](const Record& record) { out.push_back(record); });
  return out;
}

std::string FlightRecorder::dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

bool FlightRecorder::write_entries(int fd) const {
  FdOut out{fd};
  char num[24];
  out.put("\"entries\":[");
  bool first = true;
  for_each_since(0, [&](const Record& e) {
    out.put(first ? "{\"seq\":" : ",{\"seq\":");
    first = false;
    out.put(format_u64(e.seq, num, sizeof(num)));
    out.put(",\"ts_us\":");
    out.put(format_i64(e.start_us, num, sizeof(num)));
    out.put(",\"kind\":\"");
    out.put(e.name);  // set_name already stripped JSON-unsafe bytes
    out.put("\",\"detail\":\"");
    out.put(e.detail);
    out.put("\",\"a\":");
    out.put(format_u64(e.node, num, sizeof(num)));
    out.put(",\"b\":");
    out.put(format_u64(e.track, num, sizeof(num)));
    if (e.is_span()) {
      out.put(",\"dur_us\":");
      out.put(format_i64(e.dur_us, num, sizeof(num)));
      out.put(",\"trace_id\":");
      out.put(format_u64(e.trace_id, num, sizeof(num)));
      out.put(",\"span_id\":");
      out.put(format_u64(e.span_id, num, sizeof(num)));
      out.put(",\"parent\":");
      out.put(format_u64(e.parent_span, num, sizeof(num)));
    }
    out.put("}");
  });
  out.put("]");
  return out.ok;
}

Status FlightRecorder::dump(const std::string& reason) {
  const std::string base = dir();
  if (base.empty()) {
    return Status(StatusCode::kInvalidArgument, "flight: no dump dir");
  }
  return dump_to(base + "/flight-node" + std::to_string(node()) + "-" +
                     reason + ".json",
                 reason);
}

Status FlightRecorder::dump_to(const std::string& path,
                               const std::string& reason) {
  // Render the context documents first: the file then holds the ring as it
  // was when the dump was asked for, not after the render's own records.
  const std::string metrics_doc = metrics().snapshot_json();
  const std::string trace_doc = tracer().to_chrome_json();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status(StatusCode::kInternal, "flight: cannot open " + path);
  }
  const std::string head = "{\"node\":" + std::to_string(node()) +
                           ",\"reason\":\"" + reason +
                           "\",\"signal\":false,\"noted_total\":" +
                           std::to_string(noted_total()) + ",";
  FdOut out{fd};
  out.put(head.c_str());
  const bool entries_ok = write_entries(fd);
  // Full-fidelity context: the whole metrics document and Chrome trace ride
  // along (cheap here — this path only runs on rare, interesting events).
  out.put(",\"metrics\":");
  out.put(metrics_doc.c_str());
  out.put(",\"trace\":");
  out.put(trace_doc.c_str());
  out.put("}");
  const bool closed = ::close(fd) == 0;
  return out.ok && entries_ok && closed
             ? Status::ok()
             : Status(StatusCode::kInternal, "flight: write failed");
}

void FlightRecorder::dump_signal(const char* reason) {
  if (ring_.load(std::memory_order_acquire) == nullptr) return;
  // Compose the path with signal-safe primitives only.
  static char path[512];
  {
    std::size_t o = 0;
    // dir_ without the mutex: configure() happens before handlers can fire
    // in practice, and a torn read here at worst garbles the filename.
    const std::string& base = dir_;
    if (base.empty()) return;
    const std::size_t n = std::min(base.size(), sizeof(path) - 96);
    std::memcpy(path, base.data(), n);
    o = n;
    const char* mid = "/flight-node";
    std::memcpy(path + o, mid, std::strlen(mid));
    o += std::strlen(mid);
    char num[24];
    format_u64(node(), num, sizeof(num));
    std::memcpy(path + o, num, std::strlen(num));
    o += std::strlen(num);
    path[o++] = '-';
    const std::size_t rn = std::min(std::strlen(reason), std::size_t{32});
    std::memcpy(path + o, reason, rn);
    o += rn;
    const char* ext = ".json";
    std::memcpy(path + o, ext, std::strlen(ext));
    o += std::strlen(ext);
    path[o] = '\0';
  }
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  FdOut out{fd};
  char num[24];
  out.put("{\"node\":");
  out.put(format_u64(node(), num, sizeof(num)));
  out.put(",\"reason\":\"");
  out.put(reason);
  out.put("\",\"signal\":true,");
  (void)write_entries(fd);
  out.put("}");
  ::close(fd);
}

void install_crash_handlers() {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    ::sigaction(sig, &sa, &g_prev_actions[sig]);
  }
  g_prev_terminate = std::set_terminate(terminate_handler);
}

}  // namespace doct::obs

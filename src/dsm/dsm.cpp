#include "dsm/dsm.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace doct::dsm {

namespace {

enum class Downgrade : std::uint8_t { kToShared = 0, kToInvalid = 1 };

constexpr const char* kGetPage = "dsm.get_page";
constexpr const char* kFetch = "dsm.fetch";
constexpr const char* kInvalidate = "dsm.invalidate";

}  // namespace

DsmEngine::DsmEngine(rpc::RpcEndpoint& rpc, NodeId self, DsmConfig config)
    : rpc_(rpc), self_(self), config_(config) {
  rpc_.register_method(kGetPage, [this](NodeId caller, Reader& args) {
    return rpc_get_page(caller, args);
  });
  // fetch/invalidate never block, so they run inline on the delivery thread
  // (kFast): this guarantees they complete even while every pool worker is
  // parked inside a blocking get_page.
  rpc_.register_method(
      kFetch,
      [this](NodeId caller, Reader& args) { return rpc_fetch(caller, args); },
      rpc::MethodClass::kFast);
  rpc_.register_method(
      kInvalidate,
      [this](NodeId caller, Reader& args) {
        return rpc_invalidate(caller, args);
      },
      rpc::MethodClass::kFast);
}

DsmEngine::~DsmEngine() {
  rpc_.unregister_method(kGetPage);
  rpc_.unregister_method(kFetch);
  rpc_.unregister_method(kInvalidate);
}

DsmEngine::Segment* DsmEngine::find_segment(SegmentId id) {
  auto it = segments_.find(id);
  return it == segments_.end() ? nullptr : &it->second;
}

const DsmEngine::Segment* DsmEngine::find_segment(SegmentId id) const {
  auto it = segments_.find(id);
  return it == segments_.end() ? nullptr : &it->second;
}

Status DsmEngine::create_segment(SegmentId segment, std::size_t num_pages,
                                 SegmentMode mode) {
  if (!segment.valid() || num_pages == 0) {
    return {StatusCode::kInvalidArgument, "segment id and page count required"};
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.contains(segment)) {
    return {StatusCode::kAlreadyExists, segment.to_string()};
  }
  Segment s;
  s.home = self_;
  s.num_pages = num_pages;
  s.mode = mode;
  s.frames.resize(num_pages);
  if (mode == SegmentMode::kDefault) {
    // The home initially owns every page, zero-filled.
    s.directory.resize(num_pages);
    for (std::size_t p = 0; p < num_pages; ++p) {
      s.directory[p].owner = self_;
      s.frames[p].state = PageState::kOwned;
      s.frames[p].data.assign(config_.page_size, 0);
    }
  }
  segments_.emplace(segment, std::move(s));
  return Status::ok();
}

Status DsmEngine::attach_segment(SegmentId segment, NodeId home,
                                 std::size_t num_pages, SegmentMode mode) {
  if (!segment.valid() || num_pages == 0) {
    return {StatusCode::kInvalidArgument, "segment id and page count required"};
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.contains(segment)) {
    return {StatusCode::kAlreadyExists, segment.to_string()};
  }
  Segment s;
  s.home = home;
  s.num_pages = num_pages;
  s.mode = mode;
  s.frames.resize(num_pages);
  segments_.emplace(segment, std::move(s));
  return Status::ok();
}

Status DsmEngine::set_fault_hook(SegmentId segment, FaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  Segment* s = find_segment(segment);
  if (s == nullptr) return {StatusCode::kNoSuchObject, segment.to_string()};
  s->hook = std::move(hook);
  return Status::ok();
}

Status DsmEngine::clear_fault_hook(SegmentId segment) {
  std::lock_guard<std::mutex> lock(mu_);
  Segment* s = find_segment(segment);
  if (s == nullptr) return {StatusCode::kNoSuchObject, segment.to_string()};
  s->hook = nullptr;
  return Status::ok();
}

Status DsmEngine::install_page(SegmentId segment, std::size_t page,
                               std::vector<std::uint8_t> data,
                               PageState state) {
  std::lock_guard<std::mutex> lock(mu_);
  Segment* s = find_segment(segment);
  if (s == nullptr) return {StatusCode::kNoSuchObject, segment.to_string()};
  if (page >= s->num_pages) {
    return {StatusCode::kInvalidArgument, "page out of range"};
  }
  data.resize(config_.page_size, 0);
  s->frames[page].data = std::move(data);
  s->frames[page].state = state;
  stats_.user_pager_fills++;
  return Status::ok();
}

Status DsmEngine::evict_page(SegmentId segment, std::size_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  Segment* s = find_segment(segment);
  if (s == nullptr) return {StatusCode::kNoSuchObject, segment.to_string()};
  if (page >= s->num_pages) {
    return {StatusCode::kInvalidArgument, "page out of range"};
  }
  s->frames[page].state = PageState::kInvalid;
  s->frames[page].data.clear();
  s->frames[page].version++;
  return Status::ok();
}

PageState DsmEngine::page_state(SegmentId segment, std::size_t page) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Segment* s = find_segment(segment);
  if (s == nullptr || page >= s->num_pages) return PageState::kInvalid;
  return s->frames[page].state;
}

DsmStats DsmEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- Fault path -------------------------------------------------------------

Status DsmEngine::fault_in(Segment& segment, SegmentId id, std::size_t page,
                           Access access, std::unique_lock<std::mutex>& lock) {
  // Invariant: `lock` (on mu_) is held on entry and on every exit; it is
  // released around hook invocation and RPC (CP.22).
  while (true) {
    PageFrame& frame = segment.frames[page];
    const bool satisfied = access == Access::kRead
                               ? frame.state != PageState::kInvalid
                               : frame.state == PageState::kOwned;
    if (satisfied) return Status::ok();

    if (access == Access::kRead) {
      stats_.read_faults++;
    } else {
      stats_.write_faults++;
    }

    const FaultInfo info{id, page, access, self_};
    FaultHook hook = segment.hook;
    const SegmentMode mode = segment.mode;
    const NodeId home = segment.home;

    if (hook) {
      lock.unlock();
      auto supplied = hook(info);
      lock.lock();
      if (!supplied.is_ok()) return supplied.status();
      if (supplied.value().has_value()) {
        // The pager produced the page; install with the needed rights.
        auto data = std::move(*supplied.value());
        data.resize(config_.page_size, 0);
        segment.frames[page].data = std::move(data);
        segment.frames[page].state = access == Access::kWrite
                                         ? PageState::kOwned
                                         : PageState::kShared;
        stats_.user_pager_fills++;
        continue;  // re-check: another thread may have raced us
      }
      if (mode == SegmentMode::kUserPaged) {
        // The hook may have satisfied the fault out-of-band through
        // install_page (e.g. a remote pager raced the reply); re-check once
        // before failing.
        if (access == Access::kRead
                ? segment.frames[page].state != PageState::kInvalid
                : segment.frames[page].state == PageState::kOwned) {
          continue;
        }
        return {StatusCode::kNoHandler,
                "user pager declined to supply page " + std::to_string(page)};
      }
      // kDefault with observational hook: fall through to the protocol.
    } else if (mode == SegmentMode::kUserPaged) {
      return {StatusCode::kNoHandler,
              "user-paged segment has no fault hook: " + id.to_string()};
    }

    // Default kernel pager: ask the home for the page.
    const std::uint64_t version_before = segment.frames[page].version;
    Writer w;
    w.put(id);
    w.put(static_cast<std::uint64_t>(page));
    w.put(access);
    lock.unlock();
    auto reply = rpc_.call(home, kGetPage, std::move(w).take());
    lock.lock();
    if (!reply.is_ok()) return reply.status();
    PageFrame& target = segment.frames[page];
    if (target.version != version_before) {
      // An invalidation overtook the grant (the home already reassigned the
      // page to a writer).  Installing now would expose stale data; retry.
      continue;
    }
    Reader r(std::move(reply).value());
    const bool has_data = r.get_bool();
    if (has_data) {
      auto data = r.get_bytes();
      target.data = std::move(data);
      target.data.resize(config_.page_size, 0);
    } else if (target.state == PageState::kInvalid) {
      // Permission-only grant (we are the recorded owner) but our copy is
      // gone: the sole copy of the data has been lost.
      return {StatusCode::kInternal,
              "ownership grant without data for page " + std::to_string(page)};
    }
    target.state =
        access == Access::kWrite ? PageState::kOwned : PageState::kShared;
    stats_.pages_fetched++;
    return Status::ok();
  }
}

Result<std::vector<std::uint8_t>> DsmEngine::read(SegmentId segment,
                                                  std::size_t offset,
                                                  std::size_t length) {
  std::unique_lock<std::mutex> lock(mu_);
  Segment* s = find_segment(segment);
  if (s == nullptr) return Status{StatusCode::kNoSuchObject, segment.to_string()};
  if (offset + length > s->num_pages * config_.page_size) {
    return Status{StatusCode::kInvalidArgument, "read out of segment bounds"};
  }
  std::vector<std::uint8_t> out;
  out.reserve(length);
  std::size_t cursor = offset;
  std::size_t remaining = length;
  while (remaining > 0) {
    const std::size_t page = cursor / config_.page_size;
    const std::size_t in_page = cursor % config_.page_size;
    const std::size_t chunk = std::min(remaining, config_.page_size - in_page);
    const Status fault = fault_in(*s, segment, page, Access::kRead, lock);
    if (!fault.is_ok()) return fault;
    const auto& data = s->frames[page].data;
    out.insert(out.end(), data.begin() + static_cast<long>(in_page),
               data.begin() + static_cast<long>(in_page + chunk));
    cursor += chunk;
    remaining -= chunk;
  }
  return out;
}

Status DsmEngine::write(SegmentId segment, std::size_t offset,
                        std::span<const std::uint8_t> data) {
  std::unique_lock<std::mutex> lock(mu_);
  Segment* s = find_segment(segment);
  if (s == nullptr) return {StatusCode::kNoSuchObject, segment.to_string()};
  if (offset + data.size() > s->num_pages * config_.page_size) {
    return {StatusCode::kInvalidArgument, "write out of segment bounds"};
  }
  std::size_t cursor = offset;
  std::size_t written = 0;
  while (written < data.size()) {
    const std::size_t page = cursor / config_.page_size;
    const std::size_t in_page = cursor % config_.page_size;
    const std::size_t chunk =
        std::min(data.size() - written, config_.page_size - in_page);
    const Status fault = fault_in(*s, segment, page, Access::kWrite, lock);
    if (!fault.is_ok()) return fault;
    auto& frame = s->frames[page];
    std::copy(data.begin() + static_cast<long>(written),
              data.begin() + static_cast<long>(written + chunk),
              frame.data.begin() + static_cast<long>(in_page));
    cursor += chunk;
    written += chunk;
  }
  return Status::ok();
}

// --- Home-side protocol ------------------------------------------------------

Result<rpc::Payload> DsmEngine::rpc_get_page(NodeId caller, Reader& args) {
  const auto id = args.get_id<SegmentTag>();
  const auto page = static_cast<std::size_t>(args.get<std::uint64_t>());
  const auto access = args.get<Access>();

  // Serialize the whole protocol action for this segment; individual state
  // accesses still take mu_.  Lock order is always home_mu before mu_.
  std::mutex* home_mu = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Segment* s0 = find_segment(id);
    if (s0 == nullptr || s0->directory.empty()) {
      return Status{StatusCode::kNoSuchObject,
                    "not home for segment " + id.to_string()};
    }
    if (page >= s0->num_pages) {
      return Status{StatusCode::kInvalidArgument, "page out of range"};
    }
    home_mu = s0->home_mu.get();
  }
  std::lock_guard<std::mutex> op_lock(*home_mu);

  std::unique_lock<std::mutex> lock(mu_);
  Segment* s = find_segment(id);
  if (s == nullptr) {
    return Status{StatusCode::kNoSuchObject, id.to_string()};
  }

  // Serialize all protocol actions for this page: we hold mu_ only for
  // directory reads/updates and drop it around remote fetch/invalidate.
  DirectoryEntry& entry = s->directory[page];
  const NodeId owner = entry.owner;
  std::vector<std::uint8_t> page_data;
  // When the requester already owns the page (upgrading a downgraded shared
  // copy back to exclusive), grant permission only — fetching would
  // invalidate the very copy being upgraded.
  bool has_data = owner != caller;

  if (owner == caller) {
    // fall through to the directory update below
  } else if (owner == self_) {
    PageFrame& frame = s->frames[page];
    page_data = frame.data;
    // When the requester is the home itself (self-upgrade after giving out
    // copies), its own frame must be left alone: fault_in installs the grant
    // over it, and bumping the version here would make it retry forever.
    if (caller != self_) {
      if (access == Access::kWrite) {
        frame.state = PageState::kInvalid;
        frame.data.clear();
      } else if (frame.state == PageState::kOwned) {
        frame.state = PageState::kShared;
      }
      // Bumped on a read downgrade too: see rpc_fetch.
      frame.version++;
    }
  } else {
    Writer w;
    w.put(id);
    w.put(static_cast<std::uint64_t>(page));
    w.put(access == Access::kWrite ? Downgrade::kToInvalid
                                   : Downgrade::kToShared);
    const rpc::Payload fetch_args = std::move(w).take();
    lock.unlock();
    // Retry while the owner's copy is in transit (grant sent, not yet
    // installed at the owner); bounded so a truly lost grant cannot wedge
    // the home forever.
    Result<rpc::Payload> fetched = rpc_.call(owner, kFetch, fetch_args);
    for (int attempt = 0;
         !fetched.is_ok() &&
         fetched.status().code() == StatusCode::kResourceExhausted &&
         attempt < 2000;
         ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      fetched = rpc_.call(owner, kFetch, fetch_args);
    }
    lock.lock();
    if (!fetched.is_ok()) return fetched.status();
    Reader r(std::move(fetched).value());
    page_data = r.get_bytes();
    // Re-find: the segment map may have rehashed while unlocked.
    s = find_segment(id);
    if (s == nullptr) {
      return Status{StatusCode::kNoSuchObject, id.to_string()};
    }
  }

  DirectoryEntry& dir = s->directory[page];
  if (access == Access::kWrite) {
    // Invalidate every shared copy except the new owner's.
    // The old owner's copy was already invalidated by the kToInvalid fetch;
    // shared copies are invalidated here.
    std::vector<NodeId> victims;
    for (NodeId member : dir.copyset) {
      if (member != caller) victims.push_back(member);
    }
    dir.copyset.clear();
    dir.owner = caller;
    stats_.ownership_transfers++;
    if (!victims.empty()) {
      stats_.invalidations_sent += victims.size();
      lock.unlock();
      for (NodeId victim : victims) {
        if (victim == self_) {
          std::lock_guard<std::mutex> relock(mu_);
          Segment* local = find_segment(id);
          if (local != nullptr) {
            local->frames[page].state = PageState::kInvalid;
            local->frames[page].data.clear();
            local->frames[page].version++;
            stats_.invalidations_received++;
          }
          continue;
        }
        Writer w;
        w.put(id);
        w.put(static_cast<std::uint64_t>(page));
        auto acked = rpc_.call(victim, kInvalidate, std::move(w).take());
        if (!acked.is_ok()) {
          DOCT_LOG(kWarn) << "invalidate of " << id.to_string() << " page "
                          << page << " at " << victim.to_string()
                          << " failed: " << acked.status().to_string();
        }
      }
      lock.lock();
    }
  } else {
    if (caller != dir.owner) dir.copyset.insert(caller);
  }

  Writer reply;
  reply.put(has_data);
  reply.put(page_data);
  return std::move(reply).take();
}

Result<rpc::Payload> DsmEngine::rpc_fetch(NodeId, Reader& args) {
  const auto id = args.get_id<SegmentTag>();
  const auto page = static_cast<std::size_t>(args.get<std::uint64_t>());
  const auto downgrade = args.get<Downgrade>();

  std::lock_guard<std::mutex> lock(mu_);
  Segment* s = find_segment(id);
  if (s == nullptr || page >= s->num_pages) {
    return Status{StatusCode::kNoSuchObject, id.to_string()};
  }
  PageFrame& frame = s->frames[page];
  if (frame.state == PageState::kInvalid) {
    // The directory can point here before our grant has been installed (the
    // page is in transit from the home's reply to our fault_in).  Tell the
    // home to retry shortly rather than failing the protocol action.
    return Status{StatusCode::kResourceExhausted, "page in transit"};
  }
  Writer reply;
  reply.put(frame.data);
  if (downgrade == Downgrade::kToInvalid) {
    frame.state = PageState::kInvalid;
    frame.data.clear();
  } else if (frame.state == PageState::kOwned) {
    frame.state = PageState::kShared;
  }
  // A read downgrade bumps the version as well.  This node may hold a shared
  // copy while its own upgrade grant is in transit: the home already made it
  // owner, so the new reader joined a copyset that grant never invalidates.
  // The bump makes the upgrading fault retry, and the retried grant
  // invalidates the reader; otherwise the owner would write under a reader
  // that keeps its stale copy forever.
  frame.version++;
  return std::move(reply).take();
}

Result<rpc::Payload> DsmEngine::rpc_invalidate(NodeId, Reader& args) {
  const auto id = args.get_id<SegmentTag>();
  const auto page = static_cast<std::size_t>(args.get<std::uint64_t>());

  std::lock_guard<std::mutex> lock(mu_);
  Segment* s = find_segment(id);
  if (s == nullptr || page >= s->num_pages) {
    return Status{StatusCode::kNoSuchObject, id.to_string()};
  }
  s->frames[page].state = PageState::kInvalid;
  s->frames[page].data.clear();
  s->frames[page].version++;
  stats_.invalidations_received++;
  return rpc::Payload{};
}

}  // namespace doct::dsm

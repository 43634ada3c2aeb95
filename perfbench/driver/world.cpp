#include "world.hpp"

#include "events/block.hpp"

namespace perfbench {
namespace {

// The handler's fixed work, the control of events.handler_us: a checksum
// over the payload, so the handler reads every byte it was sent.
std::atomic<std::uint64_t> g_checksum_sink{0};
void handler_work(const std::vector<std::uint8_t>& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : data) h = (h ^ b) * 1099511628211ULL;
  g_checksum_sink.fetch_xor(h, std::memory_order_relaxed);
}

}  // namespace

TargetSet::TargetSet(runtime::Cluster& cluster, int objects_per_node,
                     int threads_per_node, HandleHook hook)
    : cluster_(cluster), hook_(std::make_shared<HandleHook>(std::move(hook))) {
  event = cluster.registry().register_event(kEventName);
  const auto kResumeByte =
      objects::Payload{static_cast<std::uint8_t>(kernel::Verdict::kResume)};

  for (std::size_t n = 1; n < cluster.size(); ++n) {
    auto& node = cluster.node(n);
    for (int i = 0; i < objects_per_node; ++i) {
      auto object = std::make_shared<objects::PassiveObject>("perfbench_target");
      object->define_entry(
          "on_event",
          [hook = hook_, kResumeByte](objects::CallCtx& ctx)
              -> Result<objects::Payload> {
            const std::int64_t start = now_ns();
            const events::EventBlock block = events::EventBlock::from_ctx(ctx);
            handler_work(block.user_data());
            (*hook)(block.user_data(), start, now_ns());
            return kResumeByte;
          },
          objects::Visibility::kPrivate);
      object->define_handler(kEventName, "on_event");
      object->define_entry(
          "echo", [hook = hook_](objects::CallCtx& ctx) -> Result<objects::Payload> {
            const std::int64_t start = now_ns();
            std::vector<std::uint8_t> data = ctx.args.get_bytes();
            handler_work(data);
            (*hook)(data, start, now_ns());
            return data;
          });
      objects.push_back(node.objects.add_object(object));
    }
    node.rpc.register_method(
        kNoopMethod, [hook = hook_](NodeId, Reader& args) -> Result<rpc::Payload> {
          const std::int64_t start = now_ns();
          std::vector<std::uint8_t> data = args.get_bytes();
          handler_work(data);
          (*hook)(data, start, now_ns());
          return data;
        });
  }

  cluster.procedures().register_procedure(
      kThreadProc, [hook = hook_](events::PerThreadCallCtx& ctx) {
        const std::int64_t start = now_ns();
        handler_work(ctx.block.user_data());
        (*hook)(ctx.block.user_data(), start, now_ns());
        return kernel::Verdict::kResume;
      });
  int spawned = 0;
  for (std::size_t n = 1; n < cluster.size(); ++n) {
    auto& node = cluster.node(n);
    for (int i = 0; i < threads_per_node; ++i) {
      threads.push_back(node.kernel.spawn([this, &node] {
        (void)node.events.attach_handler(event, kThreadProc,
                                         events::OWN_CONTEXT);
        ready_.fetch_add(1);
        // Parked at a delivery point: each notice wakes the sleep.
        while (!release_.load()) {
          if (!node.kernel.sleep_for(5ms).is_ok()) return;
        }
      }));
      thread_nodes.push_back(&node);
      ++spawned;
    }
  }
  while (ready_.load() < spawned) std::this_thread::sleep_for(100us);
}

TargetSet::~TargetSet() {
  release_.store(true);
  for (std::size_t i = 0; i < threads.size(); ++i) {
    (void)thread_nodes[i]->kernel.join_thread(threads[i], 10s);
  }
  for (std::size_t n = 1; n < cluster_.size(); ++n) {
    cluster_.node(n).rpc.unregister_method(kNoopMethod);
  }
}

}  // namespace perfbench

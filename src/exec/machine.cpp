#include "exec/machine.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/check.hpp"

namespace fsml::exec {

void ThreadCtx::compute(std::uint64_t n) {
  if (n == 0) return;
  const double cpi = machine_->config().cycles.compute_cpi;
  clock_ += static_cast<sim::Cycles>(static_cast<double>(n) * cpi + 0.5);
  machine_->memory().retire_instructions(core_, n);
}

sim::AccessResult ThreadCtx::perform(sim::Addr addr, std::uint32_t size,
                                     sim::AccessType type) {
  const sim::AccessResult r =
      machine_->memory().access(core_, addr, size, type, clock_);
  clock_ += r.latency;
  ++ops_;
  return r;
}

Machine::Machine(const sim::MachineConfig& config, std::uint64_t seed)
    : memory_(config),
      arena_(/*base=*/0x10000, config.l1d.line_bytes, config.page_bytes),
      seed_(seed),
      spawn_rng_(seed) {}

sim::CoreId Machine::placement_core(std::uint32_t thread) const {
  if (placement_ == ThreadPlacement::kPacked) return thread;
  const sim::SocketTopology& topo = config().topology;
  if (!topo.multi_socket()) return thread;
  // Round-robin across sockets: thread t is the (t / sockets)-th thread on
  // socket t % sockets. With threads <= cores on an even topology this
  // always finds a free core.
  const std::uint32_t socket = thread % topo.sockets;
  const std::uint32_t slot = thread / topo.sockets;
  FSML_CHECK_MSG(slot < topo.cores_per_socket,
                 "scatter placement ran out of per-socket cores");
  return socket * topo.cores_per_socket + slot;
}

void Machine::spawn(ThreadFn fn) {
  FSML_CHECK_MSG(!ran_, "spawn after run() is not supported");
  FSML_CHECK_MSG(threads_.size() < config().num_cores,
                 "more threads than cores: enlarge the MachineConfig");
  auto state = std::make_unique<ThreadState>();
  state->fn = std::move(fn);
  const sim::CoreId core =
      placement_core(static_cast<std::uint32_t>(threads_.size()));
  // Per-thread RNG stream derived deterministically from the machine seed.
  state->ctx.reset(new ThreadCtx(this, core, spawn_rng_.next()));
  threads_.push_back(std::move(state));
}

RunResult Machine::run(sim::Cycles max_cycles) {
  FSML_CHECK_MSG(!ran_, "Machine::run() is one-shot");
  FSML_CHECK_MSG(!threads_.empty(), "no threads spawned");
  ran_ = true;
  for (auto& t : threads_) {
    t->task = t->fn(*t->ctx);
    FSML_CHECK_MSG(t->task.valid(), "thread function must return a SimTask");
    t->task.handle().promise().done_flag = &t->done;
    t->ctx->set_resume(t->task.handle());
  }

  // Scheduler ready-queue: a binary min-heap over (clock, thread id), so
  // picking the next thread is O(log threads) instead of a linear scan per
  // step. Only the resumed thread's clock can change, so each step is one
  // sift-down of the root. The comparator breaks clock ties on the lower
  // thread id — the same thread the old first-wins linear scan chose — so
  // the interleaving (and with it every counter) is bit-identical.
  struct Ready {
    sim::Cycles clock;
    std::uint32_t tid;
  };
  std::vector<Ready> heap(threads_.size());
  std::size_t heap_size = threads_.size();
  for (std::size_t i = 0; i < heap_size; ++i)
    heap[i] = {threads_[i]->ctx->clock(), static_cast<std::uint32_t>(i)};
  const auto before = [](const Ready& a, const Ready& b) {
    return a.clock < b.clock || (a.clock == b.clock && a.tid < b.tid);
  };
  const auto sift_down = [&](std::size_t pos) {
    for (;;) {
      std::size_t least = pos;
      const std::size_t left = 2 * pos + 1;
      const std::size_t right = left + 1;
      if (left < heap_size && before(heap[left], heap[least])) least = left;
      if (right < heap_size && before(heap[right], heap[least])) least = right;
      if (least == pos) return;
      std::swap(heap[pos], heap[least]);
      pos = least;
    }
  };
  // All clocks start at 0 and the identity layout orders tids parent<child,
  // so the initial array already satisfies the heap property; heapify anyway
  // in case a future caller spawns mid-run with a nonzero clock.
  for (std::size_t i = heap_size / 2; i-- > 0;) sift_down(i);

  RunResult result;
  sim::RawCounters last_snapshot;
  sim::Cycles next_boundary = slice_cycles_;
  const bool has_deadline = deadline_ != util::kNoDeadline;
  std::uint32_t deadline_poll = 0;
  while (heap_size > 0) {
    // Read the clock every 4096 scheduler steps — often enough to honour a
    // deadline promptly, rare enough to stay off the hot path.
    if (has_deadline && (++deadline_poll & 0xFFFu) == 0 &&
        std::chrono::steady_clock::now() >= deadline_)
      throw util::DeadlineExceeded();
    ThreadState* const next = threads_[heap[0].tid].get();

    // Slice sampling: when the global time front (the min clock) crosses a
    // boundary, everything counted so far belongs to completed slices.
    if (slice_cycles_ > 0) {
      while (heap[0].clock >= next_boundary) {
        const sim::RawCounters now = memory_.aggregate_counters();
        result.slices.push_back(last_snapshot.delta_to(now));
        last_snapshot = now;
        next_boundary += slice_cycles_;
      }
    }

    FSML_CHECK_MSG(heap[0].clock <= max_cycles,
                   "simulation exceeded the cycle budget (deadlock or "
                   "runaway kernel?)");

    const auto handle = next->ctx->take_resume();
    FSML_CHECK_MSG(static_cast<bool>(handle),
                   "runnable thread without a resume point");
    running_ = next;
    handle.resume();
    running_ = nullptr;

    if (next->done) {
      if (auto ep = next->task.handle().promise().exception)
        std::rethrow_exception(ep);
      heap[0] = heap[--heap_size];
    } else {
      heap[0].clock = next->ctx->clock();
    }
    sift_down(0);
  }

  result.core_cycles.reserve(threads_.size());
  for (auto& t : threads_) {
    const sim::Cycles c = t->ctx->clock();
    result.core_cycles.push_back(c);
    result.total_cycles = std::max(result.total_cycles, c);
    result.memory_ops += t->ctx->ops_issued();
    memory_.account_cycles(t->ctx->core(), c);
  }
  result.aggregate = memory_.aggregate_counters();
  result.instructions =
      result.aggregate.get(sim::RawEvent::kInstructionsRetired);
  result.seconds = seconds(result.total_cycles);
  if (slice_cycles_ > 0) {
    // Final partial slice (account_cycles above does not affect deltas of
    // interest beyond CYCLES_TOTAL).
    result.slices.push_back(last_snapshot.delta_to(result.aggregate));
    result.slice_cycles = slice_cycles_;
  }
  return result;
}

double Machine::seconds(sim::Cycles cycles) const {
  return static_cast<double>(cycles) / config().core_hz;
}

}  // namespace fsml::exec

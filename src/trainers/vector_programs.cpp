// The three "vector" multi-threaded mini-programs (paper §2.2.1): psumv,
// pdot, count. Each thread processes a contiguous share of vector data.
// All three support the bad-ma mode via strided/random element traversal
// (the paper's Figure-1 Method 3).
#include "trainers/trainer.hpp"

namespace fsml::trainers {
namespace detail {
namespace {

/// Elements are 8 bytes throughout the vector suite.
constexpr std::uint64_t kElem = 8;

struct Share {
  std::uint64_t begin;
  std::uint64_t count;
};

Share share_of(std::uint64_t n, std::uint32_t threads, std::uint32_t t) {
  const std::uint64_t base = n / threads;
  const std::uint64_t extra = n % threads;
  const std::uint64_t begin = t * base + std::min<std::uint64_t>(t, extra);
  return {begin, base + (t < extra ? 1 : 0)};
}

/// psumv: per-element accumulate into the thread's partial-sum slot with a
/// store *every iteration* (the slot write stream is what false sharing
/// contends on; in good mode the padded slot write is an L1 hit).
class Psumv final : public MiniProgram {
 public:
  std::string_view name() const override { return "psumv"; }
  std::string_view description() const override {
    return "vector partial sums, per-iteration accumulator store";
  }
  bool multithreaded() const override { return true; }
  bool supports_bad_ma() const override { return true; }
  std::vector<std::uint64_t> default_sizes() const override {
    return {16384, 32768, 65536, 131072};
  }

  void build(exec::Machine& m, const TrainerParams& p) const override {
    const std::uint64_t n = p.size ? p.size : default_sizes()[0];
    const sim::Addr v = m.arena().alloc_page_aligned(n * kElem);
    const auto slots =
        make_slots(m.arena(), p.threads, /*padded=*/p.mode != Mode::kBadFs);
    for (std::uint32_t t = 0; t < p.threads; ++t) {
      const Share s = share_of(n, p.threads, t);
      const sim::Addr slot = slots[t];
      const bool bad_ma = p.mode == Mode::kBadMa;
      const Traversal walk(bad_ma ? p.pattern : AccessPattern::kLinear,
                           s.count, p.seed + t);
      m.spawn([v, slot, s, walk](exec::ThreadCtx& ctx) -> exec::SimTask {
        ctx.compute(ctx.rng().next_below(32));
        for (std::uint64_t i = 0; i < s.count; ++i) {
          const std::uint64_t idx = s.begin + walk.index(i);
          co_await ctx.load(v + idx * kElem);
          ctx.compute(1);
          co_await ctx.rmw(slot);  // psum[myid] += v[i]
        }
      });
    }
  }
};

/// pdot: the paper's Figure-1 dot product.
///  - good  (Method 1): register accumulator, one final store
///  - bad-fs (Method 2): psum[myid] += ... every iteration, packed slots
///  - bad-ma (Method 3): register accumulator but strided/random element
///    access
class Pdot final : public MiniProgram {
 public:
  std::string_view name() const override { return "pdot"; }
  std::string_view description() const override {
    return "parallel dot product (Figure 1, Methods 1/2/3)";
  }
  bool multithreaded() const override { return true; }
  bool supports_bad_ma() const override { return true; }
  std::vector<std::uint64_t> default_sizes() const override {
    return {16384, 32768, 65536, 131072};
  }

  void build(exec::Machine& m, const TrainerParams& p) const override {
    const std::uint64_t n = p.size ? p.size : default_sizes()[0];
    const sim::Addr v1 = m.arena().alloc_page_aligned(n * kElem);
    const sim::Addr v2 = m.arena().alloc_page_aligned(n * kElem);
    const auto slots =
        make_slots(m.arena(), p.threads, /*padded=*/p.mode != Mode::kBadFs);
    for (std::uint32_t t = 0; t < p.threads; ++t) {
      const Share s = share_of(n, p.threads, t);
      const sim::Addr slot = slots[t];
      const bool fs = p.mode == Mode::kBadFs;
      const bool bad_ma = p.mode == Mode::kBadMa;
      const Traversal walk(bad_ma ? p.pattern : AccessPattern::kLinear,
                           s.count, p.seed + t);
      m.spawn([v1, v2, slot, s, walk, fs](
                  exec::ThreadCtx& ctx) -> exec::SimTask {
        ctx.compute(ctx.rng().next_below(32));
        for (std::uint64_t i = 0; i < s.count; ++i) {
          const std::uint64_t idx = s.begin + walk.index(i);
          co_await ctx.load(v1 + idx * kElem);
          co_await ctx.load(v2 + idx * kElem);
          ctx.compute(2);  // multiply + add
          if (fs) co_await ctx.rmw(slot);  // Method 2: psum[myid] += ...
        }
        co_await ctx.store(slot);  // Method 1/3: single final store
      });
    }
  }
};

/// count: each thread counts "matching" elements in its share; the counter
/// is only written on a match, and the match period *grows with the problem
/// size* (size/2048 iterations between writes). This stretches the training
/// data's bad-fs write density down to ~2 contended writes per thousand
/// instructions, which is what teaches the tree a HITM threshold low enough
/// to catch sparse real-world false sharing (streamcluster-style) instead
/// of only accumulator hammering.
class Count final : public MiniProgram {
 public:
  std::string_view name() const override { return "count"; }
  std::string_view description() const override {
    return "conditional per-thread counting (sparse counter writes)";
  }
  bool multithreaded() const override { return true; }
  bool supports_bad_ma() const override { return true; }
  std::vector<std::uint64_t> default_sizes() const override {
    return {16384, 32768, 65536, 131072};
  }

  void build(exec::Machine& m, const TrainerParams& p) const override {
    const std::uint64_t n = p.size ? p.size : default_sizes()[0];
    const sim::Addr v = m.arena().alloc_page_aligned(n * kElem);
    const auto slots =
        make_slots(m.arena(), p.threads, /*padded=*/p.mode != Mode::kBadFs);
    for (std::uint32_t t = 0; t < p.threads; ++t) {
      const Share s = share_of(n, p.threads, t);
      const sim::Addr slot = slots[t];
      const bool bad_ma = p.mode == Mode::kBadMa;
      const Traversal walk(bad_ma ? p.pattern : AccessPattern::kLinear,
                           s.count, p.seed + t);
      const std::uint64_t period = std::max<std::uint64_t>(4, n / 2048);
      m.spawn([v, slot, s, walk, period](
                  exec::ThreadCtx& ctx) -> exec::SimTask {
        ctx.compute(ctx.rng().next_below(32));
        for (std::uint64_t i = 0; i < s.count; ++i) {
          const std::uint64_t idx = s.begin + walk.index(i);
          co_await ctx.load(v + idx * kElem);
          ctx.compute(4);  // predicate evaluation
          // Deterministic pseudo-predicate with a ~1/period hit rate.
          if (((idx * 2654435761ULL) >> 17) % period == 0)
            co_await ctx.rmw(slot);
        }
      });
    }
  }
};

}  // namespace

std::vector<const MiniProgram*> vector_programs() {
  static const Psumv psumv;
  static const Pdot pdot;
  static const Count count;
  return {&psumv, &pdot, &count};
}

}  // namespace detail
}  // namespace fsml::trainers

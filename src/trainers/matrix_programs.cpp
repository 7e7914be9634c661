// The matrix multi-threaded mini-programs (paper §2.2.1): pmatmult and
// pmatcompare.
#include "trainers/trainer.hpp"

namespace fsml::trainers {
namespace detail {
namespace {

constexpr std::uint64_t kElem = 8;

/// pmatmult: panel matrix multiply C[n x n] += A[n x K] * B[K x n] with a
/// small inner depth K, so C (the large streamed operand) dominates the
/// memory traffic. Each thread computes its share of C cells.
///  - good:   block-of-rows ownership, cells in row-major order — every
///    operand streams; per-cell register accumulation, one store per cell
///  - bad-fs: column-cyclic ownership without accumulator promotion — every
///    k-step read-modify-writes C[i][j], and neighbouring j cells in a row
///    belong to different threads, so C's lines ping-pong between cores
///  - bad-ma: block-of-rows ownership but cells visited in random/strided
///    order — the C store stream scatters over the whole block and misses
class Pmatmult final : public MiniProgram {
 public:
  static constexpr std::uint64_t kDepth = 8;  // panel depth K

  std::string_view name() const override { return "pmatmult"; }
  std::string_view description() const override {
    return "parallel panel matrix multiply; ownership and cell-order variants";
  }
  bool multithreaded() const override { return true; }
  bool supports_bad_ma() const override { return true; }
  std::vector<std::uint64_t> default_sizes() const override {
    return {96, 128, 160};  // matrix dimension n (n^2 * K inner steps)
  }

  void build(exec::Machine& m, const TrainerParams& p) const override {
    const std::uint64_t n = p.size ? p.size : default_sizes()[0];
    const sim::Addr a = m.arena().alloc_page_aligned(n * kDepth * kElem);
    const sim::Addr b = m.arena().alloc_page_aligned(kDepth * n * kElem);
    const sim::Addr c = m.arena().alloc_page_aligned(n * n * kElem);

    for (std::uint32_t t = 0; t < p.threads; ++t) {
      const std::uint32_t threads = p.threads;
      const Mode mode = p.mode;
      const std::uint64_t rows = n / threads;
      const std::uint64_t extra = n % threads;
      const std::uint64_t r0 = t * rows + std::min<std::uint64_t>(t, extra);
      const std::uint64_t r1 = r0 + rows + (t < extra ? 1 : 0);
      const std::uint64_t block = (r1 - r0) * n;
      const Traversal walk(mode == Mode::kBadMa ? p.pattern
                                                : AccessPattern::kLinear,
                           std::max<std::uint64_t>(block, 1), p.seed + t);
      m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
        ctx.compute(ctx.rng().next_below(32));
        if (mode == Mode::kBadFs) {
          // Column-cyclic cells, accumulator in memory: K read-modify-writes
          // per cell into lines shared with neighbouring threads.
          for (std::uint64_t i = 0; i < n; ++i) {
            for (std::uint64_t j = t; j < n; j += threads) {
              for (std::uint64_t k = 0; k < kDepth; ++k) {
                co_await ctx.load(a + (i * kDepth + k) * kElem);
                co_await ctx.load(b + (k * n + j) * kElem);
                ctx.compute(2);
                co_await ctx.rmw(c + (i * n + j) * kElem);
              }
            }
          }
          co_return;
        }
        // Row-block ownership; cell order linear (good) or scattered
        // (bad-ma). A and B are small and stay cache-resident; the C store
        // stream is what the traversal order makes cheap or expensive.
        for (std::uint64_t step = 0; step < block; ++step) {
          const std::uint64_t flat = walk.index(step);
          const std::uint64_t i = r0 + flat / n;
          const std::uint64_t j = flat % n;
          for (std::uint64_t k = 0; k < kDepth; ++k) {
            co_await ctx.load(a + (i * kDepth + k) * kElem);
            co_await ctx.load(b + (k * n + j) * kElem);
            ctx.compute(2);
          }
          co_await ctx.store(c + (i * n + j) * kElem);
        }
      });
    }
  }
};

/// pmatcompare: element-wise comparison of two matrices; each thread
/// handles a block of rows and keeps a mismatch counter plus a progress
/// slot that it updates frequently — the progress slots are what get
/// packed (bad-fs) or padded (good).
class Pmatcompare final : public MiniProgram {
 public:
  std::string_view name() const override { return "pmatcompare"; }
  std::string_view description() const override {
    return "parallel matrix compare with per-thread progress slots";
  }
  bool multithreaded() const override { return true; }
  bool supports_bad_ma() const override { return true; }
  std::vector<std::uint64_t> default_sizes() const override {
    return {128, 192, 256};  // matrix dimension n (n^2 comparisons)
  }

  void build(exec::Machine& m, const TrainerParams& p) const override {
    const std::uint64_t n = p.size ? p.size : default_sizes()[0];
    const sim::Addr a = m.arena().alloc_page_aligned(n * n * kElem);
    const sim::Addr b = m.arena().alloc_page_aligned(n * n * kElem);
    const auto progress =
        make_slots(m.arena(), p.threads, /*padded=*/p.mode != Mode::kBadFs);

    for (std::uint32_t t = 0; t < p.threads; ++t) {
      const sim::Addr slot = progress[t];
      const std::uint64_t rows = n / p.threads;
      const std::uint64_t extra = n % p.threads;
      const std::uint64_t r0 = t * rows + std::min<std::uint64_t>(t, extra);
      const std::uint64_t r1 = r0 + rows + (t < extra ? 1 : 0);
      const std::uint64_t block = (r1 - r0) * n;  // elements in my share
      // bad-ma scatters the comparison order across the whole block.
      const Traversal walk(p.mode == Mode::kBadMa ? p.pattern
                                                  : AccessPattern::kLinear,
                           std::max<std::uint64_t>(block, 1), p.seed + t);
      // Progress updates get sparser as the matrix grows (n/8 comparisons
      // apart) — together with `count` this spans the bad-fs write-density
      // spectrum the classifier must learn.
      const std::uint64_t period = std::max<std::uint64_t>(4, n / 8);
      m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
        ctx.compute(ctx.rng().next_below(32));
        for (std::uint64_t step = 0; step < block; ++step) {
          const std::uint64_t flat = r0 * n + walk.index(step);
          co_await ctx.load(a + flat * kElem);
          co_await ctx.load(b + flat * kElem);
          ctx.compute(2);
          if (step % period == 0) co_await ctx.store(slot);  // progress
        }
      });
    }
  }
};

}  // namespace

std::vector<const MiniProgram*> matrix_programs() {
  static const Pmatmult pmatmult;
  static const Pmatcompare pmatcompare;
  return {&pmatmult, &pmatcompare};
}

}  // namespace detail
}  // namespace fsml::trainers

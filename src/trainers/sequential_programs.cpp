// The sequential mini-program set (paper §2.2.2): single-threaded programs
// whose good vs bad-ma performance differs only by element traversal order.
// They enrich the training data on the bad-ma side (the paper reports this
// measurably improved classification accuracy).
#include "trainers/trainer.hpp"

namespace fsml::trainers {
namespace detail {
namespace {

constexpr std::uint64_t kElem = 8;
constexpr int kPasses = 2;  // a warm pass amortizes cold-miss noise

class SeqArrayProgram : public MiniProgram {
 public:
  bool multithreaded() const override { return false; }
  bool supports_bad_ma() const override { return true; }
  std::vector<std::uint64_t> default_sizes() const override {
    return {4096, 8192, 16384, 32768, 65536, 98304, 131072, 196608};
  }

  void build(exec::Machine& m, const TrainerParams& p) const override {
    const std::uint64_t n = p.size ? p.size : default_sizes()[0];
    const sim::Addr v = m.arena().alloc_page_aligned(n * kElem);
    const bool bad_ma = p.mode == Mode::kBadMa;
    const Traversal walk(bad_ma ? p.pattern : AccessPattern::kLinear, n,
                         p.seed);
    const auto body = kernel_body();
    m.spawn([v, walk, n, body](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::uint64_t i = 0; i < n; ++i) {
          const sim::Addr addr = v + walk.index(i) * kElem;
          switch (body) {
            case Body::kRead:
              co_await ctx.load(addr);
              ctx.compute(1);
              break;
            case Body::kWrite:
              co_await ctx.store(addr);
              ctx.compute(1);
              break;
            case Body::kRmw:
              co_await ctx.load(addr);
              ctx.compute(1);
              co_await ctx.store(addr);
              break;
          }
        }
      }
    });
  }

 protected:
  enum class Body { kRead, kWrite, kRmw };
  virtual Body kernel_body() const = 0;
};

class SeqRead final : public SeqArrayProgram {
 public:
  std::string_view name() const override { return "seq_read"; }
  std::string_view description() const override {
    return "element-wise array read, linear vs random/strided";
  }

 protected:
  Body kernel_body() const override { return Body::kRead; }
};

class SeqWrite final : public SeqArrayProgram {
 public:
  std::string_view name() const override { return "seq_write"; }
  std::string_view description() const override {
    return "element-wise array write, linear vs random/strided";
  }

 protected:
  Body kernel_body() const override { return Body::kWrite; }
};

class SeqRmw final : public SeqArrayProgram {
 public:
  std::string_view name() const override { return "seq_rmw"; }
  std::string_view description() const override {
    return "element-wise read-modify-write, linear vs random/strided";
  }

 protected:
  Body kernel_body() const override { return Body::kRmw; }
};

/// seq_matmul: two-dimensional panel matrix multiply C[n x n] += A * B
/// (inner depth K = 4) with different memory access patterns and loop
/// structures: row-major cell order streams C (good); a scattered cell
/// order makes the C store stream miss throughout (bad-ma).
class SeqMatmul final : public MiniProgram {
 public:
  static constexpr std::uint64_t kDepth = 4;

  std::string_view name() const override { return "seq_matmul"; }
  std::string_view description() const override {
    return "panel matrix multiply, streaming vs scattered cell order";
  }
  bool multithreaded() const override { return false; }
  bool supports_bad_ma() const override { return true; }
  std::vector<std::uint64_t> default_sizes() const override {
    return {96, 128, 160, 192};
  }

  void build(exec::Machine& m, const TrainerParams& p) const override {
    const std::uint64_t n = p.size ? p.size : default_sizes()[0];
    const sim::Addr a = m.arena().alloc_page_aligned(n * kDepth * kElem);
    const sim::Addr b = m.arena().alloc_page_aligned(kDepth * n * kElem);
    const sim::Addr c = m.arena().alloc_page_aligned(n * n * kElem);
    const bool bad_ma = p.mode == Mode::kBadMa;
    const Traversal walk(bad_ma ? p.pattern : AccessPattern::kLinear, n * n,
                         p.seed);
    m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (std::uint64_t step = 0; step < n * n; ++step) {
        const std::uint64_t flat = walk.index(step);
        const std::uint64_t i = flat / n;
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
};

}  // namespace

std::vector<const MiniProgram*> sequential_programs() {
  static const SeqRead seq_read;
  static const SeqWrite seq_write;
  static const SeqRmw seq_rmw;
  static const SeqMatmul seq_matmul;
  return {&seq_read, &seq_write, &seq_rmw, &seq_matmul};
}

}  // namespace detail
}  // namespace fsml::trainers

// Collective-port tests (§6.3): redistribution schedule properties across an
// exhaustive M×N sweep, the coupling channel, the redistributor, serial↔
// parallel degeneration, and the consistency-enforcing collective builder.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <tuple>

#include "ports_sidl.hpp"

#include "cca/collective/collective_builder.hpp"
#include "cca/collective/mxn.hpp"
#include "cca/core/framework.hpp"

using namespace cca;
using namespace cca::collective;

namespace {

dist::Distribution make(int kind, std::size_t n, int p) {
  switch (kind) {
    case 0: return dist::Distribution::block(n, p);
    case 1: return dist::Distribution::cyclic(n, p);
    default: return dist::Distribution::blockCyclic(n, p, 4);
  }
}

using Mode = MxNRedistributor<double>::CouplingMode;
/// Destination shards after each frame of an exchange, [frame][rank][li].
using Frames = std::vector<std::vector<std::vector<double>>>;

/// Run `frames` consecutive push/pull exchanges through one channel on one
/// team of src.ranks() + dst.ranks() ranks — OS threads, or fibers on two
/// workers — and return the destination shards after every frame.  Source
/// element gi starts at gi and frame k adds k to it before its push, so a
/// stale or misplaced element from an earlier frame cannot go unnoticed.
Frames exchangeFrames(const dist::Distribution& src,
                      const dist::Distribution& dst, Mode mode,
                      rt::ExecKind exec, int frames) {
  auto plan = std::make_shared<const RedistSchedule>(
      RedistSchedule::build(src, dst));
  auto chan = std::make_shared<CouplingChannel>(src.ranks(), dst.ranks());
  MxNRedistributor<double> redist(chan, plan, mode);

  Frames out(static_cast<std::size_t>(frames),
             std::vector<std::vector<double>>(dst.ranks()));
  rt::RunOptions ro;
  ro.exec = exec;
  ro.fiberWorkers = 2;
  rt::Comm::run(
      src.ranks() + dst.ranks(),
      [&](rt::Comm& c) {
        const bool source = c.rank() < src.ranks();
        const int r = source ? c.rank() : c.rank() - src.ranks();
        std::vector<double> shard;
        if (source) {
          shard.resize(src.localSize(r));
          for (std::size_t li = 0; li < shard.size(); ++li)
            shard[li] = static_cast<double>(src.globalIndexOf(r, li));
        }
        for (int k = 0; k < frames; ++k) {
          if (source) {
            for (double& x : shard) x += k;
            redist.push(r, shard);
          } else {
            shard.assign(dst.localSize(r), -1.0);
            redist.pull(r, shard);
            out[k][r] = shard;
          }
          // A borrowed push lends the shard until its pulls return.
          c.barrier();
        }
      },
      ro);
  return out;
}

/// Run a full push/pull exchange on threads and return the destination
/// shards.
std::vector<std::vector<double>> exchange(const dist::Distribution& src,
                                          const dist::Distribution& dst,
                                          Mode mode = Mode::Staged) {
  return exchangeFrames(src, dst, mode, rt::ExecKind::Thread, 1).back();
}

bool bitwiseEqual(const Frames& a, const Frames& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].size() != b[k].size()) return false;
    for (std::size_t r = 0; r < a[k].size(); ++r)
      if (a[k][r].size() != b[k][r].size() ||
          std::memcmp(a[k][r].data(), b[k][r].data(),
                      a[k][r].size() * sizeof(double)) != 0)
        return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// RedistSchedule properties
// ---------------------------------------------------------------------------

class SchedSweep : public ::testing::TestWithParam<
                       std::tuple<int, int, int, int, std::size_t>> {};

TEST_P(SchedSweep, ScheduleCoversEveryElementExactlyOnce) {
  const auto [sk, dk, m, nr, n] = GetParam();
  const auto src = make(sk, n, m);
  const auto dst = make(dk, n, nr);
  const auto plan = RedistSchedule::build(src, dst);

  EXPECT_EQ(plan.totalElements(), n);
  // Reconstruct coverage from the segments: each global index must appear in
  // exactly one segment, with consistent local offsets on both sides.
  std::vector<int> covered(n, 0);
  for (int s = 0; s < m; ++s) {
    for (int d = 0; d < nr; ++d) {
      for (const auto& seg : plan.segments(s, d)) {
        for (std::size_t k = 0; k < seg.length; ++k) {
          const std::size_t gi = src.globalIndexOf(s, seg.srcOffset + k);
          EXPECT_EQ(dst.globalIndexOf(d, seg.dstOffset + k), gi);
          ++covered[gi];
        }
      }
    }
  }
  for (std::size_t gi = 0; gi < n; ++gi) EXPECT_EQ(covered[gi], 1);

  // destinationsOf/sourcesOf agree with the cells.
  for (int s = 0; s < m; ++s)
    for (int d : plan.destinationsOf(s))
      EXPECT_FALSE(plan.segments(s, d).empty());
  for (int d = 0; d < nr; ++d)
    for (int s : plan.sourcesOf(d)) EXPECT_FALSE(plan.segments(s, d).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedSweep,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2, 3), ::testing::Values(1, 2, 5),
                       ::testing::Values<std::size_t>(0, 1, 17, 96)));

TEST(Schedule, IdenticalDistributionIsIdentity) {
  const auto d = dist::Distribution::block(100, 4);
  const auto plan = RedistSchedule::build(d, d);
  EXPECT_TRUE(plan.isIdentity());
  // Rank i talks only to rank i, with one coalesced segment.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.destinationsOf(s), std::vector<int>{s});
    ASSERT_EQ(plan.segments(s, s).size(), 1u);
    EXPECT_EQ(plan.segments(s, s)[0].length, d.localSize(s));
    EXPECT_EQ(plan.segments(s, s)[0].srcOffset, 0u);
  }
}

TEST(Schedule, SizeMismatchRejected) {
  EXPECT_THROW(RedistSchedule::build(dist::Distribution::block(10, 2),
                                     dist::Distribution::block(11, 2)),
               dist::DistError);
}

TEST(Schedule, SegmentsAreCoalesced) {
  // block -> block with the same layout concatenates into single segments.
  const auto plan = RedistSchedule::build(dist::Distribution::block(1000, 2),
                                          dist::Distribution::block(1000, 2));
  EXPECT_EQ(plan.segments(0, 0).size(), 1u);
  EXPECT_EQ(plan.segments(0, 0)[0].length, 500u);
}

// ---------------------------------------------------------------------------
// MxN exchange correctness
// ---------------------------------------------------------------------------

class MxNSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MxNSweep, DataLandsAtTheRightPlace) {
  const auto [sk, dk, m, nr] = GetParam();
  const std::size_t n = 143;
  const auto src = make(sk, n, m);
  const auto dst = make(dk, n, nr);
  const auto shards = exchange(src, dst);
  for (int r = 0; r < nr; ++r)
    for (std::size_t li = 0; li < shards[r].size(); ++li)
      EXPECT_EQ(shards[r][li], static_cast<double>(dst.globalIndexOf(r, li)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MxNSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 3, 4)));

// The borrowed (rendezvous) coupling mode must land every element exactly
// where the staged mode does, for every distribution-kind pair — its single
// direct src→dst pass exercises scatterBorrowed's two-sided stride logic,
// which the staged pack/unpack never runs.
class MxNBorrowedSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MxNBorrowedSweep, BorrowedMatchesStagedExchange) {
  const auto [sk, dk, m, nr] = GetParam();
  const std::size_t n = 143;
  const auto src = make(sk, n, m);
  const auto dst = make(dk, n, nr);
  const auto staged = exchange(src, dst);
  const auto borrowed =
      exchange(src, dst, MxNRedistributor<double>::CouplingMode::Borrowed);
  ASSERT_EQ(staged.size(), borrowed.size());
  for (std::size_t r = 0; r < staged.size(); ++r) EXPECT_EQ(staged[r], borrowed[r]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MxNBorrowedSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 3, 4)));

// Fiber teams park and wake through the schedule-controller slot, so their
// coupling takes the controlled wait in CouplingChannel while thread teams
// take the condvar one.  Both must land the same bits, frame after frame,
// in both modes — a staging spare recycled across frames included.
class MxNFiberSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MxNFiberSweep, FiberTeamMatchesThreadTeamBitwise) {
  const auto [sk, dk, m, nr] = GetParam();
  const std::size_t n = 143;
  const int frames = 3;
  const auto src = make(sk, n, m);
  const auto dst = make(dk, n, nr);
  for (Mode mode : {Mode::Staged, Mode::Borrowed}) {
    const Frames threads =
        exchangeFrames(src, dst, mode, rt::ExecKind::Thread, frames);
    const Frames fibers =
        exchangeFrames(src, dst, mode, rt::ExecKind::Fiber, frames);
    EXPECT_TRUE(bitwiseEqual(threads, fibers))
        << (mode == Mode::Staged ? "staged" : "borrowed");
    for (int k = 0; k < frames; ++k)
      for (int r = 0; r < nr; ++r)
        for (std::size_t li = 0; li < threads[k][r].size(); ++li)
          ASSERT_EQ(threads[k][r][li],
                    static_cast<double>(dst.globalIndexOf(r, li) +
                                        static_cast<std::size_t>(k * (k + 1) / 2)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MxNFiberSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 3, 4),
                                            ::testing::Values(1, 3, 4)));

TEST(MxN, RedistributorsSharingAChannelAlternateFrames) {
  // Two schedules over one channel: a slot's message size changes from
  // frame to frame (block→block cells are larger than block→cyclic ones,
  // and some are empty), so a recycled staging spare that kept bytes from
  // the previous frame would show as a wrong element or as pull()'s
  // trailing-bytes error.
  const std::size_t n = 97;
  const auto src = dist::Distribution::block(n, 3);
  const dist::Distribution dsts[2] = {dist::Distribution::block(n, 4),
                                      dist::Distribution::cyclic(n, 4)};
  auto chan = std::make_shared<CouplingChannel>(3, 4);
  std::vector<MxNRedistributor<double>> reds;
  for (const auto& d : dsts)
    reds.emplace_back(chan, std::make_shared<const RedistSchedule>(
                                RedistSchedule::build(src, d)));
  for (rt::ExecKind exec : {rt::ExecKind::Thread, rt::ExecKind::Fiber}) {
    std::atomic<int> wrong{0};
    rt::RunOptions ro;
    ro.exec = exec;
    ro.fiberWorkers = 2;
    rt::Comm::run(
        7,
        [&](rt::Comm& c) {
          for (int k = 0; k < 6; ++k) {
            const auto& dst = dsts[k % 2];
            auto& red = reds[static_cast<std::size_t>(k % 2)];
            if (c.rank() < 3) {
              std::vector<double> shard(src.localSize(c.rank()));
              for (std::size_t li = 0; li < shard.size(); ++li)
                shard[li] = static_cast<double>(src.globalIndexOf(c.rank(), li)) +
                            1000.0 * k;
              red.push(c.rank(), shard);
            } else {
              const int r = c.rank() - 3;
              std::vector<double> shard(dst.localSize(r), -1.0);
              red.pull(r, shard);
              for (std::size_t li = 0; li < shard.size(); ++li)
                if (shard[li] != static_cast<double>(dst.globalIndexOf(r, li)) +
                                     1000.0 * k)
                  ++wrong;
            }
            c.barrier();
          }
        },
        ro);
    EXPECT_EQ(wrong.load(), 0)
        << (exec == rt::ExecKind::Fiber ? "fiber team" : "thread team");
  }
}

TEST(MxN, BorrowedZeroElementExchangeCompletes) {
  const auto shards =
      exchange(dist::Distribution::block(0, 3), dist::Distribution::cyclic(0, 2),
               MxNRedistributor<double>::CouplingMode::Borrowed);
  for (const auto& s : shards) EXPECT_TRUE(s.empty());
}

TEST(MxN, BorrowedShardSizeValidation) {
  // A too-small destination shard must be rejected by the borrowed scatter's
  // bounds checks, not silently scribbled past the end.
  const auto src = dist::Distribution::block(16, 2);
  const auto dst = dist::Distribution::block(16, 2);
  auto plan =
      std::make_shared<const RedistSchedule>(RedistSchedule::build(src, dst));
  auto chan = std::make_shared<CouplingChannel>(2, 2);
  MxNRedistributor<double> r(chan, plan,
                             MxNRedistributor<double>::CouplingMode::Borrowed);
  std::vector<double> full(8, 1.0), tiny(3, 0.0);
  r.push(0, full);
  EXPECT_THROW(r.pull(0, tiny), dist::DistError);
}

TEST(MxN, SerialToParallelIsScatter) {
  // M=1 → N: the §6.3 "serial component interacts with a parallel component"
  // case; semantics equal scatter.
  const auto shards = exchange(dist::Distribution::block(24, 1),
                               dist::Distribution::block(24, 4));
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(shards[r].size(), 6u);
    EXPECT_EQ(shards[r][0], r * 6.0);
  }
}

TEST(MxN, ParallelToSerialIsGather) {
  const auto shards = exchange(dist::Distribution::cyclic(24, 4),
                               dist::Distribution::block(24, 1));
  ASSERT_EQ(shards[0].size(), 24u);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(shards[0][i], double(i));
}

TEST(MxN, EmptyOverlapRanksHaveNoTrafficAndStillComplete) {
  // n < p: block(3, 4) leaves rank 3 with zero elements on both sides, so
  // some (src, dst) pairs have an empty overlap.  The schedule must list no
  // partners for the empty rank and the threaded exchange must still drain.
  const auto src = dist::Distribution::block(3, 4);
  const auto dst = dist::Distribution::cyclic(3, 4);
  ASSERT_EQ(src.localSize(3), 0u);

  const auto plan = RedistSchedule::build(src, dst);
  EXPECT_TRUE(plan.destinationsOf(3).empty());
  for (int d = 0; d < 4; ++d) EXPECT_TRUE(plan.segments(3, d).empty());

  const auto shards = exchange(src, dst);
  for (int r = 0; r < 4; ++r)
    for (std::size_t li = 0; li < shards[r].size(); ++li)
      EXPECT_EQ(shards[r][li], static_cast<double>(dst.globalIndexOf(r, li)));
}

TEST(MxN, ZeroElementRedistributionCompletes) {
  // Degenerate n = 0: every rank on both sides is empty; push/pull must
  // return without blocking on a channel nobody writes to.
  const auto shards = exchange(dist::Distribution::block(0, 3),
                               dist::Distribution::cyclic(0, 2));
  for (const auto& s : shards) EXPECT_TRUE(s.empty());
}

TEST(MxN, OneToNCyclicScatter) {
  // 1×N with a cyclic destination: rank r of 5 receives every 5th element.
  const auto shards = exchange(dist::Distribution::block(30, 1),
                               dist::Distribution::cyclic(30, 5));
  for (int r = 0; r < 5; ++r) {
    ASSERT_EQ(shards[r].size(), 6u);
    for (std::size_t li = 0; li < 6; ++li)
      EXPECT_EQ(shards[r][li], static_cast<double>(r + 5 * li));
  }
}

TEST(MxN, NToOneBlockCyclicGather) {
  // N×1 from a block-cyclic source: the single destination sees the global
  // sequence regardless of how the source chunks interleave.
  const auto shards = exchange(dist::Distribution::blockCyclic(30, 4, 4),
                               dist::Distribution::block(30, 1));
  ASSERT_EQ(shards[0].size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(shards[0][i], double(i));
}

TEST(MxN, ShardSizeValidation) {
  auto plan = std::make_shared<const RedistSchedule>(RedistSchedule::build(
      dist::Distribution::block(10, 1), dist::Distribution::block(10, 1)));
  auto chan = std::make_shared<CouplingChannel>(1, 1);
  MxNRedistributor<double> r(chan, plan);
  std::vector<double> tooSmall(3);
  EXPECT_THROW(r.push(0, tooSmall), dist::DistError);
}

TEST(MxN, ChannelScheduleRankMismatchRejected) {
  auto plan = std::make_shared<const RedistSchedule>(RedistSchedule::build(
      dist::Distribution::block(10, 2), dist::Distribution::block(10, 2)));
  auto chan = std::make_shared<CouplingChannel>(3, 2);
  EXPECT_THROW(MxNRedistributor<double>(chan, plan), dist::DistError);
}

TEST(CouplingChannelTest, FifoPerDirection) {
  CouplingChannel chan(1, 1);
  rt::Buffer a, b;
  rt::pack(a, 1);
  rt::pack(b, 2);
  chan.put(0, 0, std::move(a));
  chan.put(0, 0, std::move(b));
  rt::Buffer first = chan.take(0, 0);
  rt::Buffer second = chan.take(0, 0);
  EXPECT_EQ(rt::unpack<int>(first), 1);
  EXPECT_EQ(rt::unpack<int>(second), 2);
  // Reverse direction is independent.
  rt::Buffer c;
  rt::pack(c, 3);
  chan.putBack(0, 0, std::move(c));
  rt::Buffer back = chan.takeBack(0, 0);
  EXPECT_EQ(rt::unpack<int>(back), 3);
}

TEST(CouplingChannelTest, RecycledSpareStartsEmpty) {
  // takeUnpacked parks the consumed buffer as the slot's staging spare;
  // the next putPacked must see it empty, whatever size came before.
  CouplingChannel chan(1, 1);
  for (int n : {5, 1, 3, 0, 4}) {
    chan.putPacked(0, 0, [n](rt::Buffer& b) {
      EXPECT_EQ(b.size(), 0u);
      for (int i = 0; i < n; ++i) rt::pack(b, 10 * n + i);
    });
    chan.takeUnpacked(0, 0, [n](rt::Buffer& b) {
      EXPECT_EQ(b.readPos(), 0u);
      ASSERT_EQ(b.remaining(), n * sizeof(int));
      for (int i = 0; i < n; ++i) EXPECT_EQ(rt::unpack<int>(b), 10 * n + i);
    });
  }
}

TEST(CouplingChannelTest, BadRankCountsRejected) {
  EXPECT_THROW(CouplingChannel(0, 1), dist::DistError);
}

// ---------------------------------------------------------------------------
// CollectiveBuilder (§6.3 consistency requirement)
// ---------------------------------------------------------------------------

namespace {

class NullComponent : public core::Component {
 public:
  void setServices(core::Services*) override {}
};

core::ComponentRecord rec(const std::string& n) {
  core::ComponentRecord r;
  r.typeName = n;
  return r;
}

}  // namespace

TEST(CollectiveBuilderTest, MirroredCompositionStaysConsistent) {
  rt::Comm::run(4, [](rt::Comm& c) {
    core::Framework fw;
    fw.registerComponentType<NullComponent>(rec("t.Null"));
    CollectiveBuilder builder(c, fw);
    builder.create("a", "t.Null");
    builder.create("b", "t.Null");
    builder.verifyConsistency();
    builder.destroy("a");
    builder.verifyConsistency();
    EXPECT_EQ(fw.componentIds().size(), 1u);
  });
}

TEST(CollectiveBuilderTest, DivergentCreateDetectedOnEveryRank) {
  rt::Comm::run(3, [](rt::Comm& c) {
    core::Framework fw;
    fw.registerComponentType<NullComponent>(rec("t.Null"));
    CollectiveBuilder builder(c, fw);
    // Rank 2 disagrees about the instance name: every rank must throw (the
    // alternative — some proceeding, some not — is the classic SPMD hang).
    const std::string name = c.rank() == 2 ? "rogue" : "agreed";
    EXPECT_THROW(builder.create(name, "t.Null"), cca::sidl::CCAException);
    EXPECT_TRUE(fw.componentIds().empty());
  });
}

TEST(CollectiveBuilderTest, DivergentStateDetected) {
  rt::Comm::run(2, [](rt::Comm& c) {
    core::Framework fw;
    fw.registerComponentType<NullComponent>(rec("t.Null"));
    CollectiveBuilder builder(c, fw);
    builder.create("shared", "t.Null");
    if (c.rank() == 1) fw.createInstance("local-only", "t.Null");
    EXPECT_THROW(builder.verifyConsistency(), cca::sidl::CCAException);
  });
}

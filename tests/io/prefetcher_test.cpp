#include "io/prefetcher.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"

namespace clio::io {
namespace {

TEST(Prefetcher, NoProposalOnFirstAccess) {
  SequentialPrefetcher pf;
  EXPECT_TRUE(pf.propose(1, 0).empty());
}

TEST(Prefetcher, ProposesWindowAfterStreak) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 3, .min_streak = 2});
  EXPECT_TRUE(pf.propose(1, 0).empty());
  const PrefetchRange r = pf.propose(1, 1);  // streak = 2 -> propose 2,3,4
  EXPECT_EQ(r.first, 2u);
  EXPECT_EQ(r.count, 3u);
}

TEST(Prefetcher, RandomAccessBreaksStreak) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 2, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(1, 1);
  EXPECT_TRUE(pf.propose(1, 50).empty());  // jump
  const PrefetchRange r = pf.propose(1, 51);  // streak rebuilt
  EXPECT_EQ(r.first, 52u);
  EXPECT_EQ(r.count, 2u);
}

TEST(Prefetcher, RepeatedSamePageKeepsStreakAlive) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(1, 1);
  const PrefetchRange r = pf.propose(1, 1);  // re-touch: still sequential
  // streak stays >= min_streak so the window is proposed again
  EXPECT_EQ(r.first, 2u);
  EXPECT_EQ(r.count, 1u);
}

TEST(Prefetcher, FilesTrackedIndependently) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(2, 10);
  const PrefetchRange r1 = pf.propose(1, 1);  // file 1 streak = 2
  EXPECT_EQ(r1.first, 2u);
  EXPECT_EQ(r1.count, 1u);
  const PrefetchRange r2 = pf.propose(2, 11);  // file 2 streak = 2
  EXPECT_EQ(r2.first, 12u);
  EXPECT_EQ(r2.count, 1u);
}

TEST(Prefetcher, ZeroWindowDisables) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 0, .min_streak = 1});
  for (std::uint64_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(pf.propose(1, p).empty());
  }
}

TEST(Prefetcher, ForgetResetsFileState) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.forget(1);
  EXPECT_TRUE(pf.propose(1, 1).empty());  // streak restarts at 1
}

TEST(Prefetcher, ResetClearsAllFiles) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(2, 0);
  pf.reset();
  EXPECT_TRUE(pf.propose(1, 1).empty());
  EXPECT_TRUE(pf.propose(2, 1).empty());
}

// Property sweep: the proposal is always the contiguous run after the
// accessed page, of exactly `window` length, once the streak is met.
class PrefetchWindowProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefetchWindowProperty, WindowShapeHolds) {
  const std::size_t window = GetParam();
  SequentialPrefetcher pf(PrefetchConfig{.window = window, .min_streak = 3});
  PrefetchRange r;
  for (std::uint64_t p = 100; p < 103; ++p) r = pf.propose(7, p);
  EXPECT_EQ(r.first, 103u);
  EXPECT_EQ(r.count, window);
}

INSTANTIATE_TEST_SUITE_P(Windows, PrefetchWindowProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Prefetcher, ProposeSpanOfOnePageIsPropose) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 3, .min_streak = 2});
  EXPECT_TRUE(pf.propose_span(1, 0, 0).empty());
  const PrefetchRange r = pf.propose_span(1, 1, 1);
  EXPECT_EQ(r.first, 2u);
  EXPECT_EQ(r.count, 3u);
}

TEST(Prefetcher, ProposeSpanReadsAheadPastItsLastPage) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 4, .min_streak = 2});
  // A fresh stream: the span alone establishes the streak.
  const PrefetchRange r = pf.propose_span(1, 10, 17);
  EXPECT_EQ(r.first, 18u);
  EXPECT_EQ(r.count, 4u);
  // A jump restarts the streak, and a one-page span cannot meet it.
  EXPECT_TRUE(pf.propose_span(1, 40, 40).empty());
}

// Seeded property: for random span sequences over a few files, under random
// window/streak settings, propose_span(f, a, b) answers exactly what
// propose(f, a) ... propose(f, b) answers last, and leaves the same stream
// state — checked by feeding both prefetchers one probe sequence after.
TEST(Prefetcher, ProposeSpanMatchesPerPageProposeOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    const PrefetchConfig config{.window = rng.uniform_u64(6),
                                .min_streak = 1 + rng.uniform_u64(5)};
    SequentialPrefetcher by_span(config);
    SequentialPrefetcher by_page(config);
    std::uint64_t last[3] = {0, 0, 0};
    // Continue, repeat the last page, or jump: the three streak cases.
    auto next_first = [&](std::uint64_t prev) {
      switch (rng.uniform_u64(3)) {
        case 0: return prev + 1;
        case 1: return prev;
        default: return rng.uniform_u64(64);
      }
    };
    for (int step = 0; step < 40; ++step) {
      const auto file = static_cast<FileId>(rng.uniform_u64(3));
      const std::uint64_t first = next_first(last[file]);
      const std::uint64_t span_last = first + rng.uniform_u64(9);
      const PrefetchRange got = by_span.propose_span(file, first, span_last);
      PrefetchRange want;
      for (std::uint64_t p = first; p <= span_last; ++p) {
        want = by_page.propose(file, p);
      }
      ASSERT_EQ(got.first, want.first) << "step " << step;
      ASSERT_EQ(got.count, want.count) << "step " << step;
      last[file] = span_last;
    }
    for (int probe = 0; probe < 20; ++probe) {
      const auto file = static_cast<FileId>(rng.uniform_u64(3));
      const std::uint64_t page = next_first(last[file]);
      const PrefetchRange a = by_span.propose(file, page);
      const PrefetchRange b = by_page.propose(file, page);
      ASSERT_EQ(a.first, b.first) << "probe " << probe;
      ASSERT_EQ(a.count, b.count) << "probe " << probe;
      last[file] = page;
    }
  }
}

}  // namespace
}  // namespace clio::io

// Session-store contracts of the ecohmem-serve daemon:
//  - the analyzer fold gives the same analysis for every way of
//    cutting the event stream into ingest slices (and, through the
//    golden digest, the analysis pinned by test_analysis_golden.cpp),
//  - Session snapshots are epoch-consistent and cached,
//  - dropped blocks degrade coverage (salvage semantics) while
//    semantic errors poison the session stickily,
//  - the bounded queue reports backpressure and never drops accepted
//    blocks.
//
// The ServeConcurrency suites here also run under the TSan/lockdep
// filter in ci.sh (concurrent ingest + snapshot on the live locks).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "../analyzer/analysis_digest.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/serve/session.hpp"

namespace ecohmem::serve {
namespace {

using analyzer::testing::profile_app;

/// The full bit-identity contract of docs/serving.md
/// §snapshot-consistency: every field, every double by bit pattern.
void expect_identical(const analyzer::AnalysisResult& offline,
                      const analyzer::AnalysisResult& served) {
  EXPECT_EQ(analyzer::testing::digest(offline), analyzer::testing::digest(served));
}

trace::codec::HeaderInfo header_of(const trace::Trace& t) {
  trace::codec::HeaderInfo h;
  h.version = trace::codec::kVersionIndexed;
  h.sample_rate_hz = t.sample_rate_hz;
  h.stacks = t.stacks;
  h.functions = t.functions;
  return h;
}

std::vector<std::vector<trace::Event>> partition(const std::vector<trace::Event>& events,
                                                 std::size_t block_events) {
  std::vector<std::vector<trace::Event>> blocks;
  for (std::size_t begin = 0; begin < events.size(); begin += block_events) {
    const std::size_t end = std::min(events.size(), begin + block_events);
    blocks.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(begin),
                        events.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return blocks;
}

/// Ingests `t` in slices of `block_events` and finalizes.
Expected<analyzer::AnalysisResult> ingest_sliced(const trace::Trace& t,
                                                 std::size_t block_events) {
  analyzer::IncrementalAggregator inc(t.stacks, t.functions);
  for (const auto& block : partition(t.events, block_events)) {
    if (const auto s = inc.ingest(block); !s.ok()) return unexpected(s.error());
  }
  return inc.finalize();
}

void check_incremental_identity(const trace::Trace& t) {
  ASSERT_FALSE(t.events.empty());
  const auto offline = analyzer::analyze(t);
  ASSERT_TRUE(offline.has_value()) << offline.error();

  for (const std::size_t block_events : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    const auto served = ingest_sliced(t, block_events);
    ASSERT_TRUE(served.has_value()) << served.error();
    SCOPED_TRACE("block_events=" + std::to_string(block_events));
    expect_identical(*offline, *served);
  }
}

TEST(ServeIncremental, HpcgIdenticalToOffline) { check_incremental_identity(profile_app("hpcg")); }
TEST(ServeIncremental, PhaseShiftIdenticalToOffline) {
  check_incremental_identity(profile_app("phase-shift"));
}
TEST(ServeIncremental, MiniFeIdenticalToOffline) {
  check_incremental_identity(profile_app("minife"));
}
TEST(ServeIncremental, SyntheticLiveSetIdenticalAcrossSlices) {
  // Thousands of live objects freed in random order, with and without
  // uncore readings: slices cut the live set's chunk splits and merges
  // at arbitrary points.
  check_incremental_identity(analyzer::testing::synthetic_trace(60'000, 3, true));
  check_incremental_identity(analyzer::testing::synthetic_trace(60'000, 3, false));
}

TEST(ServeIncremental, HandBuiltTraceMatchesGoldenDigestPerSlice) {
  // Address reuse while live, overlapping objects, out-of-table and
  // store-only functions, and the sample-fallback bandwidth meter.
  const trace::Trace t = analyzer::testing::hand_built_trace();
  for (const std::size_t block_events : {std::size_t{1}, std::size_t{2}, t.events.size()}) {
    const auto served = ingest_sliced(t, block_events);
    ASSERT_TRUE(served.has_value()) << served.error();
    SCOPED_TRACE("block_events=" + std::to_string(block_events));
    EXPECT_EQ(analyzer::testing::digest(*served), analyzer::testing::kHandBuiltDigest);
    ASSERT_EQ(served->functions.size(), 4u);
    EXPECT_EQ(served->functions[3].name, "store_only");
  }
}

TEST(ServeIncremental, OutOfTableFunctionIdsSurviveTheArenaMerge) {
  // Samples naming function ids past the function table land in the
  // ordered overflow map beside the per-id arena; a store-only sample
  // still materializes its function's entry with zero load samples.
  trace::Trace t;
  const trace::StackId s = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const std::uint32_t fn = t.functions.intern("known");
  t.events.emplace_back(trace::AllocEvent{1, 1, 0x1000, 4096, s, trace::AllocKind::kMalloc});
  t.events.emplace_back(trace::SampleEvent{2, 0x1004, 2.0, 120.0, false, fn});
  t.events.emplace_back(trace::SampleEvent{3, 0x1008, 1.5, 90.0, false, /*fn=*/7777});
  t.events.emplace_back(trace::SampleEvent{4, 0x100c, 1.0, 0.0, true, /*fn=*/8888});
  t.events.emplace_back(trace::FreeEvent{5, 1});

  const auto offline = analyzer::analyze(t);
  ASSERT_TRUE(offline.has_value()) << offline.error();
  ASSERT_EQ(offline->functions.size(), 3u);
  EXPECT_EQ(offline->functions[0].name, "?");
  EXPECT_EQ(offline->functions[0].load_samples, 1.5);
  EXPECT_EQ(offline->functions[1].name, "?");
  EXPECT_EQ(offline->functions[1].load_samples, 0.0);
  EXPECT_EQ(offline->functions[2].name, "known");
  for (const std::size_t block_events : {std::size_t{1}, std::size_t{2}}) {
    const auto served = ingest_sliced(t, block_events);
    ASSERT_TRUE(served.has_value()) << served.error();
    SCOPED_TRACE("block_events=" + std::to_string(block_events));
    expect_identical(*offline, *served);
  }
}

TEST(ServeIncremental, MalformedTraceFailsIdenticallyAcrossSlices) {
  // A double free fails with the same error text whether the stream
  // arrives in one slice or one event at a time.
  trace::Trace t;
  const trace::StackId s = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  t.events.emplace_back(trace::AllocEvent{1, 7, 0x1000, 64, s, trace::AllocKind::kMalloc});
  t.events.emplace_back(trace::FreeEvent{2, 7});
  t.events.emplace_back(trace::FreeEvent{3, 7});

  const auto one_shot = analyzer::analyze(t);
  ASSERT_FALSE(one_shot.has_value());
  const auto sliced = ingest_sliced(t, 1);
  ASSERT_FALSE(sliced.has_value());
  EXPECT_EQ(one_shot.error(), sliced.error());
}

TEST(ServeIncremental, FinalizeIsRepeatable) {
  // finalize() is const: a mid-stream snapshot then more ingest then a
  // second snapshot must equal a fresh aggregator over each prefix, and
  // back-to-back snapshots with no ingest between them are equal. The
  // synthetic trace keeps thousands of objects live across the cut and
  // reuses addresses while objects are live.
  for (const auto& [label, t] :
       {std::pair<const char*, trace::Trace>{"hpcg", profile_app("hpcg")},
        std::pair<const char*, trace::Trace>{
            "synthetic", analyzer::testing::synthetic_trace(100'000, 1, true)}}) {
    SCOPED_TRACE(label);
    const std::size_t half = t.events.size() / 2;

    analyzer::IncrementalAggregator inc(t.stacks, t.functions);
    ASSERT_TRUE(inc.ingest(t.events.data(), half).ok());
    const auto mid = inc.finalize();
    ASSERT_TRUE(mid.has_value()) << mid.error();
    const auto mid_again = inc.finalize();
    ASSERT_TRUE(mid_again.has_value()) << mid_again.error();
    expect_identical(*mid, *mid_again);

    trace::Trace prefix;
    prefix.stacks = t.stacks;
    prefix.functions = t.functions;
    prefix.sample_rate_hz = t.sample_rate_hz;
    prefix.events.assign(t.events.begin(), t.events.begin() + static_cast<std::ptrdiff_t>(half));
    const auto offline_mid = analyzer::analyze(prefix);
    ASSERT_TRUE(offline_mid.has_value()) << offline_mid.error();
    expect_identical(*offline_mid, *mid);

    ASSERT_TRUE(inc.ingest(t.events.data() + half, t.events.size() - half).ok());
    const auto full = inc.finalize();
    ASSERT_TRUE(full.has_value()) << full.error();
    const auto full_again = inc.finalize();
    ASSERT_TRUE(full_again.has_value()) << full_again.error();
    expect_identical(*full, *full_again);
    const auto offline_full = analyzer::analyze(t);
    ASSERT_TRUE(offline_full.has_value()) << offline_full.error();
    expect_identical(*offline_full, *full);
  }
}

TEST(ServeIncremental, SemanticErrorIsSticky) {
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  trace::FunctionTable functions;
  analyzer::IncrementalAggregator inc(stacks, functions);

  std::vector<trace::Event> bad;
  bad.emplace_back(trace::AllocEvent{1, 7, 0x1000, 64, s, trace::AllocKind::kMalloc});
  bad.emplace_back(trace::FreeEvent{2, 7});
  bad.emplace_back(trace::FreeEvent{3, 7});
  const auto status = inc.ingest(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("unknown object"), std::string::npos);

  // Later (healthy) blocks do not clear the error; finalize keeps failing.
  std::vector<trace::Event> good;
  good.emplace_back(trace::AllocEvent{4, 8, 0x2000, 64, s, trace::AllocKind::kMalloc});
  EXPECT_FALSE(inc.ingest(good).ok());
  EXPECT_FALSE(inc.finalize().has_value());
  EXPECT_EQ(inc.error(), status.error());
}

// ---------------------------------------------------------------------
// Session: queue + applier + snapshot cache. These suites are part of
// the ci.sh concurrency filter (TSan + lockdep).

TEST(ServeConcurrencySession, SnapshotMatchesOfflineAcrossBlockSizes) {
  const trace::Trace t = profile_app("hpcg");
  const auto offline = analyzer::analyze(t);
  ASSERT_TRUE(offline.has_value()) << offline.error();

  for (const std::size_t block_events : {std::size_t{256}, std::size_t{4096}}) {
    Session session(1, header_of(t), SessionOptions{});
    std::uint64_t accepted = 0;
    for (auto& block : partition(t.events, block_events)) {
      ASSERT_EQ(session.enqueue_block(std::move(block)), Session::Enqueue::kAccepted);
      ++accepted;
    }
    const auto snap = session.snapshot();
    ASSERT_TRUE(snap.has_value()) << snap.error();
    EXPECT_EQ(snap->epoch, accepted);
    EXPECT_EQ(snap->events, t.events.size());
    SCOPED_TRACE("block_events=" + std::to_string(block_events));
    expect_identical(*offline, *snap->analysis);
  }
}

TEST(ServeConcurrencySession, SnapshotCacheSharedPerEpoch) {
  const trace::Trace t = profile_app("minife");
  Session session(1, header_of(t), SessionOptions{});
  auto blocks = partition(t.events, 1024);
  ASSERT_GE(blocks.size(), 2u);
  ASSERT_EQ(session.enqueue_block(std::move(blocks[0])), Session::Enqueue::kAccepted);

  const auto first = session.snapshot();
  ASSERT_TRUE(first.has_value()) << first.error();
  const auto again = session.snapshot();
  ASSERT_TRUE(again.has_value()) << again.error();
  EXPECT_EQ(first->analysis.get(), again->analysis.get()) << "same epoch, same cached result";

  ASSERT_EQ(session.enqueue_block(std::move(blocks[1])), Session::Enqueue::kAccepted);
  const auto later = session.snapshot();
  ASSERT_TRUE(later.has_value()) << later.error();
  EXPECT_GT(later->epoch, first->epoch);
  EXPECT_NE(later->analysis.get(), first->analysis.get());
}

TEST(ServeConcurrencySession, DroppedBlocksDegradeCoverage) {
  const trace::Trace t = profile_app("minife");
  Session session(1, header_of(t), SessionOptions{});
  auto blocks = partition(t.events, t.events.size());
  ASSERT_EQ(session.enqueue_block(std::move(blocks[0])), Session::Enqueue::kAccepted);
  session.note_dropped_block(500);

  const auto snap = session.snapshot();
  ASSERT_TRUE(snap.has_value()) << snap.error();
  EXPECT_TRUE(snap->analysis->coverage.salvaged);
  EXPECT_EQ(snap->analysis->coverage.events_seen, t.events.size());
  EXPECT_EQ(snap->analysis->coverage.events_declared, t.events.size() + 500);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.blocks_dropped, 1u);
  EXPECT_EQ(stats.events_declared, t.events.size() + 500);
  EXPECT_TRUE(stats.error.empty());
}

TEST(ServeConcurrencySession, PoisonedSessionKeepsFailing) {
  trace::codec::HeaderInfo h;
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  h.stacks = stacks;
  Session session(1, h, SessionOptions{});

  std::vector<trace::Event> bad;
  bad.emplace_back(trace::AllocEvent{1, 7, 0x1000, 64, s, trace::AllocKind::kMalloc});
  bad.emplace_back(trace::FreeEvent{2, 7});
  bad.emplace_back(trace::FreeEvent{3, 7});
  ASSERT_EQ(session.enqueue_block(std::move(bad)), Session::Enqueue::kAccepted);

  const auto snap = session.snapshot();
  ASSERT_FALSE(snap.has_value());
  EXPECT_NE(snap.error().find("unknown object"), std::string::npos);

  // The queue still drains and stats report the sticky error.
  std::vector<trace::Event> good;
  good.emplace_back(trace::AllocEvent{4, 8, 0x2000, 64, s, trace::AllocKind::kMalloc});
  ASSERT_EQ(session.enqueue_block(std::move(good)), Session::Enqueue::kAccepted);
  EXPECT_FALSE(session.snapshot().has_value());
  EXPECT_FALSE(session.stats().error.empty());
}

TEST(ServeConcurrencySession, BoundedQueueReportsBusy) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;

  SessionOptions opts;
  opts.queue_blocks = 1;
  opts.before_apply = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return release; });
  };

  trace::codec::HeaderInfo h;
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  h.stacks = stacks;
  Session session(1, h, opts);

  const auto block = [&](std::uint64_t id) {
    std::vector<trace::Event> events;
    events.emplace_back(
        trace::AllocEvent{id, id, 0x1000 * id, 64, s, trace::AllocKind::kMalloc});
    return events;
  };

  // Block 1 is popped by the applier, which then parks in
  // before_apply. Wait for the pop (queue observably empty) so the
  // rest is deterministic: block 2 fills the queue, block 3 bounces.
  ASSERT_EQ(session.enqueue_block(block(1)), Session::Enqueue::kAccepted);
  while (session.stats().queue_depth != 0) std::this_thread::yield();
  ASSERT_EQ(session.enqueue_block(block(2)), Session::Enqueue::kAccepted);
  ASSERT_EQ(session.enqueue_block(block(3)), Session::Enqueue::kBusy);

  // Backpressure rejects without losing anything already accepted:
  // release the gate and both accepted blocks land.
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  const auto snap = session.snapshot();
  ASSERT_TRUE(snap.has_value()) << snap.error();
  EXPECT_EQ(snap->epoch, 2u);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.blocks_accepted, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeConcurrencySession, ConcurrentQueriesDuringIngest) {
  // One writer streams blocks while two readers snapshot/stat
  // continuously; the final snapshot must be bit-identical to the
  // offline analysis — mid-ingest queries must not perturb the store.
  const trace::Trace t = profile_app("phase-shift");
  const auto offline = analyzer::analyze(t);
  ASSERT_TRUE(offline.has_value()) << offline.error();

  Session session(1, header_of(t), SessionOptions{});
  std::atomic<bool> ingest_done{false};

  std::thread writer([&] {
    for (const auto& block : partition(t.events, 512)) {
      for (;;) {  // enqueue consumes its argument, so retry with a copy
        auto copy = block;
        if (session.enqueue_block(std::move(copy)) == Session::Enqueue::kAccepted) break;
      }
    }
    ingest_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!ingest_done.load()) {
        const auto snap = session.snapshot();
        ASSERT_TRUE(snap.has_value()) << snap.error();
        // Epochs only move forward; events only grow.
        ASSERT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        (void)session.stats();
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  const auto final_snap = session.snapshot();
  ASSERT_TRUE(final_snap.has_value()) << final_snap.error();
  EXPECT_EQ(final_snap->events, t.events.size());
  expect_identical(*offline, *final_snap->analysis);
}

TEST(ServeConcurrencySession, SnapshotIsNotStarvedByAFullQueue) {
  // The writer keeps the ingest queue full, so the applier never runs
  // dry. A snapshot must still be cut once the blocks it flushed are
  // applied, not whenever the writer happens to stop.
  trace::codec::HeaderInfo h;
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  h.stacks = stacks;
  const SessionOptions opts;
  Session session(1, h, opts);

  std::vector<trace::Event> first;
  first.emplace_back(trace::AllocEvent{1, 1, 0x1000, 64, s, trace::AllocKind::kMalloc});
  ASSERT_EQ(session.enqueue_block(std::move(first)), Session::Enqueue::kAccepted);
  const std::vector<trace::Event> samples(
      4096, trace::Event{trace::SampleEvent{2, 0x1010, 1.0, 100.0, false, 0}});

  constexpr std::uint64_t kBudget = 5'000;  // blocks: dozens of queues' worth
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> accepted{1};
  std::thread writer([&] {
    while (!stop.load() && accepted.load() < kBudget) {
      auto copy = samples;
      if (session.enqueue_block(std::move(copy)) == Session::Enqueue::kAccepted) {
        accepted.fetch_add(1);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));  // a client's BUSY backoff
      }
    }
  });
  while (accepted.load() < opts.queue_blocks) std::this_thread::yield();

  // The snapshot flushes what was accepted before it, and at most one
  // more block lands before it is cut. Between reading the counter and
  // the snapshot's own flush the writer can only refill what the
  // applier drains meanwhile; four queues' worth bounds that with a
  // wide margin, while a snapshot left waiting on the store sees
  // blocks go by for as long as the writer keeps the queue full.
  const std::uint64_t accepted_before = accepted.load();
  const auto snap = session.snapshot();
  stop.store(true);
  writer.join();
  ASSERT_TRUE(snap.has_value()) << snap.error();
  EXPECT_GE(snap->epoch, accepted_before);
  EXPECT_LE(snap->epoch, accepted_before + 4 * opts.queue_blocks)
      << "the applier kept the snapshot waiting";
  EXPECT_EQ(snap->events, 1 + (snap->epoch - 1) * samples.size());
}

TEST(ServeConcurrencySession, ManagerShardsSessionsById) {
  SessionManager manager(SessionOptions{}, /*max_sessions=*/3);
  trace::codec::HeaderInfo h;
  const auto s1 = manager.create(h);
  const auto s2 = manager.create(h);
  const auto s3 = manager.create(h);
  ASSERT_TRUE(s1.has_value() && s2.has_value() && s3.has_value());
  EXPECT_FALSE(manager.create(h).has_value()) << "session limit must gate create";

  EXPECT_EQ(manager.find((*s2)->id()).get(), s2->get());
  EXPECT_EQ(manager.find(999), nullptr);
  EXPECT_EQ(manager.size(), 3u);

  const auto all = manager.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LT(all[0]->id(), all[1]->id());
  EXPECT_LT(all[1]->id(), all[2]->id());

  EXPECT_TRUE(manager.erase((*s1)->id()));
  EXPECT_FALSE(manager.erase((*s1)->id()));
  EXPECT_EQ(manager.size(), 2u);
  // A live reference outlives the registry entry.
  EXPECT_EQ((*s1)->stats().session_id, (*s1)->id());
}

TEST(ServeConcurrencySession, ConcurrentManagerCreateFindErase) {
  SessionManager manager(SessionOptions{}, /*max_sessions=*/1024);
  trace::codec::HeaderInfo h;
  std::vector<std::thread> workers;
  std::atomic<int> created{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < 32; ++i) {
        const auto session = manager.create(h);
        ASSERT_TRUE(session.has_value()) << session.error();
        created.fetch_add(1);
        ASSERT_NE(manager.find((*session)->id()), nullptr);
        if (i % 2 == 0) {
          ASSERT_TRUE(manager.erase((*session)->id()));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(created.load(), 128);
  EXPECT_EQ(manager.size(), 64u);
}

}  // namespace
}  // namespace ecohmem::serve

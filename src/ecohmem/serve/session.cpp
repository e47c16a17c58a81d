#include "ecohmem/serve/session.hpp"

#include <algorithm>
#include <utility>

namespace ecohmem::serve {

Session::Session(std::uint64_t id, trace::codec::HeaderInfo header, SessionOptions options)
    : id_(id),
      header_(std::move(header)),
      options_(std::move(options)),
      store_(header_.stacks, header_.functions, options_.analyzer) {
  applier_ = std::thread([this] { applier_loop(); });
}

Session::~Session() {
  {
    common::ScopedLock lock(queue_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  applier_.join();
}

Session::Enqueue Session::enqueue_block(std::vector<trace::Event> events) {
  {
    common::ScopedLock lock(queue_mu_);
    if (stopping_) return Enqueue::kClosed;
    if (queue_.size() >= options_.queue_blocks) return Enqueue::kBusy;
    queue_.push_back(std::move(events));
    ++accepted_blocks_;
  }
  work_cv_.notify_one();
  return Enqueue::kAccepted;
}

void Session::note_dropped_block(std::uint64_t declared_events) {
  common::ScopedLock lock(store_mu_);
  ++dropped_blocks_;
  dropped_events_ += declared_events;
}

void Session::applier_loop() {
  for (;;) {
    std::vector<trace::Event> block;
    {
      common::ScopedLock lock(queue_mu_);
      work_cv_.wait(queue_mu_, [this] {
        queue_mu_.assert_held();
        return snapshots_waiting_ == 0 && (stopping_ || !queue_.empty());
      });
      // Drain semantics: keep applying until the queue is empty even
      // when stopping — accepted blocks are never dropped.
      if (queue_.empty()) return;
      block = std::move(queue_.front());
      queue_.pop_front();
    }
    if (options_.before_apply) options_.before_apply();
    {
      common::ScopedLock lock(store_mu_);
      // A failed ingest poisons the store; later blocks keep the
      // sticky error (snapshot() reports it), but the queue still
      // drains so flush waiters never hang.
      (void)store_.ingest(block);
      ++epoch_;
    }
    {
      common::ScopedLock lock(queue_mu_);
      ++applied_blocks_;
    }
    applied_cv_.notify_all();
  }
}

void Session::flush() { flush_barrier(/*hold_applier=*/false); }

void Session::flush_barrier(bool hold_applier) {
  common::ScopedLock lock(queue_mu_);
  const std::uint64_t target = accepted_blocks_;
  applied_cv_.wait(queue_mu_, [this, target] {
    queue_mu_.assert_held();
    return applied_blocks_ >= target;
  });
  if (hold_applier) ++snapshots_waiting_;
}

Expected<Session::Snapshot> Session::snapshot() {
  // Flush barrier: every block accepted before this call must be
  // applied. Blocks accepted *during* the wait may also land — the
  // snapshot is then simply a later consistent prefix.
  //
  // The barrier also holds the applier: it finishes the block it may
  // have popped and starts no other until the snapshot is cut. The
  // store mutex is not fair, so an applier that re-locks it between
  // back-to-back blocks would otherwise keep the snapshot waiting for
  // as long as the ingest queue stays non-empty.
  flush_barrier(/*hold_applier=*/true);
  auto snap = cut_snapshot();
  {
    common::ScopedLock lock(queue_mu_);
    --snapshots_waiting_;
  }
  work_cv_.notify_one();
  return snap;
}

Expected<Session::Snapshot> Session::cut_snapshot() {
  common::ScopedLock lock(store_mu_);
  if (!store_.error().empty()) return unexpected(store_.error());
  if (cached_ != nullptr && cached_epoch_ == epoch_) {
    return Snapshot{epoch_, store_.events_ingested(), cached_};
  }
  trace::TraceCoverage coverage;
  coverage.events_seen = store_.events_ingested();
  coverage.events_declared = store_.events_ingested() + dropped_events_;
  coverage.salvaged = dropped_blocks_ > 0;
  auto analysis = store_.finalize(coverage);
  if (!analysis) return unexpected(analysis.error());
  cached_ = std::make_shared<const analyzer::AnalysisResult>(std::move(*analysis));
  cached_epoch_ = epoch_;
  return Snapshot{epoch_, store_.events_ingested(), cached_};
}

SessionStats Session::stats() {
  SessionStats out;
  out.session_id = id_;
  out.attached_clients = attach_count_.load(std::memory_order_relaxed);
  {
    common::ScopedLock lock(queue_mu_);
    out.blocks_accepted = accepted_blocks_;
    out.queue_depth = static_cast<std::uint32_t>(queue_.size());
  }
  {
    common::ScopedLock lock(store_mu_);
    out.epoch = epoch_;
    out.blocks_dropped = dropped_blocks_;
    out.events_seen = store_.events_ingested();
    out.events_declared = store_.events_ingested() + dropped_events_;
    out.error = store_.error();
  }
  return out;
}

SessionManager::SessionManager(SessionOptions defaults, std::size_t max_sessions)
    : defaults_(std::move(defaults)), max_sessions_(max_sessions) {}

Expected<std::shared_ptr<Session>> SessionManager::create(trace::codec::HeaderInfo header) {
  if (count_.load(std::memory_order_relaxed) >= max_sessions_) {
    return unexpected("session limit reached (" + std::to_string(max_sessions_) + ")");
  }
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto session = std::make_shared<Session>(id, std::move(header), defaults_);
  Shard& shard = shard_of(id);
  {
    common::ScopedWriteLock lock(shard.mu);
    shard.sessions.emplace(id, session);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

std::shared_ptr<Session> SessionManager::find(std::uint64_t id) {
  Shard& shard = shard_of(id);
  common::SharedScopedLock lock(shard.mu);
  const auto it = shard.sessions.find(id);
  return it == shard.sessions.end() ? nullptr : it->second;
}

bool SessionManager::erase(std::uint64_t id) {
  std::shared_ptr<Session> victim;  // destroyed after the lock drops
  Shard& shard = shard_of(id);
  {
    common::ScopedWriteLock lock(shard.mu);
    const auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return false;
    victim = std::move(it->second);
    shard.sessions.erase(it);
  }
  count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::vector<std::shared_ptr<Session>> SessionManager::all() {
  std::vector<std::shared_ptr<Session>> out;
  for (auto& shard : shards_) {
    common::SharedScopedLock lock(shard.mu);
    // srclint-ok: det-unordered-iter (sorted by id below)
    for (const auto& [id, session] : shard.sessions) {
      (void)id;
      out.push_back(session);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) { return a->id() < b->id(); });
  return out;
}

}  // namespace ecohmem::serve

#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "index/distance_cache.h"
#include "server/identity_map.h"

namespace netclus {
namespace {

constexpr size_t kWaitRingCapacity = 1 << 16;

// WAL page size: the storage stack's standard 4 KiB frame (128 records).
constexpr uint32_t kWalPageSize = 4096;

// Deadline-miss-rate degradation needs at least this many samples in
// the window before it can flip health — a couple of early misses on a
// cold server must not read as degradation.
constexpr size_t kMinHealthSamples = 16;

// Cold-start backpressure model: with no measured service time yet,
// assume roughly this much work per queued request. Deliberately rough;
// replaced by the measured mean once the first request completes.
constexpr double kColdStartPerRequestMs = 0.05;

}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    Network net, PointSet points, const QueryServerOptions& options) {
  if (options.max_queue_depth == 0) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  // The live world keeps point placements in raw (re-buildable) form so
  // kAddPoint mutations compose with the initial population.
  std::vector<NetworkUpdate> raws;
  raws.reserve(points.size());
  for (size_t g = 0; g < points.num_groups(); ++g) {
    const PointSet::Group& grp = points.group(g);
    for (uint32_t i = 0; i < grp.count; ++i) {
      PointId p = grp.first + i;
      raws.push_back(
          NetworkUpdate::AddPoint(grp.u, grp.v, points.offset(p),
                                  points.label(p)));
    }
  }
  auto server = std::unique_ptr<QueryServer>(new QueryServer(
      std::move(net), std::move(raws), options));
  // Crash recovery happens before the first publish: the recovered
  // mutations are part of the boot world, so epoch 1 already serves
  // them. A corrupt log fails Start — no epoch is ever built from a
  // partially trusted record sequence.
  if (options.wal_file != nullptr || !options.wal_path.empty()) {
    NETCLUS_RETURN_IF_ERROR(server->RecoverFromWal());
  }
  // Epoch 1 publishes before any thread starts; a failing initial
  // clustering (or freeze) fails Start instead of leaving a server with
  // nothing to serve.
  NETCLUS_RETURN_IF_ERROR(server->PublishWorld());
  // Node count is fixed at Start, so each worker sizes its workspace
  // once, here, before the updater starts mutating the live network.
  const NodeId num_nodes = server->net_.num_nodes();
  const uint32_t num_workers = server->epochs_.num_pin_slots();
  server->workers_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    server->workers_.emplace_back(
        [s = server.get(), w, num_nodes] { s->WorkerLoop(w, num_nodes); });
  }
  server->updater_ = std::thread([s = server.get()] { s->UpdaterLoop(); });
  server->watchdog_ = std::thread([s = server.get()] { s->WatchdogLoop(); });
  return server;
}

QueryServer::QueryServer(Network net, std::vector<NetworkUpdate> raw_points,
                         const QueryServerOptions& options)
    : options_(options),
      net_(std::move(net)),
      raw_points_(std::move(raw_points)),
      epochs_(ResolveNumThreads(options.num_workers)),
      chaos_publish_rng_(Rng::DeriveSeed(options.chaos.seed, 1)) {
  // Boot identity: points take ObjectIds 0..n-1 in their dense boot
  // order (the raws were extracted from the PointSet in group order, so
  // the boot epoch's identity map is exactly the identity permutation),
  // then edges take the next ids in canonical Edges() order. WAL replay
  // re-allocates from here deterministically, so an ObjectId survives a
  // crash even without a checkpoint.
  point_object_ids_.reserve(raw_points_.size());
  for (size_t i = 0; i < raw_points_.size(); ++i) {
    point_object_ids_.push_back(next_object_id_++);
  }
  for (const Edge& e : net_.Edges()) {
    edge_object_ids_[EdgeKeyOf(e.u, e.v)] = next_object_id_++;
  }
  wait_ring_.reserve(kWaitRingCapacity);
  outcome_ring_.assign(options_.health_window, 0);
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::RecoverFromWal() {
  PagedFile* file = options_.wal_file;
  if (file == nullptr) {
    NETCLUS_ASSIGN_OR_RETURN(
        owned_wal_file_,
        PagedFile::Open(options_.wal_path, kWalPageSize, /*truncate=*/false));
    file = owned_wal_file_.get();
  }
  NETCLUS_ASSIGN_OR_RETURN(wal_, MutationWal::Open(file));

  // The checkpoint store opens whenever one can exist: injected slot
  // files, or a path-backed WAL (a previous run may have checkpointed
  // even if this run's wal_checkpoint_every is 0 — a compacted log is
  // unusable without its checkpoint).
  if (options_.checkpoint_file_a != nullptr ||
      options_.checkpoint_file_b != nullptr) {
    if (options_.checkpoint_file_a == nullptr ||
        options_.checkpoint_file_b == nullptr) {
      return Status::InvalidArgument(
          "checkpoint_file_a/b must be set together");
    }
    checkpoints_ = std::make_unique<CheckpointStore>(
        options_.checkpoint_file_a, options_.checkpoint_file_b);
  } else if (!options_.wal_path.empty()) {
    NETCLUS_ASSIGN_OR_RETURN(
        checkpoints_, CheckpointStore::Open(options_.wal_path, kWalPageSize));
  }

  // Recovery order: newest durable checkpoint first (it replaces the
  // caller-provided base world), then the uncovered log suffix on top.
  uint64_t skip = 0;
  bool from_checkpoint = false;
  if (checkpoints_ != nullptr) {
    CheckpointState state;
    bool found = false;
    NETCLUS_RETURN_IF_ERROR(checkpoints_->ReadLatest(&state, &found));
    if (found) {
      if (state.covers_seq < wal_->start_seq()) {
        // The log was compacted past what this checkpoint covers — a
        // newer checkpoint must have existed and is gone. Refuse to
        // guess the gap.
        return Status::Corruption(
            "wal: log starts at seq " + std::to_string(wal_->start_seq()) +
            " but the newest checkpoint only covers seq " +
            std::to_string(state.covers_seq));
      }
      NETCLUS_RETURN_IF_ERROR(RestoreFromCheckpoint(state));
      ckpt_generation_ = state.generation;
      skip = state.covers_seq - wal_->start_seq();
      if (skip > wal_->recovery().records.size()) {
        skip = wal_->recovery().records.size();
      }
      from_checkpoint = true;
      MutexLock lock(&stats_mu_);
      wal_checkpoint_covers_ = state.covers_seq;
    }
  }
  if (!from_checkpoint && wal_->start_seq() > 0) {
    return Status::Corruption(
        "wal: log was compacted (starts at seq " +
        std::to_string(wal_->start_seq()) +
        ") but no valid covering checkpoint exists");
  }

  const std::vector<NetworkUpdate>& records = wal_->recovery().records;
  for (size_t i = static_cast<size_t>(skip); i < records.size(); ++i) {
    Status applied = ApplyToWorld(records[i]);
    // Records are logged before they are applied, so a mutation the
    // live server rejected (kInvalidArgument) is in the log too — and
    // replaying it fails identically, reproducing the same world. Any
    // other failure is a real recovery error.
    if (!applied.ok() && !applied.IsInvalidArgument()) return applied;
  }
  {
    // Start is single-threaded here, but wal_recovered_ lives with the
    // serving statistics, so it is written under their lock like
    // everything else the analysis guards.
    MutexLock lock(&stats_mu_);
    wal_recovered_ = records.size() - static_cast<size_t>(skip);
    wal_recovered_from_checkpoint_ = from_checkpoint;
  }
  return Status::OK();
}

Status QueryServer::RestoreFromCheckpoint(const CheckpointState& state) {
  if (state.num_nodes != net_.num_nodes()) {
    return Status::Corruption(
        "checkpoint names " + std::to_string(state.num_nodes) +
        " nodes but the boot network has " +
        std::to_string(net_.num_nodes()) +
        " (node count is fixed at Start)");
  }
  Network restored(state.num_nodes);
  edge_object_ids_.clear();
  edge_object_ids_.reserve(state.edges.size());
  for (const CheckpointEdge& e : state.edges) {
    NETCLUS_RETURN_IF_ERROR(restored.AddEdge(e.u, e.v, e.weight));
    edge_object_ids_[EdgeKeyOf(e.u, e.v)] = e.oid;
  }
  net_ = std::move(restored);
  raw_points_.clear();
  raw_points_.reserve(state.points.size());
  point_object_ids_.clear();
  point_object_ids_.reserve(state.points.size());
  for (const CheckpointPoint& p : state.points) {
    raw_points_.push_back(NetworkUpdate::AddPoint(p.u, p.v, p.offset,
                                                  p.label));
    point_object_ids_.push_back(p.oid);
  }
  next_object_id_ = state.next_object_id;
  return Status::OK();
}

CheckpointState QueryServer::BuildCheckpointState() const {
  CheckpointState state;
  state.covers_seq = wal_->next_seq();
  state.next_object_id = next_object_id_;
  state.num_nodes = net_.num_nodes();
  std::vector<Edge> edges = net_.Edges();
  state.edges.reserve(edges.size());
  for (const Edge& e : edges) {
    auto it = edge_object_ids_.find(EdgeKeyOf(e.u, e.v));
    const ObjectId oid =
        it != edge_object_ids_.end() ? it->second : kInvalidObjectId;
    state.edges.push_back(CheckpointEdge{e.u, e.v, e.weight, oid});
  }
  state.points.reserve(raw_points_.size());
  for (size_t i = 0; i < raw_points_.size(); ++i) {
    const NetworkUpdate& p = raw_points_[i];
    state.points.push_back(CheckpointPoint{p.u, p.v, p.value, p.label,
                                           point_object_ids_[i]});
  }
  return state;
}

void QueryServer::MaybeCheckpoint() {
  if (wal_ == nullptr || checkpoints_ == nullptr ||
      options_.wal_checkpoint_every == 0 || wal_->broken()) {
    return;
  }
  if (wal_->num_records() < options_.wal_checkpoint_every) return;
  // Order is the crash-safety argument: the checkpoint is durable
  // BEFORE the log shrinks. A crash after Write but before TruncateTo
  // just replays records the checkpoint already covers (replay is
  // idempotent: it skips the covered prefix).
  CheckpointState state = BuildCheckpointState();
  state.generation = ckpt_generation_ + 1;
  Status written = checkpoints_->Write(state);
  if (!written.ok()) {
    MutexLock lock(&stats_mu_);
    ++checkpoint_failures_;
    return;
  }
  ckpt_generation_ = state.generation;
  Status truncated = wal_->TruncateTo(state.covers_seq);
  if (wal_->broken()) wal_broken_.store(true, std::memory_order_relaxed);
  if (!truncated.ok()) {
    // The checkpoint is durable; only the log is still long. The next
    // cycle retries the truncate (via a fresh checkpoint generation).
    MutexLock lock(&stats_mu_);
    ++checkpoint_failures_;
    return;
  }
  MutexLock lock(&stats_mu_);
  ++checkpoints_written_;
  wal_checkpoint_covers_ = state.covers_seq;
}

Status QueryServer::PublishWorld(const std::vector<NetworkUpdate>* batch) {
  const double start_seconds = clock_.ElapsedSeconds();
  PointSetBuilder builder;
  for (const NetworkUpdate& p : raw_points_) {
    builder.Add(p.u, p.v, p.value, p.label);
  }
  std::vector<PointId> raw_to_final;
  NETCLUS_ASSIGN_OR_RETURN(PointSet ps,
                           std::move(builder).Build(net_, &raw_to_final));
  auto points = std::make_shared<const PointSet>(std::move(ps));

  // The epoch's identity map: dense point p was raw point i, so it
  // carries raw point i's stable ObjectId.
  std::vector<ObjectId> object_of_point(point_object_ids_.size(),
                                        kInvalidObjectId);
  for (size_t i = 0; i < raw_to_final.size(); ++i) {
    object_of_point[raw_to_final[i]] = point_object_ids_[i];
  }
  auto ids = std::make_shared<const IdentityMap>(std::move(object_of_point));

  InMemoryNetworkView live_view(net_, *points);

  // Incremental splice: when this publish came from a known mutation
  // batch and a predecessor snapshot exists, only the rows of nodes an
  // AddEdge touched are re-materialized — every other CSR row is copied
  // verbatim from the retiring snapshot.
  std::shared_ptr<const EpochSnapshot> prev = epochs_.CurrentShared();
  bool incremental = false;
  bool metric_changed = batch == nullptr;
  std::vector<char> dirty;
  if (batch != nullptr) {
    for (const NetworkUpdate& upd : *batch) {
      if (upd.kind != NetworkUpdate::Kind::kAddEdge) continue;
      metric_changed = true;
      if (options_.incremental_publish && prev != nullptr) {
        if (dirty.empty()) dirty.assign(net_.num_nodes(), 0);
        if (upd.u < net_.num_nodes()) dirty[upd.u] = 1;
        if (upd.v < net_.num_nodes()) dirty[upd.v] = 1;
      }
    }
    incremental = options_.incremental_publish && prev != nullptr;
  }
  FrozenGraph fg;
  if (incremental) {
    if (dirty.empty()) dirty.assign(net_.num_nodes(), 0);
    fg = FrozenGraph::MaterializeIncremental(live_view, prev->frozen(), dirty);
    NETCLUS_RETURN_IF_ERROR(live_view.status());
    bool validate = options_.validate_replay;
#if defined(NETCLUS_VALIDATE)
    validate = true;
#endif
    if (validate) {
      // The oracle: a from-scratch rebuild must be byte-for-byte the
      // spliced one. A divergence fails the publish — queries keep
      // serving the last good epoch, never a mis-spliced one.
      FrozenGraph full = FrozenGraph::Materialize(live_view);
      NETCLUS_RETURN_IF_ERROR(live_view.status());
      if (!fg.BitIdenticalTo(full)) {
        return Status::Internal(
            "incremental publish diverged from full rebuild");
      }
    }
  } else {
    NETCLUS_ASSIGN_OR_RETURN(fg, live_view.Freeze());
  }
  auto graph = std::make_shared<const FrozenGraph>(std::move(fg));

  std::shared_ptr<const ClusterOutput> clusters;
  if (options_.cluster_spec.has_value()) {
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                             RunClustering(live_view, *options_.cluster_spec));
    clusters = std::make_shared<const ClusterOutput>(std::move(out));
  }

  // Distance cache carry-over: the cache keys on ObjectId pairs, so its
  // entries stay correct for as long as the metric (edge set + weights)
  // is unchanged. A point-only batch therefore hands the SAME cache to
  // the new epoch — warm entries survive republication of untouched
  // regions — while any edge mutation (or a publish with no batch
  // provenance) replaces it fresh, so no batch can ever read a distance
  // the serving adjacency does not produce.
  if (options_.cache_capacity > 0 &&
      (metric_changed || live_cache_ == nullptr)) {
    live_cache_ = std::make_shared<const DistanceCache>(
        options_.cache_capacity, options_.cache_shards);
  }
  prev.reset();
  epochs_.Publish(std::move(graph), std::move(points), std::move(clusters),
                  live_cache_, std::move(ids));

  const double publish_ms =
      (clock_.ElapsedSeconds() - start_seconds) * 1e3;
  {
    MutexLock lock(&stats_mu_);
    if (incremental) {
      ++publishes_incremental_;
      publish_incremental_ms_.Add(publish_ms);
    } else {
      ++publishes_full_;
      publish_full_ms_.Add(publish_ms);
    }
  }
  return Status::OK();
}

Status QueryServer::ApplyToWorld(const NetworkUpdate& update) {
  // Every successful apply allocates the object's stable ObjectId from
  // the monotone watermark. WAL replay runs the same single-threaded
  // sequence, so a crash/recover re-derives identical ids.
  switch (update.kind) {
    case NetworkUpdate::Kind::kAddEdge: {
      NETCLUS_RETURN_IF_ERROR(net_.AddEdge(update.u, update.v, update.value));
      edge_object_ids_[EdgeKeyOf(update.u, update.v)] = next_object_id_++;
      return Status::OK();
    }
    case NetworkUpdate::Kind::kAddPoint: {
      double w = net_.EdgeWeight(update.u, update.v);
      if (w < 0.0) {
        return Status::InvalidArgument("AddPoint: edge does not exist");
      }
      if (update.value < 0.0 || update.value > w) {
        return Status::InvalidArgument("AddPoint: offset outside edge");
      }
      raw_points_.push_back(update);
      point_object_ids_.push_back(next_object_id_++);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

std::future<Result<QueryResponse>> QueryServer::Submit(
    const QueryRequest& req) {
  PendingQuery pq;
  pq.req = req;
  pq.enqueue_seconds = clock_.ElapsedSeconds();
  std::future<Result<QueryResponse>> fut = pq.promise.get_future();

  // Health probes bypass admission control entirely: they must stay
  // answerable exactly when the queue is full or the server is
  // degraded, and they never cost a worker.
  if (req.kind == QueryKind::kHealthz) {
    QueryResponse resp;
    resp.kind = QueryKind::kHealthz;
    resp.health = CurrentHealth();
    resp.epoch = epochs_.current_epoch();
    pq.promise.set_value(std::move(resp));
    return fut;
  }

  std::shared_ptr<std::atomic<bool>> arm_flag;
  double arm_expiry = 0.0;
  if (req.deadline_ms > 0.0 && std::isfinite(req.deadline_ms)) {
    pq.deadline_seconds = pq.enqueue_seconds + req.deadline_ms * 1e-3;
    pq.cancel_flag = std::make_shared<std::atomic<bool>>(false);
    arm_flag = pq.cancel_flag;
    arm_expiry = pq.deadline_seconds;
  }

  MutexLock lock(&queue_mu_);
  if (stopping_) {
    lock.Unlock();
    pq.promise.set_value(Status::Unavailable("query server is stopping"));
    MutexLock slock(&stats_mu_);
    ++rejected_;
    return fut;
  }
  if (queue_.size() >= options_.max_queue_depth) {
    // Backpressure: reject now with a retry-after hint — the time the
    // workers need to drain the backlog: mean per-request service time
    // (a fixed prior until one request has completed) x queue depth /
    // workers. Clients read the structured field; the text echo is for
    // humans and logs.
    const double depth = static_cast<double>(queue_.size());
    double retry_ms;
    {
      // queue_mu_ (rank 30) -> stats_mu_ (rank 90): the one sanctioned
      // nesting between the serving locks.
      MutexLock slock(&stats_mu_);
      ++rejected_;
      const double per_request_ms =
          batch_ms_.count() > 0 ? batch_ms_.mean() : kColdStartPerRequestMs;
      retry_ms = std::max(0.1, per_request_ms * depth /
                                   static_cast<double>(workers_.size()));
    }
    lock.Unlock();
    pq.promise.set_value(Status::UnavailableWithRetry(
        "query queue full (" + std::to_string(options_.max_queue_depth) +
            " deep); retry after ~" + std::to_string(retry_ms) + " ms",
        retry_ms));
    return fut;
  }
  queue_.push_back(std::move(pq));
  lock.Unlock();
  {
    MutexLock slock(&stats_mu_);
    ++accepted_;
  }
  if (arm_flag != nullptr) ArmDeadline(arm_expiry, std::move(arm_flag));
  queue_cv_.NotifyOne();
  return fut;
}

Result<QueryResponse> QueryServer::Execute(const QueryRequest& req) {
  return Submit(req).get();
}

std::future<Status> QueryServer::SubmitUpdate(const NetworkUpdate& update) {
  PendingUpdate pu;
  pu.update = update;
  std::future<Status> fut = pu.promise.get_future();
  {
    MutexLock lock(&update_mu_);
    if (update_stopping_) {
      pu.promise.set_value(Status::Unavailable("query server is stopping"));
      return fut;
    }
    pu.seq = ++update_seq_;
    update_queue_.push_back(std::move(pu));
  }
  update_cv_.NotifyOne();
  return fut;
}

Status QueryServer::ApplyUpdate(const NetworkUpdate& update) {
  return SubmitUpdate(update).get();
}

Status QueryServer::Flush() {
  MutexLock lock(&update_mu_);
  const uint64_t target = update_seq_;
  while (published_seq_ < target) flush_cv_.Wait(&update_mu_);
  return last_publish_error_;
}

void QueryServer::Stop() {
  stopping_flag_.store(true, std::memory_order_relaxed);
  {
    MutexLock lock(&queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  {
    MutexLock lock(&update_mu_);
    update_stopping_ = true;
  }
  update_cv_.NotifyAll();
  {
    MutexLock lock(&deadline_mu_);
    deadline_stopping_ = true;
  }
  deadline_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (updater_.joinable()) updater_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

ServerHealth QueryServer::CurrentHealth() const {
  if (stopping_flag_.load(std::memory_order_relaxed)) {
    return ServerHealth::kStopping;
  }
  if (wal_broken_.load(std::memory_order_relaxed)) {
    return ServerHealth::kDegraded;
  }
  if (options_.degraded_publish_failures > 0 &&
      consecutive_publish_failures_.load(std::memory_order_relaxed) >=
          options_.degraded_publish_failures) {
    return ServerHealth::kDegraded;
  }
  if (options_.health_window > 0 && options_.degraded_miss_rate > 0.0) {
    MutexLock lock(&stats_mu_);
    const size_t samples =
        outcome_full_ ? outcome_ring_.size() : outcome_next_;
    if (samples >= kMinHealthSamples &&
        DeadlineMissRateLocked() >= options_.degraded_miss_rate) {
      return ServerHealth::kDegraded;
    }
  }
  return ServerHealth::kServing;
}

HealthReport QueryServer::Healthz() const {
  HealthReport report;
  report.health = CurrentHealth();
  report.epoch = epochs_.current_epoch();
  report.consecutive_publish_failures =
      consecutive_publish_failures_.load(std::memory_order_relaxed);
  report.wal_broken = wal_broken_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&stats_mu_);
    report.deadline_miss_rate = DeadlineMissRateLocked();
  }
  {
    MutexLock lock(&queue_mu_);
    report.queue_depth = queue_.size();
  }
  return report;
}

void QueryServer::RecordOutcomeLocked(bool deadline_missed) {
  if (outcome_ring_.empty()) return;
  if (outcome_full_ && outcome_ring_[outcome_next_] != 0) --outcome_misses_;
  outcome_ring_[outcome_next_] = deadline_missed ? 1 : 0;
  if (deadline_missed) ++outcome_misses_;
  if (++outcome_next_ == outcome_ring_.size()) {
    outcome_next_ = 0;
    outcome_full_ = true;
  }
}

double QueryServer::DeadlineMissRateLocked() const {
  const size_t samples = outcome_full_ ? outcome_ring_.size() : outcome_next_;
  if (samples == 0) return 0.0;
  return static_cast<double>(outcome_misses_) / static_cast<double>(samples);
}

void QueryServer::WorkerLoop(uint32_t worker, NodeId num_nodes) {
  TraversalWorkspace ws(num_nodes);
  Rng stall_rng(Rng::DeriveSeed(options_.chaos.seed, 2 + uint64_t{worker}));
  for (;;) {
    PendingQuery pq;
    double now;
    {
      MutexLock lock(&queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(&queue_mu_);
      // Stop joins only once the queue is empty: accepted work always
      // finishes.
      if (queue_.empty()) return;
      pq = std::move(queue_.front());
      queue_.pop_front();
      now = clock_.ElapsedSeconds();
    }
    if (pq.deadline_seconds > 0.0 && now >= pq.deadline_seconds) {
      // Shed a request whose deadline passed while it waited: it
      // resolves with kDeadlineExceeded right here, costing no
      // traversal. It still completes (with an error) — every accepted
      // request resolves exactly once.
      {
        MutexLock slock(&stats_mu_);
        ++completed_;
        ++deadline_expired_;
        RecordOutcomeLocked(true);
      }
      const double late_ms =
          (clock_.ElapsedSeconds() - pq.deadline_seconds) * 1e3;
      pq.promise.set_value(Status::DeadlineExceeded(
          "deadline passed " + std::to_string(late_ms) +
          " ms ago while queued; request shed before execution"));
      continue;
    }
    ExecuteOne(&pq, now, worker, &ws, &stall_rng);
  }
}

void QueryServer::ArmDeadline(double expiry_seconds,
                              std::shared_ptr<std::atomic<bool>> flag) {
  auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.expiry_seconds > b.expiry_seconds;
  };
  {
    MutexLock lock(&deadline_mu_);
    deadline_heap_.push_back(DeadlineEntry{expiry_seconds, std::move(flag)});
    std::push_heap(deadline_heap_.begin(), deadline_heap_.end(), later);
  }
  deadline_cv_.NotifyOne();
}

void QueryServer::WatchdogLoop() {
  auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.expiry_seconds > b.expiry_seconds;
  };
  MutexLock lock(&deadline_mu_);
  for (;;) {
    if (deadline_stopping_) return;
    if (deadline_heap_.empty()) {
      deadline_cv_.Wait(&deadline_mu_);
      continue;
    }
    const double now = clock_.ElapsedSeconds();
    if (deadline_heap_.front().expiry_seconds <= now) {
      // Fire and forget: the flag outlives the request via shared
      // ownership, so firing after completion is harmless.
      deadline_heap_.front().flag->store(true, std::memory_order_relaxed);
      std::pop_heap(deadline_heap_.begin(), deadline_heap_.end(), later);
      deadline_heap_.pop_back();
      continue;
    }
    deadline_cv_.WaitFor(&deadline_mu_,
                         deadline_heap_.front().expiry_seconds - now);
  }
}

void QueryServer::ExecuteOne(PendingQuery* pq, double start_seconds,
                             uint32_t worker, TraversalWorkspace* ws,
                             Rng* stall_rng) {
  // Never empty: Start publishes epoch 1 before any worker starts.
  EpochManager::Pin pin = epochs_.Acquire(worker);
  const EpochSnapshot& snap = *pin.snapshot();

  // Chaos: each worker decides per request, from its own seeded stream,
  // whether to stall before executing.
  if (options_.chaos.worker_stall_prob > 0.0 &&
      stall_rng->NextBernoulli(options_.chaos.worker_stall_prob)) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.chaos.worker_stall_ms));
  }
  const ServerHealth health = CurrentHealth();

  if (pq->cancel_flag != nullptr) {
    ws->cancel.flag = pq->cancel_flag.get();
    ws->cancel.check_interval = options_.cancel_check_interval;
  }
  QueryResponse response;
  Status status = ExecuteQueryInto(snap.view(), &snap.frozen(), pq->req, ws,
                                   snap.cache(), snap.clusters(), &response,
                                   snap.ids());
  // Disarm: the workspace serves the worker's next request, and a stale
  // flag pointer must never cancel a stranger.
  ws->cancel.flag = nullptr;
  ws->cancel.triggered = false;
  response.epoch = snap.epoch();
  response.health = health;

  bool do_replay = options_.validate_replay;
#if defined(NETCLUS_VALIDATE)
  do_replay = true;
#endif
  // A failed (e.g. cancelled) request is not replayed: its partial work
  // can never read as a divergence.
  if (do_replay && status.ok()) {
    Status verdict = ValidateServedBatch(snap.view(), &snap.frozen(),
                                         {pq->req}, {response},
                                         snap.clusters(), snap.ids());
    {
      MutexLock lock(&stats_mu_);
      ++replay_batches_;
      if (!verdict.ok()) ++replay_mismatches_;
    }
    // A divergence means the served epoch path computed something the
    // direct path would not — never hand that out as an answer.
    if (!verdict.ok()) status = verdict;
  }

  // Count the request before fulfilling its promise: a client holding a
  // response must already be visible in stats().completed.
  const double end_seconds = clock_.ElapsedSeconds();
  {
    MutexLock lock(&stats_mu_);
    ++batches_;
    ++completed_;
    batch_ms_.Add((end_seconds - start_seconds) * 1e3);
    const bool missed = status.IsDeadlineExceeded();
    if (missed) ++cancelled_traversals_;
    RecordOutcomeLocked(missed);
    const double wait_ms = (start_seconds - pq->enqueue_seconds) * 1e3;
    queue_wait_ms_.Add(wait_ms);
    if (wait_ring_.size() < kWaitRingCapacity) {
      wait_ring_.push_back(wait_ms);
    } else {
      wait_ring_[wait_ring_next_] = wait_ms;
      wait_ring_next_ = (wait_ring_next_ + 1) % kWaitRingCapacity;
    }
  }

  if (status.ok()) {
    pq->promise.set_value(std::move(response));
  } else {
    pq->promise.set_value(std::move(status));
  }

  // Release the pin before sweeping so a request that outlived its epoch
  // frees that epoch now rather than at the next publish.
  pin.Release();
  epochs_.SweepRetired();
}

void QueryServer::UpdaterLoop() {
  for (;;) {
    std::vector<PendingUpdate> batch;
    {
      MutexLock lock(&update_mu_);
      while (!update_stopping_ && update_queue_.empty()) {
        update_cv_.Wait(&update_mu_);
      }
      if (update_queue_.empty()) {
        if (update_stopping_) return;
        continue;
      }
      batch.reserve(update_queue_.size());
      while (!update_queue_.empty()) {
        batch.push_back(std::move(update_queue_.front()));
        update_queue_.pop_front();
      }
    }
    // Apply every queued mutation, then publish once: bursts of updates
    // coalesce into a single epoch swap. With a WAL configured each
    // mutation is logged durably *before* it touches the live world —
    // the recovery invariant is "everything applied is in the log".
    uint64_t max_seq = 0;
    bool mutated = false;
    uint64_t logged = 0;
    // The mutations that actually landed this round: PublishWorld
    // derives the incremental dirty-node set (and the cache carry-over
    // decision) from exactly these.
    std::vector<NetworkUpdate> applied_batch;
    applied_batch.reserve(batch.size());
    for (PendingUpdate& pu : batch) {
      max_seq = pu.seq;
      if (wal_ != nullptr) {
        Status durable = wal_->Append(pu.update);
        if (wal_->broken()) wal_broken_.store(true, std::memory_order_relaxed);
        if (!durable.ok()) {
          // Not durable → not applied. The caller sees the storage
          // error; the server keeps serving (degraded when the log is
          // broken) but refuses to advance the world past the log.
          pu.promise.set_value(std::move(durable));
          continue;
        }
        ++logged;
      }
      Status applied = ApplyToWorld(pu.update);
      if (applied.ok()) {
        mutated = true;
        applied_batch.push_back(pu.update);
      }
      pu.promise.set_value(std::move(applied));
    }
    if (logged > 0) {
      MutexLock lock(&stats_mu_);
      wal_records_ += logged;
    }
    Status publish = Status::OK();
    if (mutated) {
      if (options_.chaos.publish_failure_prob > 0.0 &&
          chaos_publish_rng_.NextBernoulli(
              options_.chaos.publish_failure_prob)) {
        publish = Status::Internal("chaos: injected publish failure");
      } else {
        publish = PublishWorld(&applied_batch);
      }
      if (publish.ok()) {
        consecutive_publish_failures_.store(0, std::memory_order_relaxed);
        MaybeCheckpoint();
      } else {
        // The epoch manager was not touched: queries keep serving the
        // last good epoch, and the applied mutations ride along with
        // the next successful publish.
        consecutive_publish_failures_.fetch_add(1, std::memory_order_relaxed);
        MutexLock lock(&stats_mu_);
        ++publish_failures_;
      }
    }
    {
      MutexLock lock(&update_mu_);
      published_seq_ = max_seq;
      // Record the outcome of every publish attempt — a success clears a
      // previous failure so Flush() stops reporting it once the world is
      // re-published. Rounds that publish nothing leave it untouched.
      if (mutated) last_publish_error_ = publish;
    }
    flush_cv_.NotifyAll();
  }
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  {
    MutexLock lock(&stats_mu_);
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.batches = batches_;
    s.replay_batches = replay_batches_;
    s.replay_mismatches = replay_mismatches_;
    s.deadline_expired = deadline_expired_;
    s.cancelled_traversals = cancelled_traversals_;
    s.wal_records = wal_records_;
    s.wal_recoveries = wal_recovered_;
    s.publish_failures = publish_failures_;
    s.publishes_full = publishes_full_;
    s.publishes_incremental = publishes_incremental_;
    s.checkpoints_written = checkpoints_written_;
    s.checkpoint_failures = checkpoint_failures_;
    s.wal_recovered_from_checkpoint = wal_recovered_from_checkpoint_ ? 1 : 0;
    s.wal_checkpoint_covers = wal_checkpoint_covers_;
    s.mean_publish_full_ms = publish_full_ms_.mean();
    s.mean_publish_incremental_ms = publish_incremental_ms_.mean();
    s.mean_queue_wait_ms = queue_wait_ms_.mean();
    s.max_queue_wait_ms = queue_wait_ms_.max();
    s.mean_batch_size = batches_ > 0 ? 1.0 : 0.0;
    s.mean_batch_ms = batch_ms_.mean();
  }
  s.epochs_published = epochs_.epochs_published();
  s.epochs_drained = epochs_.epochs_drained();
  s.retired_epochs = epochs_.retired_count();
  {
    MutexLock lock(&queue_mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

std::vector<double> QueryServer::QueueWaitSamplesMs() const {
  MutexLock lock(&stats_mu_);
  return wait_ring_;
}

}  // namespace netclus

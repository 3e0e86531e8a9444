#include "serve/session_shard.h"

#include <algorithm>
#include <cmath>

#include "core/temporal_propagation.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpgnn::serve {

using graph::TemporalEdge;
using tensor::Tensor;

namespace {

// Folds order[from, end) into the raw node state `x` (Algorithm 1 steps).
void FoldNodeState(const core::TemporalPropagation& prop,
                   const std::vector<TemporalEdge>& order, int64_t from,
                   int64_t end, double max_time, Tensor& x,
                   core::PropagationScratch& scratch) {
  for (int64_t i = from; i < end; ++i) {
    const double prev_time =
        i > 0 ? order[static_cast<size_t>(i - 1)].time : 0.0;
    prop.PropagateEdgeState(x, order[static_cast<size_t>(i)], max_time,
                            prev_time, scratch);
  }
}

// Folds order[from, end) into the SUM time accumulator `m` (Eq. 4).
void FoldTimeState(const core::TemporalPropagation& prop,
                   const std::vector<TemporalEdge>& order, int64_t from,
                   int64_t end, double max_time, Tensor& m,
                   core::PropagationScratch& scratch) {
  for (int64_t i = from; i < end; ++i) {
    prop.AccumulateEdgeTime(m, order[static_cast<size_t>(i)], max_time,
                            scratch);
  }
}

// Executor arena for folds that run outside any session (score and shadow
// compute on pool workers), one per thread.
core::PropagationScratch& ThreadScratch() {
  thread_local core::PropagationScratch scratch;
  return scratch;
}

// One folded state component — the raw node state x, or the SUM time
// accumulator m when the config has one — with its bookkeeping: how many
// chronological-prefix edges are folded in, under which normalization
// max-time. A snapshot advances the bookkeeping as if the fold ran then and
// leaves the fold to its score, which writes the tensor back; until it
// does, `gen` names that score and `value` lags the bookkeeping, so eager
// folds wait and the next snapshot refolds from the base. The counters read
// only the bookkeeping, which is why they do not depend on when or where
// scores compute.
struct Fold {
  Tensor value;
  int64_t edges = 0;
  double max_time = 0.0;
  uint64_t gen = 0;  // Nonzero while `value` lags the bookkeeping.
};

// Decides at a snapshot how `fold` reaches `total` edges: a `stale` fold
// is discarded and counted as a state_refold; the snapshot gets the tensor
// to extend in `*value` (a copy of the fold, or the base — `*base`, or
// zeros when null — when there is nothing to extend) and the index to
// extend from; the bookkeeping advances as if the fold ran now. `*gen` is
// the write-back generation, left 0 when nothing is left to fold.
void PlanFold(Fold& fold, bool stale, const Tensor* base, int64_t total,
              double max_time, Metrics* metrics, uint64_t* last_gen,
              Tensor* value, int64_t* from, uint64_t* gen) {
  if (stale) {
    fold.edges = 0;
    if (metrics != nullptr) {
      metrics->state_refolds.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // A lagging tensor is not here to extend: refold from the base.
  *from = fold.gen == 0 ? fold.edges : 0;
  if (*from > 0) {
    *value = fold.value.Clone();
  } else {
    *value = base != nullptr ? base->Clone() : Tensor::Zeros(fold.value.shape());
  }
  if (*from < total) {
    fold.edges = total;
    fold.gen = ++*last_gen;
    *gen = fold.gen;
  }
  fold.max_time = max_time;
}

}  // namespace

struct SessionShard::Session {
  Session(int64_t num_nodes, int64_t feature_dim)
      : graph(num_nodes, feature_dim) {}

  graph::TemporalGraph graph;  // Features + growing edge list.
  Tensor x0;  // Cached initial embedding (Eq. 1), never mutated.
  Fold x;     // Raw folded node state (pre-readout).
  Fold m;     // Raw folded SUM time accumulator, when the config has one.
  core::PropagationScratch scratch;

  // Pinned model version: every kernel this session runs (X0, folds,
  // finalize, extractor, classifier) comes from exactly this version. The
  // shared_ptr keeps a retired version alive until the session ends.
  model::ModelVersionPtr version;
  // Seq of the version x0/x/m were produced under. The mixed-version guard
  // compares this against version->seq() at score time; a rebase re-stamps
  // it after recomputing the state.
  uint64_t state_seq = 0;
  // Registry assignment epoch the version was resolved under; a moved
  // epoch triggers re-resolution at the next touch.
  uint64_t assign_epoch = 0;

  // True while edges have arrived in nondecreasing time order, in which
  // case insertion order IS the chronological order (stable sort identity).
  bool sorted = true;
  // True while the folded x/m prefixes are prefixes of the CURRENT
  // chronological order. Cleared when a late edge (below the running max)
  // reorders the chronology; restored by the next score, after which
  // in-order edges eager-fold again — so one late edge costs one refold,
  // not the session's remaining lifetime.
  bool fold_chrono = true;

  // Rescale bookkeeping (TimeBasis::kInvariant): edge count and max-time at
  // the last finalize, so a later score under a moved max is counted as the
  // rescale that replaced an absolute-basis refold.
  int64_t finalized_edges = 0;
  double finalized_max = 0.0;

  double last_touch = 0.0;  // Stream time of the last ingest event.
  std::list<uint64_t>::iterator lru_it;
};

SessionShard::SessionShard(const model::ModelRegistry& registry,
                           const ShardOptions& options, Metrics* metrics)
    : registry_(registry), options_(options), metrics_(metrics) {}

SessionShard::~SessionShard() = default;

Status SessionShard::BeginSession(uint64_t session_id, int64_t num_nodes,
                                  int64_t feature_dim,
                                  const std::vector<NodeInit>& features,
                                  double now) {
  const core::TpGnnConfig& config = registry_.config();
  if (num_nodes <= 0) {
    return Status::InvalidArgument("session needs at least one node");
  }
  if (feature_dim != config.feature_dim) {
    return Status::InvalidArgument(
        "feature_dim mismatch: session has " + std::to_string(feature_dim) +
        ", model expects " + std::to_string(config.feature_dim));
  }
  for (const NodeInit& f : features) {
    if (f.node < 0 || f.node >= num_nodes) {
      return Status::InvalidArgument("feature for out-of-range node " +
                                     std::to_string(f.node));
    }
    if (static_cast<int64_t>(f.features.size()) != feature_dim) {
      return Status::InvalidArgument("feature width mismatch for node " +
                                     std::to_string(f.node));
    }
  }

  // Injected admission failure: fires after validation so only well-formed
  // sessions are rejected, and surfaces as the same kOverloaded the resident
  // cap produces — callers cannot tell it from genuine pressure.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("shard.begin", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      if (metrics_ != nullptr) {
        metrics_->overload_rejections.fetch_add(1, std::memory_order_relaxed);
      }
      return failpoint::InjectedError(StatusCode::kOverloaded, "shard.begin");
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(session_id) > 0) {
    return Status::InvalidArgument("duplicate session id " +
                                   std::to_string(session_id));
  }
  while (options_.max_resident_sessions > 0 &&
         sessions_.size() >= options_.max_resident_sessions) {
    EvictLruLocked();
  }

  auto session = std::make_unique<Session>(num_nodes, feature_dim);
  for (const NodeInit& f : features) {
    session->graph.SetNodeFeature(f.node, f.features);
  }
  // Resolve and pin the model version: primary, or the A/B candidate per
  // the registry's deterministic per-session split.
  session->version = registry_.ResolveForSession(session_id,
                                                 &session->assign_epoch);
  session->state_seq = session->version->seq();
  {
    tensor::NoGradGuard no_grad;
    const core::TemporalPropagation& prop = session->version->model()
                                                .propagation();
    session->x0 = prop.EmbedInitial(session->graph);
    session->x.value = session->x0.Clone();
    if (prop.has_time_accumulator()) {
      session->m.value = Tensor::Zeros({num_nodes, prop.time_state_dim()});
    }
  }
  session->last_touch = now;
  lru_.push_front(session_id);
  session->lru_it = lru_.begin();
  sessions_.emplace(session_id, std::move(session));
  if (metrics_ != nullptr) {
    metrics_->sessions_begun.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void SessionShard::MaybeRebaseLocked(uint64_t session_id, Session& s) {
  const uint64_t epoch = registry_.assignment_epoch();
  if (epoch == s.assign_epoch) {
    return;
  }
  model::ModelVersionPtr resolved =
      registry_.ResolveForSession(session_id, &s.assign_epoch);
  if (resolved->seq() == s.version->seq()) {
    s.version = std::move(resolved);  // Same version; just re-stamp.
    return;
  }
  // The assignment moved the session onto different parameters: recompute
  // X0 and discard every folded component so the next score replays the
  // full edge list under the new version. Nothing derived from the old
  // parameters survives — that is the zero-mixed-versions invariant — and a
  // queued score's write-back no longer matches a generation.
  s.version = std::move(resolved);
  s.state_seq = s.version->seq();
  {
    tensor::NoGradGuard no_grad;
    const core::TemporalPropagation& prop = s.version->model().propagation();
    s.x0 = prop.EmbedInitial(s.graph);
    s.x = Fold{s.x0.Clone()};
    if (prop.has_time_accumulator()) {
      s.m = Fold{Tensor::Zeros({s.graph.num_nodes(), prop.time_state_dim()})};
    }
  }
  // An empty folded prefix is trivially a chronological prefix.
  s.fold_chrono = true;
  s.finalized_edges = 0;
  s.finalized_max = 0.0;
  if (metrics_ != nullptr) {
    metrics_->version_rebases.fetch_add(1, std::memory_order_relaxed);
  }
}

Status SessionShard::AddEdge(uint64_t session_id, int64_t src, int64_t dst,
                             double edge_time, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  Session& s = *it->second;
  const int64_t n = s.graph.num_nodes();
  if (src < 0 || src >= n || dst < 0 || dst >= n) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (edge_time < 0.0 || std::isnan(edge_time)) {
    return Status::InvalidArgument("edge time must be non-negative");
  }
  // Pick up an immediate-rebase swap before folding: the eager fold below
  // must run the same version as the state it extends.
  MaybeRebaseLocked(session_id, s);
  const double old_max = s.graph.MaxTime();
  const bool has_edges = s.graph.num_edges() > 0;
  if (has_edges && edge_time < s.graph.edges().back().time) {
    s.sorted = false;  // Late edge: chronological != arrival order now.
  }
  if (has_edges && edge_time < old_max) {
    s.fold_chrono = false;  // Folded prefixes are no longer chrono prefixes.
  }
  s.graph.AddEdge(src, dst, edge_time);

  // Eager fold: advance any component whose fold stays valid regardless of
  // future edges. Components invalidated by max-time changes (see header)
  // are left for the next score instead of being folded and thrown away per
  // edge, and so is a component whose tensor a queued score has yet to
  // write back. The gate is fold_chrono, not sorted: an edge at or above
  // the running max is chronologically last even in a session that saw
  // earlier disorder, so eager folding resumes once a refold has re-synced
  // the prefixes.
  const core::TemporalPropagation& prop = s.version->model().propagation();
  const core::TpGnnConfig& config = registry_.config();
  if (s.fold_chrono && config.use_temporal_propagation()) {
    tensor::NoGradGuard no_grad;
    const double max_time = s.graph.MaxTime();
    const int64_t total = s.graph.num_edges();
    const TemporalEdge& e = s.graph.edges().back();
    // Chronological predecessor of the new edge (the invariant-basis GRU
    // consumes the inter-event gap): the previous running max — with ties
    // broken by insertion order, the new edge sorts after every equal-time
    // edge, whose timestamp is exactly old_max.
    const double prev_time = total >= 2 ? old_max : 0.0;
    if (!prop.StateDependsOnMaxTime() && s.x.gen == 0 &&
        s.x.edges == total - 1) {
      prop.PropagateEdgeState(s.x.value, e, max_time, prev_time, s.scratch);
      s.x.edges = total;
      s.x.max_time = max_time;
    }
    if (prop.has_time_accumulator() && !prop.AccumulatorDependsOnMaxTime() &&
        s.m.gen == 0 && s.m.edges == total - 1) {
      prop.AccumulateEdgeTime(s.m.value, e, max_time, s.scratch);
      s.m.edges = total;
      s.m.max_time = max_time;
    }
  }

  TouchLocked(s, now);
  if (metrics_ != nullptr) {
    metrics_->edges_ingested.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status SessionShard::Snapshot(uint64_t session_id, ScoreSnapshot* snap) {
  TPGNN_CHECK(snap != nullptr);
  *snap = ScoreSnapshot();
  snap->session_id = session_id;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  // Injected scoring failure/delay, evaluated once per score of a live
  // session, in stream order: an error fire fails this score without
  // touching the session; a delay fire is served by Compute, off the lock.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("shard.score", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      snap->delay = hit;
    } else {
      snap->status =
          failpoint::InjectedError(StatusCode::kInternal, "shard.score");
      return Status::Ok();
    }
  }
  Session& s = *it->second;
  MaybeRebaseLocked(session_id, s);
  // Mixed-version tripwire (the hot-swap safety gate): the pinned version
  // and the stamp of the state it will finalize must agree. They can only
  // disagree if some path re-bound the version handle without rebasing the
  // state — counted, never silently scored away. bench_swap and the chaos
  // sweep assert this stays zero.
  if (s.version->seq() != s.state_seq && metrics_ != nullptr) {
    metrics_->mixed_version_scores.fetch_add(1, std::memory_order_relaxed);
  }
  // Injected rescale fallback: any non-delay fire discards every folded
  // component with a nonempty prefix so Compute replays it — the legacy
  // refold path — which must reproduce the eagerly folded state
  // bit-for-bit. Evaluated once per score of a live session, so fire
  // counts map 1:1 to scores.
  bool force_refold = false;
  failpoint::Hit rescale_hit;
  if (TPGNN_FAILPOINT("shard.rescale", &rescale_hit)) {
    if (rescale_hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(rescale_hit);
    } else {
      force_refold = true;
    }
  }

  const core::TpGnnConfig& config = registry_.config();
  const core::TemporalPropagation& prop = s.version->model().propagation();
  const double max_time = s.graph.MaxTime();
  const int64_t total = s.graph.num_edges();
  snap->version = s.version;
  snap->order = s.sorted ? s.graph.edges() : s.graph.ChronologicalEdges();
  snap->max_time = max_time;
  if (!config.use_temporal_propagation()) {
    // Nothing folds: the state is X0 (and a zero accumulator), which no
    // event ever mutates, so the snapshot may share it.
    snap->x = s.x.value;
    snap->m = s.m.value;
    snap->x_from = total;
    snap->m_from = total;
  } else {
    // Node state x. For an unsorted session the previously folded prefix
    // may not be a prefix of the new chronological order, so any growth
    // forces a rebuild; for max-coupled state (GRU + Time2Vec under
    // normalize_time in the absolute basis) a max-time change re-times
    // every folded step. The invariant basis removes the max coupling, so
    // only the unsorted case (and the forced shard.rescale fallback)
    // remains.
    const bool x_stale =
        s.x.edges > 0 &&
        (force_refold ||
         (prop.StateDependsOnMaxTime() && s.x.max_time != max_time) ||
         (!s.fold_chrono && s.x.edges != total));
    PlanFold(s.x, x_stale, &s.x0, total, max_time, metrics_, &last_gen_,
             &snap->x, &snap->x_from, &snap->x_gen);
    // SUM time accumulator m: in the absolute basis normalization couples
    // every folded f(t) to the current max time; in the invariant basis the
    // raw-time sums never go stale under a max move.
    snap->m_from = total;
    if (prop.has_time_accumulator()) {
      const bool m_stale =
          s.m.edges > 0 &&
          (force_refold ||
           (prop.AccumulatorDependsOnMaxTime() && s.m.max_time != max_time) ||
           (!s.fold_chrono && s.m.edges != total));
      PlanFold(s.m, m_stale, nullptr, total, max_time, metrics_, &last_gen_,
               &snap->m, &snap->m_from, &snap->m_gen);
    }
    // Everything folded matches the full chronological order now, so edges
    // at or above the max may eager-fold again.
    s.fold_chrono = true;
  }
  // A score whose finalize carries previously finalized folded state across
  // a max-time move is the invariant basis absorbing what the absolute
  // basis would have refolded.
  const bool invariant_coupled =
      config.time_basis == core::TimeBasis::kInvariant &&
      config.normalize_time && config.use_temporal_propagation() &&
      config.use_time_encoding();
  if (invariant_coupled && s.finalized_edges > 0 &&
      s.finalized_max != max_time && metrics_ != nullptr) {
    metrics_->state_rescales.fetch_add(1, std::memory_order_relaxed);
  }
  s.finalized_edges = total;
  s.finalized_max = max_time;
  snap->shadow = registry_.shadow();
  if (snap->shadow != nullptr) {
    snap->graph = s.graph;
  }
  return Status::Ok();
}

void SessionShard::Compute(ScoreSnapshot* snap, ScoreResult* result) {
  TPGNN_CHECK(snap != nullptr && result != nullptr);
  result->session_id = snap->session_id;
  if (!snap->status.ok()) {
    result->status = snap->status;
    return;
  }
  failpoint::ApplyDelay(snap->delay);
  tensor::NoGradGuard no_grad;
  const core::TpGnnModel& model = snap->version->model();
  const core::TemporalPropagation& prop = model.propagation();
  const int64_t total = static_cast<int64_t>(snap->order.size());
  FoldNodeState(prop, snap->order, snap->x_from, total, snap->max_time,
                snap->x, ThreadScratch());
  FoldTimeState(prop, snap->order, snap->m_from, total, snap->max_time,
                snap->m, ThreadScratch());
  Tensor h = prop.FinalizeState(snap->x, snap->m, snap->max_time);
  if (snap->x_gen != 0 || snap->m_gen != 0) {
    WriteBack(snap);
  }
  Tensor g = model.EmbedFromNodeStates(h, snap->order);
  result->logit = model.ClassifyEmbedding(g).item();
  result->probability = 1.0f / (1.0f + std::exp(-result->logit));
  result->edges_scored = total;
  result->status = Status::Ok();
}

void SessionShard::WriteBack(ScoreSnapshot* snap) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(snap->session_id);
  if (it == sessions_.end()) {
    return;
  }
  Session& s = *it->second;
  if (snap->x_gen != 0 && s.x.gen == snap->x_gen) {
    s.x.value = std::move(snap->x);
    s.x.gen = 0;
  }
  if (snap->m_gen != 0 && s.m.gen == snap->m_gen) {
    s.m.value = std::move(snap->m);
    s.m.gen = 0;
  }
}

Status SessionShard::Score(uint64_t session_id, ScoreResult* result) {
  TPGNN_CHECK(result != nullptr);
  ScoreSnapshot snap;
  if (Status s = Snapshot(session_id, &snap); !s.ok()) {
    result->session_id = session_id;
    result->status = s;
    return s;
  }
  Compute(&snap, result);
  return result->status;
}

Status SessionShard::ShadowScore(const ScoreSnapshot& snap,
                                 float primary_logit) {
  if (snap.shadow == nullptr) {
    return Status::Ok();
  }
  // Injected shadow failure: the shadow path must be able to die without
  // the primary result noticing — callers only account the failure.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("model.shadow_score", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      if (metrics_ != nullptr) {
        metrics_->shadow_failures.fetch_add(1, std::memory_order_relaxed);
      }
      return failpoint::InjectedError(StatusCode::kInternal,
                                      "model.shadow_score");
    }
  }
  Stopwatch watch;
  float shadow_logit = 0.0f;
  {
    // Full offline replay of the snapshot's prefix under the shadow version
    // — nothing is shared with the session's folded state (which belongs to
    // its pinned version), so the result is exactly the shadow model's
    // ForwardLogit on that prefix.
    tensor::NoGradGuard no_grad;
    const core::TpGnnModel& model = snap.shadow->model();
    const core::TemporalPropagation& prop = model.propagation();
    const int64_t total = static_cast<int64_t>(snap.order.size());
    Tensor x = prop.EmbedInitial(*snap.graph);
    Tensor m;
    if (prop.has_time_accumulator()) {
      m = Tensor::Zeros({snap.graph->num_nodes(), prop.time_state_dim()});
    }
    if (model.config().use_temporal_propagation()) {
      FoldNodeState(prop, snap.order, 0, total, snap.max_time, x,
                    ThreadScratch());
      if (prop.has_time_accumulator()) {
        FoldTimeState(prop, snap.order, 0, total, snap.max_time, m,
                      ThreadScratch());
      }
    }
    Tensor h = prop.FinalizeState(x, m, snap.max_time);
    Tensor g = model.EmbedFromNodeStates(h, snap.order);
    shadow_logit = model.ClassifyEmbedding(g).item();
  }
  if (metrics_ != nullptr) {
    metrics_->shadow_scores.fetch_add(1, std::memory_order_relaxed);
    metrics_->RecordShadowDelta(std::fabs(static_cast<double>(primary_logit) -
                                          static_cast<double>(shadow_logit)));
    metrics_->shadow_latency.Record(watch.ElapsedMicros());
  }
  return Status::Ok();
}

Status SessionShard::EndSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  if (metrics_ != nullptr) {
    metrics_->sessions_ended.fetch_add(1, std::memory_order_relaxed);
  }
  RemoveLocked(session_id, *it->second);
  return Status::Ok();
}

Status SessionShard::ExportSession(uint64_t session_id,
                                   SessionState* state) const {
  TPGNN_CHECK(state != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  const Session& s = *it->second;
  *state = SessionState();
  state->session_id = session_id;
  state->num_nodes = s.graph.num_nodes();
  state->feature_dim = s.graph.feature_dim();
  state->features.reserve(
      static_cast<size_t>(state->num_nodes * state->feature_dim));
  for (int64_t node = 0; node < state->num_nodes; ++node) {
    const std::vector<float>& row = s.graph.node_feature(node);
    state->features.insert(state->features.end(), row.begin(), row.end());
  }
  state->edges = s.graph.edges();
  state->sorted = s.sorted;
  state->fold_chrono = s.fold_chrono;
  state->x_edges = s.x.edges;
  state->m_edges = s.m.edges;
  state->x_max_time = s.x.max_time;
  state->m_max_time = s.m.max_time;
  state->finalized_edges = s.finalized_edges;
  state->finalized_max = s.finalized_max;
  state->last_touch = s.last_touch;
  state->model_version = s.version->name();
  state->x0 = s.x0.data();
  // A component whose tensor a queued score has not written back yet is
  // refolded here over the same prefix, so the shipped tensor matches the
  // shipped bookkeeping. Once late edges have reordered the chronology
  // (fold_chrono false) the next score discards that component anyway, and
  // its base ships instead.
  const core::TemporalPropagation& prop = s.version->model().propagation();
  const bool has_m = prop.has_time_accumulator();
  std::vector<TemporalEdge> order;
  if ((s.x.gen != 0 || (has_m && s.m.gen != 0)) && s.fold_chrono) {
    order = s.sorted ? s.graph.edges() : s.graph.ChronologicalEdges();
  }
  tensor::NoGradGuard no_grad;
  core::PropagationScratch scratch;
  if (s.x.gen == 0) {
    state->x = s.x.value.data();
  } else {
    Tensor x = s.x0.Clone();
    if (s.fold_chrono) {
      FoldNodeState(prop, order, 0, s.x.edges, s.x.max_time, x, scratch);
    }
    state->x = x.data();
  }
  if (has_m && s.m.gen == 0) {
    state->m = s.m.value.data();
  } else if (has_m) {
    Tensor m = Tensor::Zeros(s.m.value.shape());
    if (s.fold_chrono) {
      FoldTimeState(prop, order, 0, s.m.edges, s.m.max_time, m, scratch);
    }
    state->m = m.data();
  }
  if (metrics_ != nullptr) {
    metrics_->sessions_exported.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status SessionShard::ImportSession(const SessionState& state, double now) {
  const core::TpGnnConfig& config = registry_.config();
  // The fold is parameter-dependent: the snapshot's tensors are only valid
  // under the exact version that produced them. An empty tag is a
  // version-1 snapshot and resolves to the primary; an unknown tag is a
  // typed precondition failure so the caller can fall back to journal
  // replay instead of silently rebinding the state to other parameters.
  model::ModelVersionPtr version = registry_.Find(state.model_version);
  if (version == nullptr) {
    return Status::FailedPrecondition("snapshot pinned to unknown model "
                                      "version " +
                                      state.model_version);
  }
  const core::TemporalPropagation& prop = version->model().propagation();
  if (state.num_nodes <= 0) {
    return Status::InvalidArgument("session needs at least one node");
  }
  if (state.feature_dim != config.feature_dim) {
    return Status::InvalidArgument(
        "feature_dim mismatch: snapshot has " +
        std::to_string(state.feature_dim) + ", model expects " +
        std::to_string(config.feature_dim));
  }
  const size_t n = static_cast<size_t>(state.num_nodes);
  if (state.features.size() !=
      n * static_cast<size_t>(state.feature_dim)) {
    return Status::InvalidArgument("feature matrix size mismatch");
  }
  if (state.x.size() != n * static_cast<size_t>(config.embed_dim) ||
      state.x0.size() != state.x.size()) {
    return Status::InvalidArgument("node state width mismatch with model");
  }
  if (prop.has_time_accumulator()) {
    if (state.m.size() != n * static_cast<size_t>(prop.time_state_dim())) {
      return Status::InvalidArgument("accumulator width mismatch with model");
    }
  } else if (!state.m.empty()) {
    return Status::InvalidArgument("snapshot carries an accumulator the "
                                   "model config does not use");
  }
  for (const TemporalEdge& e : state.edges) {
    if (e.src < 0 || e.src >= state.num_nodes || e.dst < 0 ||
        e.dst >= state.num_nodes || e.time < 0.0 || std::isnan(e.time)) {
      return Status::InvalidArgument("snapshot edge out of range");
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(state.session_id) > 0) {
    return Status::InvalidArgument("duplicate session id " +
                                   std::to_string(state.session_id));
  }
  while (options_.max_resident_sessions > 0 &&
         sessions_.size() >= options_.max_resident_sessions) {
    EvictLruLocked();
  }

  auto session = std::make_unique<Session>(state.num_nodes, state.feature_dim);
  std::vector<float> row(static_cast<size_t>(state.feature_dim));
  for (int64_t node = 0; node < state.num_nodes; ++node) {
    const float* src =
        state.features.data() +
        static_cast<size_t>(node) * static_cast<size_t>(state.feature_dim);
    row.assign(src, src + state.feature_dim);
    session->graph.SetNodeFeature(node, row);
  }
  for (const TemporalEdge& e : state.edges) {
    session->graph.AddEdge(e.src, e.dst, e.time);
  }
  // Adopt the exporter's tensors bit-for-bit — including x0, so any later
  // refold replays from the exporter's exact Eq.-1 embedding rather than a
  // recomputed one.
  session->x0 = Tensor::FromVector({state.num_nodes, config.embed_dim},
                                   state.x0);
  session->x.value = Tensor::FromVector({state.num_nodes, config.embed_dim},
                                        state.x);
  if (prop.has_time_accumulator()) {
    session->m.value = Tensor::FromVector(
        {state.num_nodes, prop.time_state_dim()}, state.m);
  }
  // Pin the snapshot's version and stamp the session current: the imported
  // pin survives a destination whose primary differs (that is the point of
  // shipping the tag); only a later epoch bump may rebase it.
  session->version = std::move(version);
  session->state_seq = session->version->seq();
  session->assign_epoch = registry_.assignment_epoch();
  session->sorted = state.sorted;
  session->fold_chrono = state.fold_chrono;
  session->x.edges = state.x_edges;
  session->m.edges = state.m_edges;
  session->x.max_time = state.x_max_time;
  session->m.max_time = state.m_max_time;
  session->finalized_edges = state.finalized_edges;
  session->finalized_max = state.finalized_max;
  session->last_touch = state.last_touch > 0.0 ? state.last_touch : now;
  lru_.push_front(state.session_id);
  session->lru_it = lru_.begin();
  sessions_.emplace(state.session_id, std::move(session));
  if (metrics_ != nullptr) {
    metrics_->sessions_imported.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void SessionShard::EvictIdle(double now) {
  if (options_.idle_ttl_seconds <= 0.0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // LRU order is most-recent-first, so expired sessions cluster at the
  // back; evict from the back and stop at the first live one.
  while (!lru_.empty() &&
         now - sessions_.at(lru_.back())->last_touch >
             options_.idle_ttl_seconds) {
    EvictLruLocked();
  }
}

size_t SessionShard::resident_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void SessionShard::EvictLruLocked() {
  const uint64_t id = lru_.back();
  RemoveLocked(id, *sessions_.at(id));
  if (metrics_ != nullptr) {
    metrics_->sessions_evicted.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionShard::RemoveLocked(uint64_t session_id, Session& s) {
  lru_.erase(s.lru_it);
  sessions_.erase(session_id);
}

void SessionShard::TouchLocked(Session& s, double now) {
  s.last_touch = now;
  lru_.splice(lru_.begin(), lru_, s.lru_it);
  s.lru_it = lru_.begin();
}

// --- SessionRouter ----------------------------------------------------------

SessionRouter::SessionRouter(const model::ModelRegistry& registry,
                             const Options& options, Metrics* metrics) {
  const int num_shards = options.num_shards < 1 ? 1 : options.num_shards;
  ShardOptions shard_options;
  shard_options.idle_ttl_seconds = options.idle_ttl_seconds;
  if (options.max_resident_sessions > 0) {
    shard_options.max_resident_sessions =
        (options.max_resident_sessions + static_cast<size_t>(num_shards) - 1) /
        static_cast<size_t>(num_shards);
  }
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(
        std::make_unique<SessionShard>(registry, shard_options, metrics));
  }
}

SessionShard& SessionRouter::ShardFor(uint64_t session_id) {
  return *shards_[model::SplitMix64(session_id) % shards_.size()];
}

size_t SessionRouter::resident_sessions() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->resident_sessions();
  }
  return total;
}

void SessionRouter::EvictIdle(double now) {
  for (const auto& shard : shards_) {
    shard->EvictIdle(now);
  }
}

}  // namespace tpgnn::serve

//! `igern-engine` — a sharded, multi-worker tick engine for standing RNN
//! queries.
//!
//! The serial [`Processor`] walks every registered query on one thread,
//! so wall-clock per tick grows linearly with query count and uses one
//! core. This crate treats the query population as a *batch*: a pool of
//! long-lived worker threads (std only — `std::thread` + `mpsc`) each
//! owns a disjoint shard of queries and evaluates it concurrently against
//! a shared, frozen [`SpatialStore`] snapshot.
//!
//! # Tick protocol
//!
//! 1. **Apply** — the coordinator thread applies the tick's update stream
//!    to the single store (it holds the only `Arc` reference between
//!    ticks, so `Arc::get_mut` grants plain `&mut` access — no locks).
//! 2. **Publish** — the store's dirty-cell journal now describes the
//!    tick; an `Arc` clone is shipped to every worker.
//! 3. **Evaluate** — each worker runs the same
//!    [`igern_core::eval::evaluate_query`] step the serial processor
//!    uses, over its shard in ascending query-id order, reusing the
//!    dirty-region skip check per query.
//! 4. **Merge** — per-shard [`TickSample`] batches come back over one
//!    results channel; the coordinator merges them in ascending query-id
//!    order, so answers, per-query metrics, and skip decisions are
//!    identical to the serial [`Processor`] regardless of worker count.
//!    Workers drop their store reference before reporting, so after the
//!    merge the coordinator again owns the store exclusively and closes
//!    the tick with `drain_dirty`.
//!
//! Shard membership is managed by a [`Placement`] policy (round-robin or
//! anchor-cell spatial bands) with deterministic rebalancing on query
//! add/remove; see [`placement`].
//!
//! This coordinator/worker protocol is deliberately message-shaped: it is
//! the seam where sharding across processes will eventually land.
//!
//! [`Processor`]: igern_core::processor::Processor
//! [`TickSample`]: igern_core::metrics::TickSample

use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use igern_core::eval::QuerySlot;
use igern_core::history::History;
use igern_core::hooks::SharedSimHooks;
use igern_core::metrics::SeriesStats;
use igern_core::obs::{
    Counter, Gauge, Histogram, MetricsRegistry, PipelineMetrics, LATENCY_BUCKETS_S,
};
use igern_core::processor::Algorithm;
use igern_core::{ContinuousMonitor, DistanceMode, ObjectKind, SpatialStore};
use igern_geom::Point;
use igern_grid::ObjectId;

pub mod placement;
pub mod runner;
mod worker;

pub use placement::Placement;
pub use runner::TickRunner;

use worker::{ShardReport, TickJob, ToWorker};

// The whole design rests on shipping the store and query slots across
// threads; fail at compile time if a field ever breaks that.
const _: () = {
    const fn requires_send_sync<T: Send + Sync>() {}
    const fn requires_send<T: Send>() {}
    requires_send_sync::<SpatialStore>();
    requires_send::<QuerySlot>();
};

/// A recoverable engine registration error. Unlike the serial
/// processor's asserts, the sharded engine reports bad registrations as
/// values so long-running drivers (the CLI, network frontends) can
/// surface them without unwinding across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The query anchor object is not in the store.
    UnknownObject(ObjectId),
    /// A bichromatic algorithm was requested for a non-A anchor.
    NotKindA(ObjectId),
    /// A k-variant algorithm was requested with `k == 0`.
    ZeroK,
    /// A network-distance query was requested on a store with no
    /// attached road network.
    NoNetwork,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownObject(id) => {
                write!(f, "query object {id} not in store")
            }
            EngineError::NotKindA(id) => {
                write!(f, "bichromatic query object {id} must be of kind A")
            }
            EngineError::ZeroK => write!(f, "k must be positive"),
            EngineError::NoNetwork => {
                write!(
                    f,
                    "network-distance query requires an attached road network"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The engine-level observability bundle: the shared [`PipelineMetrics`]
/// surface plus the coordinator/worker instruments that only exist in
/// the sharded engine (per-worker tick latency, shard sizes, snapshot
/// publish / hand-off / merge timings, results-channel backlog, and
/// rebalance activity).
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// The engine-agnostic per-sample surface (same names the serial
    /// processor emits under its prefix).
    pub pipeline: PipelineMetrics,
    /// Per-worker shard evaluation latency
    /// (`<prefix>_worker_tick_seconds{worker="i"}`).
    pub worker_tick_seconds: Vec<Histogram>,
    /// Per-worker live-query count (`<prefix>_shard_size{worker="i"}`).
    pub shard_size: Vec<Gauge>,
    /// Time to clone + send the store snapshot to every worker
    /// (`<prefix>_publish_seconds`).
    pub publish_seconds: Histogram,
    /// Time from publishing the snapshot until the coordinator regains
    /// exclusive store ownership — the full `Arc` hand-off round trip
    /// (`<prefix>_handoff_seconds`).
    pub handoff_seconds: Histogram,
    /// Time to sort and apply the merged shard reports
    /// (`<prefix>_merge_seconds`).
    pub merge_seconds: Histogram,
    /// Shard reports already queued when the coordinator started
    /// collecting — the results-channel backlog
    /// (`<prefix>_results_backlog`).
    pub results_backlog: Gauge,
    /// Rebalance passes that migrated at least one query
    /// (`<prefix>_rebalance_total`).
    pub rebalance_total: Counter,
    /// Individual query migrations (`<prefix>_migrations_total`).
    pub migrations_total: Counter,
}

impl EngineMetrics {
    /// Register (or re-attach to) the bundle under `prefix` for an
    /// engine with `workers` worker threads.
    pub fn register(registry: &MetricsRegistry, prefix: &str, workers: usize) -> Self {
        let n = |suffix: &str| format!("{prefix}_{suffix}");
        EngineMetrics {
            pipeline: PipelineMetrics::register(registry, prefix),
            worker_tick_seconds: (0..workers)
                .map(|w| {
                    registry.histogram_labeled(
                        &n("worker_tick_seconds"),
                        &[("worker", &w.to_string())],
                        &LATENCY_BUCKETS_S,
                    )
                })
                .collect(),
            shard_size: (0..workers)
                .map(|w| registry.gauge_labeled(&n("shard_size"), &[("worker", &w.to_string())]))
                .collect(),
            publish_seconds: registry.histogram(&n("publish_seconds"), &LATENCY_BUCKETS_S),
            handoff_seconds: registry.histogram(&n("handoff_seconds"), &LATENCY_BUCKETS_S),
            merge_seconds: registry.histogram(&n("merge_seconds"), &LATENCY_BUCKETS_S),
            results_backlog: registry.gauge(&n("results_backlog")),
            rebalance_total: registry.counter(&n("rebalance_total")),
            migrations_total: registry.counter(&n("migrations_total")),
        }
    }
}

/// Coordinator-side record of one registered query.
struct QueryMeta {
    obj: ObjectId,
    /// Worker currently owning the slot (meaningless when removed).
    worker: usize,
    /// Tombstone: the slot index is free for reuse.
    removed: bool,
}

/// The sharded tick engine. API-compatible with the serial
/// [`Processor`](igern_core::processor::Processor) so callers can switch
/// on a worker count.
pub struct ShardedEngine {
    store: Arc<SpatialStore>,
    senders: Vec<Sender<ToWorker>>,
    results: Receiver<ShardReport>,
    handles: Vec<JoinHandle<()>>,
    placement: Placement,
    rr_cursor: usize,
    queries: Vec<QueryMeta>,
    /// Live queries per worker.
    loads: Vec<usize>,
    /// Latest merged answer per query id.
    answers: Vec<Vec<ObjectId>>,
    /// Merged per-query sample logs.
    histories: Vec<History>,
    tick: u64,
    skip_routing: bool,
    batch: bool,
    history_capacity: Option<usize>,
    metrics: Option<EngineMetrics>,
    sim_hooks: Option<SharedSimHooks>,
}

impl ShardedEngine {
    /// Spawn `workers` long-lived worker threads over a loaded store.
    /// Dirty-region skip routing starts enabled and per-query histories
    /// are unbounded, as in the serial processor.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn new(store: SpatialStore, workers: usize, placement: Placement) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let (results_tx, results) = channel();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel();
            let results_tx = results_tx.clone();
            senders.push(tx);
            handles.push(std::thread::spawn(move || {
                worker::worker_loop(w, rx, results_tx)
            }));
        }
        ShardedEngine {
            store: Arc::new(store),
            senders,
            results,
            handles,
            placement,
            rr_cursor: 0,
            queries: Vec::new(),
            loads: vec![0; workers],
            answers: Vec::new(),
            histories: Vec::new(),
            tick: 0,
            skip_routing: true,
            batch: false,
            history_capacity: None,
            metrics: None,
            sim_hooks: None,
        }
    }

    /// Attach (or detach, with `None`) an observability bundle. When set,
    /// every round records the pipeline surface plus the engine-specific
    /// instruments (per-worker latency, hand-off timings, rebalance
    /// counters). Detached (the default) the hot path pays nothing.
    ///
    /// # Panics
    /// Panics when the bundle was registered for a different worker
    /// count.
    pub fn set_metrics(&mut self, metrics: Option<EngineMetrics>) {
        if let Some(m) = &metrics {
            assert_eq!(
                m.worker_tick_seconds.len(),
                self.num_workers(),
                "metrics bundle registered for a different worker count"
            );
        }
        self.metrics = metrics;
    }

    /// The attached observability bundle, if any.
    pub fn metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.as_ref()
    }

    /// Install (or clear, with `None`) simulation fault-injection hooks
    /// (see [`igern_core::hooks::SimHooks`]). [`ShardedEngine::step`]
    /// fires `on_tick` and applies `desync_targets` after updates are
    /// applied and before the round is published; each worker fires
    /// `on_worker_shard` before evaluating its shard. Never installed in
    /// production.
    pub fn set_sim_hooks(&mut self, hooks: Option<SharedSimHooks>) {
        self.sim_hooks = hooks;
    }

    /// The underlying store.
    pub fn store(&self) -> &SpatialStore {
        &self.store
    }

    /// Exclusive store access; sound because the coordinator holds the
    /// only `Arc` reference between ticks (workers release theirs before
    /// reporting).
    fn store_mut(&mut self) -> &mut SpatialStore {
        Arc::get_mut(&mut self.store).expect("store uniquely owned between ticks")
    }

    /// Test hook: corrupt the store's bucket state for `id` (see
    /// `SpatialStore::debug_force_desync`). Returns whether the object
    /// was present.
    #[doc(hidden)]
    pub fn debug_force_desync(&mut self, id: ObjectId) -> bool {
        self.store_mut().debug_force_desync(id)
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.senders.len()
    }

    /// The active placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Live queries per worker (the shard sizes).
    pub fn worker_loads(&self) -> &[usize] {
        &self.loads
    }

    /// Enable or disable dirty-region skip routing (mirrors the serial
    /// processor's flag).
    pub fn set_skip_routing(&mut self, on: bool) {
        self.skip_routing = on;
    }

    /// Whether dirty-region skip routing is enabled.
    pub fn skip_routing(&self) -> bool {
        self.skip_routing
    }

    /// Enable or disable shared-scan batch evaluation inside each worker
    /// shard (mirrors the serial processor's
    /// [`set_batch`](igern_core::processor::Processor::set_batch)). Off by
    /// default; answers and counters are bit-identical either way.
    pub fn set_batch(&mut self, on: bool) {
        self.batch = on;
    }

    /// Whether shared-scan batch evaluation is enabled.
    pub fn batch(&self) -> bool {
        self.batch
    }

    /// Cap the history of subsequently added queries (`None` =
    /// unbounded). Aggregates still fold every sample exactly.
    pub fn set_history_capacity(&mut self, cap: Option<usize>) {
        if let Some(c) = cap {
            assert!(c >= 1, "history capacity must be at least 1");
        }
        self.history_capacity = cap;
    }

    /// The history capacity applied to newly added queries.
    pub fn history_capacity(&self) -> Option<usize> {
        self.history_capacity
    }

    /// Register a continuous query anchored at moving object `obj`;
    /// returns its index. Index assignment (tombstone reuse first)
    /// matches the serial processor exactly.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`] when `obj` is not in the store;
    /// [`EngineError::NotKindA`] when a bichromatic algorithm is
    /// requested for a non-A object; [`EngineError::ZeroK`] when a
    /// k-variant algorithm is given `k == 0`.
    pub fn add_query(&mut self, obj: ObjectId, algo: Algorithm) -> Result<usize, EngineError> {
        self.add_query_in(obj, algo, DistanceMode::Euclidean)
    }

    /// [`ShardedEngine::add_query`] with an explicit distance mode.
    ///
    /// # Errors
    /// As [`ShardedEngine::add_query`], plus [`EngineError::NoNetwork`]
    /// when [`DistanceMode::Network`] is requested on a store without an
    /// attached road network.
    pub fn add_query_in(
        &mut self,
        obj: ObjectId,
        algo: Algorithm,
        mode: DistanceMode,
    ) -> Result<usize, EngineError> {
        if self.store.position(obj).is_none() {
            return Err(EngineError::UnknownObject(obj));
        }
        if algo.is_bichromatic() && self.store.kind(obj) != ObjectKind::A {
            return Err(EngineError::NotKindA(obj));
        }
        if let Algorithm::IgernMonoK(0) | Algorithm::IgernBiK(0) | Algorithm::Knn(0) = algo {
            return Err(EngineError::ZeroK);
        }
        if mode == DistanceMode::Network && self.store.network().is_none() {
            return Err(EngineError::NoNetwork);
        }
        self.add_query_with(obj, algo.make_monitor_in(mode, Some(obj)))
    }

    /// Register a query evaluated by a caller-supplied monitor; returns
    /// its index (tombstoned slots are reused first).
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`] when `obj` is not in the store.
    pub fn add_query_with(
        &mut self,
        obj: ObjectId,
        monitor: Box<dyn ContinuousMonitor>,
    ) -> Result<usize, EngineError> {
        let pos = self
            .store
            .position(obj)
            .ok_or(EngineError::UnknownObject(obj))?;
        let cell = self.store.all().cell_of_point(pos);
        let num_cells = self.store.all().num_cells();
        let worker = self
            .placement
            .pick(cell, num_cells, &self.loads, &mut self.rr_cursor);
        let meta = QueryMeta {
            obj,
            worker,
            removed: false,
        };
        let qid = match self.queries.iter().position(|m| m.removed) {
            Some(i) => {
                self.queries[i] = meta;
                self.answers[i].clear();
                self.histories[i] = History::with_capacity(self.history_capacity);
                i
            }
            None => {
                self.queries.push(meta);
                self.answers.push(Vec::new());
                self.histories
                    .push(History::with_capacity(self.history_capacity));
                self.queries.len() - 1
            }
        };
        self.loads[worker] += 1;
        self.send(worker, ToWorker::Add(qid, QuerySlot::new(obj, monitor)));
        self.rebalance();
        Ok(qid)
    }

    /// Drop a registered query; its slot, answer, and history are freed
    /// and the index becomes reusable. Other indices stay stable.
    ///
    /// # Panics
    /// Panics when the query was already removed.
    pub fn remove_query(&mut self, i: usize) {
        assert!(!self.queries[i].removed, "query {i} already removed");
        let worker = self.queries[i].worker;
        self.queries[i].removed = true;
        self.loads[worker] -= 1;
        self.answers[i] = Vec::new();
        self.histories[i] = History::unbounded();
        self.send(worker, ToWorker::Remove(i));
        self.rebalance();
    }

    /// Insert a new moving object into the store at runtime.
    pub fn insert_object(&mut self, id: ObjectId, kind: ObjectKind, pos: Point) {
        self.store_mut().insert(id, kind, pos);
    }

    /// Apply a single position update without ticking (streaming
    /// ingestion). Touched cells stay in the dirty journal until the
    /// next [`ShardedEngine::step`] closes the round, so skip routing
    /// stays sound — the serial processor's
    /// [`apply_update`](igern_core::processor::Processor::apply_update)
    /// contract, mirrored here.
    pub fn apply_update(&mut self, id: ObjectId, pos: Point) {
        self.store_mut().apply(id, pos);
        if let Some(m) = &self.metrics {
            m.pipeline.updates_total.inc();
        }
    }

    /// Remove a moving object from the store at runtime.
    ///
    /// # Panics
    /// Panics if a live query is anchored at the object.
    pub fn remove_object(&mut self, id: ObjectId) -> Option<Point> {
        assert!(
            !self.queries.iter().any(|m| !m.removed && m.obj == id),
            "cannot remove the anchor of a live query"
        );
        self.store_mut().remove(id)
    }

    /// Apply one tick of updates and fan the evaluation out to the
    /// workers, skipping queries whose watched cells saw no update (when
    /// routing is on). Blocks until every shard has reported and the
    /// merged state is consistent.
    pub fn step(&mut self, updates: &[(ObjectId, Point)]) {
        let start = self.metrics.is_some().then(Instant::now);
        {
            let store = self.store_mut();
            for &(id, pos) in updates {
                store.apply(id, pos);
            }
        }
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.pipeline.apply_seconds.observe_duration(t0.elapsed());
            m.pipeline.updates_total.add(updates.len() as u64);
        }
        self.tick += 1;
        if let Some(h) = self.sim_hooks.clone() {
            h.on_tick(self.tick);
            for id in h.desync_targets(self.tick) {
                self.store_mut().debug_force_desync(id);
            }
        }
        self.run_round(self.skip_routing);
    }

    /// Evaluate all queries against the current store state without
    /// applying updates, ignoring skip routing (initial evaluation at T₀
    /// / force-evaluate oracle) — the parallel form of the serial
    /// processor's `evaluate_all`.
    pub fn evaluate_all(&mut self) {
        self.run_round(false);
    }

    fn run_round(&mut self, route: bool) {
        let publish_start = self.metrics.is_some().then(Instant::now);
        for tx in &self.senders {
            let job = TickJob {
                store: Arc::clone(&self.store),
                tick: self.tick,
                route,
                batch: self.batch,
                hooks: self.sim_hooks.clone(),
            };
            tx.send(ToWorker::Tick(job)).expect("worker alive");
        }
        if let (Some(m), Some(t0)) = (&self.metrics, publish_start) {
            m.publish_seconds.observe_duration(t0.elapsed());
        }
        let mut merged = Vec::new();
        let mut received = 0;
        // Reports already queued before the coordinator starts waiting
        // measure how far the workers run ahead of the merge.
        let mut backlog = 0usize;
        while received < self.senders.len() {
            let report = if received == backlog {
                match self.results.try_recv() {
                    Ok(r) => {
                        backlog += 1;
                        r
                    }
                    Err(_) => self.results.recv().expect("worker alive"),
                }
            } else {
                self.results.recv().expect("worker alive")
            };
            received += 1;
            if let Some(m) = &self.metrics {
                m.worker_tick_seconds[report.worker].observe_duration(report.elapsed);
                if report.batch_groups > 0 {
                    m.pipeline.batch_groups_total.add(report.batch_groups);
                    m.pipeline.batch_members_total.add(report.batch_members);
                }
            }
            merged.extend(report.reports);
        }
        // Every worker released its store clone before reporting: the
        // coordinator owns the snapshot exclusively again — the `Arc`
        // hand-off round trip ends here.
        if let (Some(m), Some(t0)) = (&self.metrics, publish_start) {
            m.handoff_seconds.observe_duration(t0.elapsed());
            m.results_backlog.set(backlog as f64);
        }
        let merge_start = self.metrics.is_some().then(Instant::now);
        // Deterministic merge: shard reports are each qid-sorted; the
        // global order is re-established so histories and answers are
        // written exactly as the serial processor would.
        merged.sort_unstable_by_key(|r| r.qid);
        for r in merged {
            if let Some(m) = &self.metrics {
                m.pipeline.record_sample(&r.sample);
            }
            self.histories[r.qid].push(r.sample);
            if let Some(ans) = r.answer {
                self.answers[r.qid] = ans;
            }
        }
        if let Some(m) = &self.metrics {
            if let Some(t0) = merge_start {
                m.merge_seconds.observe_duration(t0.elapsed());
            }
            // Route + evaluate spans the fan-out through the merge, the
            // sharded counterpart of the serial processor's phase.
            if let Some(t0) = publish_start {
                m.pipeline.evaluate_seconds.observe_duration(t0.elapsed());
            }
            for (w, &load) in self.loads.iter().enumerate() {
                m.shard_size[w].set(load as f64);
            }
            m.pipeline
                .dirty_cells
                .observe(self.store.dirty_all().count() as f64);
            m.pipeline.ticks_total.inc();
        }
        // Close out the journal so the next tick's dirt starts clean.
        self.store_mut().drain_dirty();
    }

    /// Migrate queries off the fullest shard until the placement policy
    /// is satisfied. Deterministic: highest query id moves first, ties on
    /// load break toward the lowest worker id.
    fn rebalance(&mut self) {
        let mut migrated = 0u64;
        loop {
            let (max_w, &max) = self
                .loads
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .expect("at least one worker");
            let (min_w, &min) = self
                .loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
                .expect("at least one worker");
            if !self.placement.needs_rebalance(min, max) {
                if let (Some(m), 1..) = (&self.metrics, migrated) {
                    m.rebalance_total.inc();
                    m.migrations_total.add(migrated);
                }
                return;
            }
            let qid = self
                .queries
                .iter()
                .enumerate()
                .rev()
                .find(|(_, m)| !m.removed && m.worker == max_w)
                .map(|(i, _)| i)
                .expect("loaded worker owns a live query");
            let (reply_tx, reply_rx) = channel();
            self.send(max_w, ToWorker::Take(qid, reply_tx));
            let slot = reply_rx.recv().expect("worker alive");
            self.send(min_w, ToWorker::Add(qid, slot));
            self.queries[qid].worker = min_w;
            self.loads[max_w] -= 1;
            self.loads[min_w] += 1;
            migrated += 1;
        }
    }

    fn send(&self, worker: usize, msg: ToWorker) {
        self.senders[worker].send(msg).expect("worker alive");
    }

    /// Current tick count (number of `step` rounds).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of registered query slots (live + tombstoned).
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Latest answer of query `i`, sorted by object id.
    ///
    /// # Panics
    /// Panics when the query was removed.
    pub fn answer(&self, i: usize) -> &[ObjectId] {
        assert!(!self.queries[i].removed, "query {i} was removed");
        &self.answers[i]
    }

    /// Number of objects query `i` currently monitors.
    pub fn monitored(&self, i: usize) -> usize {
        self.histories[i].latest().map_or(0, |s| s.monitored)
    }

    /// Per-tick history of query `i`.
    pub fn history(&self, i: usize) -> &History {
        &self.histories[i]
    }

    /// The query object of query `i`.
    pub fn query_object(&self, i: usize) -> ObjectId {
        self.queries[i].obj
    }

    /// Per-worker aggregates over every sample each shard produced
    /// (indexed by worker id). Samples from migrated queries count on the
    /// worker that evaluated them.
    pub fn worker_stats(&self) -> Vec<SeriesStats> {
        self.senders
            .iter()
            .map(|tx| {
                let (reply_tx, reply_rx) = channel();
                tx.send(ToWorker::TakeStats(reply_tx))
                    .expect("worker alive");
                reply_rx.recv().expect("worker alive")
            })
            .collect()
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for tx in &self.senders {
            // A worker that already exited (poisoned channel) is fine.
            let _ = tx.send(ToWorker::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igern_core::processor::Processor;
    use igern_geom::Aabb;

    /// Build a loaded store with the first `n_a` objects of kind A.
    fn store(points: &[(f64, f64)], n_a: usize) -> SpatialStore {
        let kinds = (0..points.len())
            .map(|i| {
                if i < n_a {
                    ObjectKind::A
                } else {
                    ObjectKind::B
                }
            })
            .collect();
        let mut s = SpatialStore::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8, kinds);
        let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        s.load(&pts);
        s
    }

    fn pts() -> Vec<(f64, f64)> {
        (0..24)
            .map(|i| ((i * 7 % 24) as f64 / 2.4, (i * 13 % 24) as f64 / 2.4))
            .collect()
    }

    #[test]
    fn engine_matches_serial_processor_tick_by_tick() {
        let pts = pts();
        let mut serial = Processor::new(store(&pts, pts.len()));
        let mut engine = ShardedEngine::new(store(&pts, pts.len()), 3, Placement::RoundRobin);
        for i in 0..6u32 {
            serial.add_query(ObjectId(i * 4), Algorithm::IgernMono);
            engine
                .add_query(ObjectId(i * 4), Algorithm::IgernMono)
                .unwrap();
        }
        serial.evaluate_all();
        engine.evaluate_all();
        for t in 0..8 {
            let ups: Vec<(ObjectId, Point)> = (0..pts.len() as u32)
                .filter(|i| (i + t) % 3 == 0)
                .map(|i| {
                    let p = serial.store().position(ObjectId(i)).unwrap();
                    (ObjectId(i), Point::new((p.x + 0.3) % 10.0, p.y))
                })
                .collect();
            serial.step(&ups);
            engine.step(&ups);
            for q in 0..6 {
                assert_eq!(serial.answer(q), engine.answer(q), "query {q} tick {t}");
                assert_eq!(
                    serial.history(q).latest().unwrap().skipped,
                    engine.history(q).latest().unwrap().skipped,
                    "skip decision diverged: query {q} tick {t}"
                );
            }
        }
        assert_eq!(serial.tick(), engine.tick());
        // Every sample landed on some worker.
        let total: usize = engine.worker_stats().iter().map(|s| s.len()).sum();
        assert_eq!(total, 6 * 9);
    }

    #[test]
    fn round_robin_shards_stay_balanced_through_churn() {
        let pts = pts();
        let mut engine = ShardedEngine::new(store(&pts, pts.len()), 4, Placement::RoundRobin);
        let mut handles = Vec::new();
        for i in 0..10u32 {
            handles.push(engine.add_query(ObjectId(i), Algorithm::IgernMono).unwrap());
        }
        assert_eq!(engine.worker_loads(), &[3, 3, 2, 2]);
        // Remove everything on worker 0's rotation: rebalance keeps the
        // spread within one.
        engine.remove_query(handles[0]);
        engine.remove_query(handles[4]);
        engine.remove_query(handles[8]);
        let loads = engine.worker_loads().to_vec();
        assert_eq!(loads.iter().sum::<usize>(), 7);
        assert!(
            loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1,
            "{loads:?}"
        );
        engine.evaluate_all();
        engine.step(&[]);
        // Survivors still answer after migration.
        for &h in &handles[1..4] {
            let _ = engine.answer(h);
        }
    }

    #[test]
    fn anchor_cell_placement_groups_by_band() {
        let pts = [(0.5, 0.5), (0.6, 0.6), (9.5, 9.5), (9.4, 9.4)];
        let mut engine = ShardedEngine::new(store(&pts, pts.len()), 2, Placement::AnchorCell);
        // Interleave bands so the intermediate spread never trips the
        // 2x rebalance threshold.
        let a = engine.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        let c = engine.add_query(ObjectId(2), Algorithm::IgernMono).unwrap();
        let b = engine.add_query(ObjectId(1), Algorithm::IgernMono).unwrap();
        let d = engine.add_query(ObjectId(3), Algorithm::IgernMono).unwrap();
        // Low corner anchors share a band, far corner the other.
        assert_eq!(engine.worker_loads(), &[2, 2]);
        engine.evaluate_all();
        engine.step(&[(ObjectId(1), Point::new(0.7, 0.7))]);
        for (q, obj) in [(a, 0), (b, 1), (c, 2), (d, 3)] {
            assert_eq!(engine.query_object(q), ObjectId(obj));
        }
    }

    #[test]
    fn tombstoned_slots_are_reused_like_serial() {
        let pts = pts();
        let mut engine = ShardedEngine::new(store(&pts, pts.len()), 2, Placement::RoundRobin);
        let a = engine.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        let b = engine.add_query(ObjectId(1), Algorithm::IgernMono).unwrap();
        engine.evaluate_all();
        engine.remove_query(a);
        let c = engine.add_query(ObjectId(2), Algorithm::Knn(1)).unwrap();
        assert_eq!(c, a, "removed slot must be handed out again");
        assert_ne!(c, b);
        assert_eq!(engine.num_queries(), 2);
        engine.step(&[]);
        assert_eq!(engine.query_object(c), ObjectId(2));
        assert_eq!(engine.history(c).len(), 1, "fresh query, fresh history");
    }

    #[test]
    #[should_panic(expected = "was removed")]
    fn removed_query_answer_panics() {
        let pts = pts();
        let mut engine = ShardedEngine::new(store(&pts, pts.len()), 2, Placement::RoundRobin);
        let a = engine.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        engine.evaluate_all();
        engine.remove_query(a);
        let _ = engine.answer(a);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let pts = pts();
        ShardedEngine::new(store(&pts, 24), 0, Placement::RoundRobin);
    }

    #[test]
    fn bounded_history_and_routing_flags_mirror_serial() {
        let pts = pts();
        let mut engine = ShardedEngine::new(store(&pts, pts.len()), 2, Placement::RoundRobin);
        assert!(engine.skip_routing());
        engine.set_skip_routing(false);
        assert!(!engine.skip_routing());
        engine.set_history_capacity(Some(3));
        assert_eq!(engine.history_capacity(), Some(3));
        let q = engine.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        engine.evaluate_all();
        for _ in 0..7 {
            engine.step(&[]);
        }
        assert_eq!(engine.history(q).len(), 3);
        assert_eq!(engine.history(q).total(), 8);
        assert_eq!(engine.history(q).stats().len(), 8);
        // Forced evaluation: no skips even on quiet ticks.
        assert_eq!(engine.history(q).stats().skipped(), 0);
    }

    #[test]
    fn bad_registrations_are_reported_as_errors() {
        let pts = pts();
        // First 4 objects are kind A, the rest are B.
        let mut engine = ShardedEngine::new(store(&pts, 4), 2, Placement::RoundRobin);
        assert_eq!(
            engine.add_query(ObjectId(999), Algorithm::IgernMono),
            Err(EngineError::UnknownObject(ObjectId(999)))
        );
        assert_eq!(
            engine.add_query(ObjectId(10), Algorithm::IgernBi),
            Err(EngineError::NotKindA(ObjectId(10)))
        );
        // Failed registrations leave no residue: no slot, no load.
        assert_eq!(engine.num_queries(), 0);
        assert_eq!(engine.worker_loads(), &[0, 0]);
        let q = engine.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        assert_eq!(q, 0);
        engine.evaluate_all();
        assert_eq!(
            EngineError::UnknownObject(ObjectId(999)).to_string(),
            "query object o999 not in store"
        );
    }

    #[test]
    fn engine_metrics_capture_rounds_and_workers() {
        let pts = pts();
        let reg = MetricsRegistry::new();
        let mut engine = ShardedEngine::new(store(&pts, pts.len()), 2, Placement::RoundRobin);
        engine.set_metrics(Some(EngineMetrics::register(
            &reg,
            "igern_engine",
            engine.num_workers(),
        )));
        for i in 0..4u32 {
            engine.add_query(ObjectId(i), Algorithm::IgernMono).unwrap();
        }
        engine.evaluate_all();
        engine.step(&[(ObjectId(10), Point::new(1.0, 1.0))]);
        let m = engine.metrics().unwrap();
        assert_eq!(m.pipeline.ticks_total.get(), 2);
        assert_eq!(m.pipeline.updates_total.get(), 1);
        assert_eq!(
            m.pipeline.queries_evaluated_total.get() + m.pipeline.queries_skipped_total.get(),
            8,
            "4 queries × 2 rounds, each either evaluated or skipped"
        );
        // Every worker timed both rounds, and shard gauges cover all
        // live queries.
        let worker_ticks: u64 = m.worker_tick_seconds.iter().map(|h| h.count()).sum();
        assert_eq!(worker_ticks, 4);
        let shard_total: f64 = m.shard_size.iter().map(|g| g.get()).sum();
        assert_eq!(shard_total, 4.0);
        assert_eq!(m.handoff_seconds.count(), 2);
        // The full engine registry exports cleanly through both formats.
        let prom = reg.render_prometheus();
        igern_core::obs::promtext::lint(&prom).expect("engine export lints");
        igern_core::obs::jsontext::parse(&reg.render_json()).expect("json parses");
    }

    #[test]
    fn dynamic_population_flows_through_the_engine() {
        let pts = [(5.0, 5.0), (4.0, 5.0), (8.0, 8.0)];
        let mut engine = ShardedEngine::new(store(&pts, 3), 2, Placement::RoundRobin);
        let h = engine.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        engine.evaluate_all();
        engine.insert_object(ObjectId(50), ObjectKind::A, Point::new(5.4, 5.0));
        engine.step(&[]);
        assert!(engine.answer(h).contains(&ObjectId(50)));
        engine.remove_object(ObjectId(50));
        engine.step(&[]);
        assert!(!engine.answer(h).contains(&ObjectId(50)));
        assert!(engine.monitored(h) > 0);
    }
}

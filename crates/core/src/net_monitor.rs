//! Network-distance continuous monitors.
//!
//! These run the mono/bi RkNN families and kNN under the road-network
//! metric (see [`crate::netspace`]). Each evaluation recomputes from the
//! current snapped view — like the snapshot baselines they publish no
//! watch set ([`ContinuousMonitor::monitored_cells`] returns `None`), so
//! skip routing only elides them on fully quiet ticks, which is sound
//! because identical input yields an identical recomputation. They stay
//! on the per-query path under batch evaluation (`batch_class` is
//! `None`); cross-query sharing happens through lane-local caches
//! instead: the memoized Dijkstra expansions, which cache per anchor
//! *node* and so are shared by every query and candidate touching that
//! node, and the RkNN blocker tables described below.
//!
//! # Pruning
//!
//! Candidate generation pays one pair of memoized expansions for the
//! query's edge endpoints; every object's query distance is then O(1).
//!
//! Whether a candidate `o` is blocked needs `o`'s nearest blockers, and
//! those do not depend on the query — only the bound `d_net(q, o)` does.
//! So the blocking test reads a per-lane `BlockerTable` shared by every
//! RkNN query with the same blocker class (kind A for bichromatic, all
//! objects for monochromatic) and `k`. Row `o` is filled lazily on first
//! use by the same pruned ring scan of the *snapped* grid as
//! [`NetKnnMonitor`], which finds `o`'s `k` nearest blockers in
//! `(d_net(o, o'), id)` order: network distance dominates straight-line
//! distance between snapped points, and [`net_lb`] keeps that bound
//! sound under floating-point rounding. The row keeps the k-th distance
//! (`∞` when fewer than `k` blockers exist), so a table costs O(objects)
//! memory whatever `k` a client asks for.
//!
//! A query blocks `o` iff the row's k-th distance is `< d_net(q, o)`.
//! The oracle asks for at least `k` blockers other than `o` and `q`
//! strictly closer than the bound. The row may include `q` itself, but
//! `q` never beats the bound: [`NetworkSpace::dist`] is symmetric bit
//! for bit and `q` is evaluated at its own snapped position, so
//! `d_net(o, q)` *is* the bound and fails the strict `<`. The k nearest
//! blockers therefore all beat the bound iff `k` blockers other than `q`
//! do. A blocker at exactly the bound, or an unreachable one at `∞`,
//! fails `<` here as in the oracle; with `d_net(q, o) = ∞` the test
//! reads "at least `k` reachable blockers".
//!
//! Rows are stamped with [`NetView::stamp`], which every store mutation
//! renews, so a row is filled at most once per store state and never
//! read stale. Fill work is not charged to the query that triggers it
//! (nor are Dijkstra memo fills), so per-query [`OpCounters`] do not
//! depend on lane count or evaluation order; only the desynced bucket
//! entries a fill skipped are reported, by every query that reads the
//! row.
//!
//! Answers are bit-identical to the `naive` network oracles: both sides
//! compute every distance with the same symmetric [`NetworkSpace::dist`],
//! so they compare identical floats.

use igern_geom::Point;
use igern_grid::{CellId, CellSet, Grid, ObjectId, OpCounters};

use crate::monitor::ContinuousMonitor;
use crate::netspace::{net_lb, NetPos, NetScratch, NetView, NetworkSpace};
use crate::scratch::EvalScratch;
use crate::store::SpatialStore;
use crate::types::ObjectKind;

/// Fetch the store's network view or panic with an actionable message —
/// registration paths validate this, so hitting it means a driver wired
/// a network-mode query into a store without a network.
fn net_view(store: &SpatialStore) -> &NetView {
    store
        .net_view()
        .expect("network-mode query on a store without an attached road network")
}

/// Scan `grid` in expanding Chebyshev rings around `center`, calling
/// `visit` on every cell whose [`net_lb`]-deflated mindist does not
/// exceed the pruning bound. `visit` returns the bound after its cell
/// (`∞` until the caller's result is full); the scan stops once a whole
/// ring lies beyond it.
fn ring_scan(grid: &Grid, center: Point, mut visit: impl FnMut(CellId) -> f64) {
    let (bx, by) = grid.cell_coords(grid.cell_of_point(center));
    let side = grid.cells_per_side() as isize;
    let min_ext = grid.min_cell_extent();
    let (bxi, byi) = (bx as isize, by as isize);
    let max_r = bxi.max(side - 1 - bxi).max(byi.max(side - 1 - byi)).max(0) as usize;
    let mut bound = f64::INFINITY;
    for r in 0..=max_r {
        if net_lb((r as f64 - 1.0).max(0.0) * min_ext) > bound {
            break;
        }
        let ri = r as isize;
        let mut cell = |cx: isize, cy: isize| {
            if cx < 0 || cy < 0 || cx >= side || cy >= side {
                return;
            }
            let c = grid.cell_at(cx as usize, cy as usize);
            if net_lb(grid.cell_bounds(c).mindist(center)) <= bound {
                bound = visit(c);
            }
        };
        if r == 0 {
            cell(bxi, byi);
        } else {
            for cx in (bxi - ri)..=(bxi + ri) {
                cell(cx, byi - ri);
                cell(cx, byi + ri);
            }
            for cy in (byi - ri + 1)..=(byi + ri - 1) {
                cell(bxi - ri, cy);
                cell(bxi + ri, cy);
            }
        }
    }
}

/// Insert `entry` into the `(distance, id)`-sorted `top[..*len]`,
/// keeping at most `top.len()` entries.
fn insert_sorted(top: &mut [(f64, ObjectId)], len: &mut usize, entry: (f64, ObjectId)) {
    let (d, id) = entry;
    let at = top[..*len].partition_point(|&(bd, bid)| bd.total_cmp(&d).then(bid.cmp(&id)).is_lt());
    if at < top.len() {
        let end = (*len).min(top.len() - 1);
        top.copy_within(at..end, at + 1);
        top[at] = entry;
        *len = (*len + 1).min(top.len());
    }
}

/// One candidate's row in a [`BlockerTable`].
#[derive(Debug, Clone, Copy)]
struct Row {
    /// [`NetView::stamp`] the row was filled under (0: never filled).
    stamp: u64,
    /// Desynced bucket entries the fill skipped.
    desyncs: u32,
    /// Distance to the k-th nearest blocker; `∞` when fewer than `k`
    /// blockers exist.
    kth: f64,
}

const UNFILLED: Row = Row {
    stamp: 0,
    desyncs: 0,
    kth: f64::INFINITY,
};

/// Per-lane k-nearest-blocker table for one `(blocker class, k)` (see
/// the module docs), indexed by candidate id.
#[derive(Debug)]
pub(crate) struct BlockerTable {
    /// Blockers are kind-A objects only (bichromatic) or all objects.
    a_only: bool,
    k: usize,
    rows: Vec<Row>,
    /// `(distance, id)`-sorted top-k staging for a fill.
    stage: Vec<(f64, ObjectId)>,
}

impl BlockerTable {
    /// The table for `(a_only, k)` among `tables`, created on first use.
    fn select(tables: &mut Vec<BlockerTable>, a_only: bool, k: usize) -> &mut BlockerTable {
        let at = match tables.iter().position(|t| t.a_only == a_only && t.k == k) {
            Some(at) => at,
            None => {
                tables.push(BlockerTable {
                    a_only,
                    k,
                    rows: Vec::new(),
                    stage: Vec::new(),
                });
                tables.len() - 1
            }
        };
        &mut tables[at]
    }

    /// Candidate `o_id`'s row, filled first unless it was filled under
    /// the view's current stamp.
    fn row(
        &mut self,
        store: &SpatialStore,
        nv: &NetView,
        net: &mut NetScratch,
        o_id: ObjectId,
        o_pos: &NetPos,
    ) -> Row {
        let i = o_id.index();
        if self.rows.len() <= i {
            self.rows.resize(i + 1, UNFILLED);
        }
        if self.rows[i].stamp != nv.stamp() {
            self.rows[i] = self.fill(store, nv, net, o_id, o_pos);
        }
        self.rows[i]
    }

    /// `o`'s row: a ring scan of the snapped grid around `o` for its `k`
    /// nearest blockers, pruned by [`net_lb`] against the current k-th
    /// best distance.
    fn fill(
        &mut self,
        store: &SpatialStore,
        nv: &NetView,
        net: &mut NetScratch,
        o_id: ObjectId,
        o_pos: &NetPos,
    ) -> Row {
        let ns: &NetworkSpace = nv.space();
        let grid = nv.grid();
        // No more than the population can be found, whatever k asks for.
        let cap = self.k.min(grid.len());
        let top = &mut self.stage;
        top.clear();
        top.resize(cap, (0.0, ObjectId(0)));
        let mut len = 0usize;
        let mut desyncs = 0u32;
        ring_scan(grid, o_pos.point, |c| {
            let mut bound = if len == cap {
                top[cap - 1].0
            } else {
                f64::INFINITY
            };
            for &pid in grid.objects_in(c) {
                let Some(p) = grid.position(pid) else {
                    desyncs += 1;
                    continue;
                };
                if pid == o_id || (self.a_only && store.kind(pid) != ObjectKind::A) {
                    continue;
                }
                if net_lb(o_pos.point.dist(p)) > bound {
                    continue;
                }
                let Some(sp) = nv.net_pos(pid) else {
                    desyncs += 1;
                    continue;
                };
                insert_sorted(top, &mut len, (ns.dist(net, o_pos, &sp), pid));
                if len == cap {
                    bound = top[cap - 1].0;
                }
            }
            bound
        });
        Row {
            stamp: nv.stamp(),
            desyncs,
            kth: if len == self.k {
                top[len - 1].0
            } else {
                f64::INFINITY
            },
        }
    }
}

/// Reverse-k-nearest-neighbors under network distance, monochromatic
/// (`bi = false`, candidates and blockers are all objects) or
/// bichromatic (`bi = true`, candidates are B objects, blockers are A
/// objects).
pub struct NetRknnMonitor {
    q_id: Option<ObjectId>,
    k: usize,
    bi: bool,
    answer: Vec<ObjectId>,
    candidates: usize,
}

impl NetRknnMonitor {
    /// Monochromatic network RkNN anchored at `q_id`.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn mono(q_id: Option<ObjectId>, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        NetRknnMonitor {
            q_id,
            k,
            bi: false,
            answer: Vec::new(),
            candidates: 0,
        }
    }

    /// Bichromatic network RkNN anchored at `q_id`.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn bi(q_id: Option<ObjectId>, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        NetRknnMonitor {
            q_id,
            k,
            bi: true,
            answer: Vec::new(),
            candidates: 0,
        }
    }

    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let nv = net_view(store);
        let ns = nv.space().as_ref();
        let sq = ns.snap(q);
        debug_assert!(
            self.q_id
                .and_then(|id| nv.net_pos(id))
                .is_none_or(|p| p == sq),
            "the blocking test needs q evaluated at its own position"
        );
        ops.nn += 1;
        self.answer.clear();
        self.candidates = 0;
        // Taken out of the scratch so the Dijkstra memo beside it can
        // still feed `ns.dist` while the table is borrowed.
        let mut tables = std::mem::take(&mut scratch.net.blockers);
        let table = BlockerTable::select(&mut tables, self.bi, self.k);
        for (oid, _) in nv.grid().iter() {
            if Some(oid) == self.q_id {
                continue;
            }
            if self.bi && store.kind(oid) != ObjectKind::B {
                continue;
            }
            let Some(so) = nv.net_pos(oid) else {
                ops.desyncs += 1;
                continue;
            };
            self.candidates += 1;
            ops.objects_visited += 1;
            ops.verifications += 1;
            let d_oq = ns.dist(&mut scratch.net, &sq, &so);
            let row = table.row(store, nv, &mut scratch.net, oid, &so);
            ops.desyncs += u64::from(row.desyncs);
            // Blocked iff the k nearest blockers all beat the bound (`q`
            // never does; see the module docs).
            let blocked = row.kth < d_oq;
            if !blocked {
                self.answer.push(oid);
            }
        }
        scratch.net.blockers = tables;
        self.answer.sort_unstable();
    }
}

impl ContinuousMonitor for NetRknnMonitor {
    fn initial(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        self.evaluate(store, q, ops, scratch);
    }

    fn incremental(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        self.evaluate(store, q, ops, scratch);
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend_from_slice(&self.answer);
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        None
    }

    fn num_monitored(&self) -> usize {
        self.candidates
    }

    fn region_area(&self, _store: &SpatialStore) -> f64 {
        0.0
    }
}

/// k-nearest-neighbors under network distance: expanding Chebyshev-ring
/// scan of the snapped grid, pruned by the Euclidean lower bound against
/// the current k-th best network distance. Ties broken by object id,
/// matching `naive::knn_net`.
pub struct NetKnnMonitor {
    q_id: Option<ObjectId>,
    k: usize,
    answer: Vec<ObjectId>,
}

impl NetKnnMonitor {
    /// Network kNN anchored at `q_id`.
    pub fn new(q_id: Option<ObjectId>, k: usize) -> Self {
        NetKnnMonitor {
            q_id,
            k,
            answer: Vec::new(),
        }
    }

    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let nv = net_view(store);
        let ns = nv.space().as_ref();
        let grid: &Grid = nv.grid();
        let sq = ns.snap(q);
        ops.nn += 1;
        // (distance, id)-ordered top-k staging, taken out of the scratch
        // so the network scratch can still feed `ns.dist` while we hold it.
        let mut top = std::mem::take(&mut scratch.net.knn);
        top.clear();
        top.resize(self.k, (0.0, ObjectId(0)));
        let mut len = 0usize;
        let k = self.k;
        ring_scan(grid, sq.point, |c| {
            let mut bound = if len == k {
                top[k - 1].0
            } else {
                f64::INFINITY
            };
            ops.cells_visited += 1;
            for &oid in grid.objects_in(c) {
                if Some(oid) == self.q_id {
                    continue;
                }
                let Some(p) = grid.position(oid) else {
                    ops.desyncs += 1;
                    continue;
                };
                if net_lb(sq.point.dist(p)) > bound {
                    continue;
                }
                let Some(so) = nv.net_pos(oid) else {
                    ops.desyncs += 1;
                    continue;
                };
                ops.objects_visited += 1;
                insert_sorted(
                    &mut top,
                    &mut len,
                    (ns.dist(&mut scratch.net, &sq, &so), oid),
                );
                if len == k {
                    bound = top[k - 1].0;
                }
            }
            bound
        });
        top.truncate(len);
        self.answer.clear();
        self.answer.extend(top.iter().map(|&(_, id)| id));
        self.answer.sort_unstable();
        scratch.net.knn = top;
    }
}

impl ContinuousMonitor for NetKnnMonitor {
    fn initial(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        self.evaluate(store, q, ops, scratch);
    }

    fn incremental(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        self.evaluate(store, q, ops, scratch);
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend_from_slice(&self.answer);
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        None
    }

    fn num_monitored(&self) -> usize {
        self.k
    }

    fn region_area(&self, _store: &SpatialStore) -> f64 {
        0.0
    }
}

//! Network-distance correctness gate: every network-mode monitor must
//! answer bit-identically to the brute-force Dijkstra oracles in
//! `igern_core::naive`, across the whole algorithm family, k ∈ {1, 2, 4},
//! batch on/off, routed and forced evaluation, and mid-stream population
//! churn — plus direct admissibility fuzz for the Euclidean lower bound
//! the monitors prune with, and hand-built edge cases for the RkNN
//! monitors' shared k-nearest-blocker table.

use std::sync::Arc;

use igern_core::naive;
use igern_core::processor::{Algorithm, Processor};
use igern_core::{
    net_lb, ContinuousMonitor, DistanceMode, EvalScratch, NetRknnMonitor, NetScratch, NetworkSpace,
    ObjectKind, SpatialStore,
};
use igern_geom::{Aabb, Point};
use igern_grid::{ObjectId, OpCounters};
use igern_mobgen::workload::Mover;
use igern_mobgen::{
    build_synthetic_network, NetworkMover, RoadClass, RoadNetwork, SyntheticNetworkConfig,
};

const SPACE: Aabb = Aabb {
    min: Point::new(0.0, 0.0),
    max: Point::new(1000.0, 1000.0),
};

fn network(seed: u64) -> igern_mobgen::RoadNetwork {
    build_synthetic_network(&SyntheticNetworkConfig {
        k: 5,
        space: SPACE,
        jitter: 0.2,
        highway_stride: 2,
        prune_fraction: 0.1,
        seed,
    })
}

/// The fuzz matrix: every algorithm family at k ∈ {1, 2, 4}.
fn all_queries() -> Vec<Algorithm> {
    let mut v = vec![
        Algorithm::IgernMono,
        Algorithm::Crnn,
        Algorithm::TplRepeat,
        Algorithm::IgernBi,
        Algorithm::VoronoiRepeat,
    ];
    for k in [1usize, 2, 4] {
        v.push(Algorithm::IgernMonoK(k));
        v.push(Algorithm::IgernBiK(k));
        v.push(Algorithm::Knn(k));
    }
    v
}

/// The network-mode expected answer for `algo`, straight from the
/// brute-force oracles.
fn expected(
    ns: &NetworkSpace,
    scratch: &mut NetScratch,
    store: &SpatialStore,
    q_obj: ObjectId,
    algo: Algorithm,
) -> Vec<ObjectId> {
    let q = store.position(q_obj).expect("anchor alive");
    let mut all: Vec<(ObjectId, Point)> = store.all().iter().collect();
    all.sort_unstable_by_key(|&(id, _)| id);
    let a: Vec<_> = all
        .iter()
        .copied()
        .filter(|&(id, _)| store.kind(id) == ObjectKind::A)
        .collect();
    let b: Vec<_> = all
        .iter()
        .copied()
        .filter(|&(id, _)| store.kind(id) == ObjectKind::B)
        .collect();
    let qi = Some(q_obj);
    match algo {
        Algorithm::IgernMono | Algorithm::Crnn | Algorithm::TplRepeat => {
            naive::mono_rnn_net(ns, scratch, &all, q, qi)
        }
        Algorithm::IgernMonoK(k) => naive::mono_rknn_net(ns, scratch, &all, q, qi, k),
        Algorithm::IgernBi | Algorithm::VoronoiRepeat => {
            naive::bi_rnn_net(ns, scratch, &a, &b, q, qi)
        }
        Algorithm::IgernBiK(k) => naive::bi_rknn_net(ns, scratch, &a, &b, q, qi, k),
        Algorithm::Knn(k) => naive::knn_net(ns, scratch, &all, q, qi, k),
    }
}

/// Build a store over the mover's current population: even ids are kind
/// A (query side), odd ids kind B.
fn store_for(mover: &NetworkMover, ns: &Arc<NetworkSpace>, grid: usize) -> SpatialStore {
    let n = mover.len();
    let kinds: Vec<ObjectKind> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                ObjectKind::A
            } else {
                ObjectKind::B
            }
        })
        .collect();
    let positions: Vec<Point> = (0..n as u32).map(|i| mover.position(i)).collect();
    let mut store = SpatialStore::new(SPACE, grid, kinds);
    store.load(&positions);
    store.set_network(Arc::clone(ns));
    store
}

/// The tentpole gate: all algorithms × k × churn, routed, against the
/// oracles every tick, with batch evaluation required bit-identical.
#[test]
fn network_monitors_match_oracles_under_churn() {
    for seed in [3u64, 17] {
        let net = network(seed);
        let ns = Arc::new(NetworkSpace::from_network(&net));
        let mut mover = NetworkMover::new(net, 24, seed);
        let mut p = Processor::new(store_for(&mover, &ns, 16));
        let mut p_batch = Processor::new(store_for(&mover, &ns, 16));
        p_batch.set_batch(true);
        let mut oracle_scratch = NetScratch::default();

        let algos = all_queries();
        let mut handles = Vec::new();
        for (i, &algo) in algos.iter().enumerate() {
            // Anchors cycle through kind-A objects (even ids).
            let anchor = ObjectId(((i * 2) % mover.len()) as u32);
            handles.push((
                p.add_query_in(anchor, algo, DistanceMode::Network),
                p_batch.add_query_in(anchor, algo, DistanceMode::Network),
                anchor,
                algo,
            ));
        }
        p.evaluate_all();
        p_batch.evaluate_all();

        for tick in 0..24u64 {
            // Mid-stream churn: a static B joins at tick 8, an A at tick
            // 12; the B leaves at tick 16.
            if tick == 8 {
                for r in [&mut p, &mut p_batch] {
                    r.insert_object(ObjectId(200), ObjectKind::B, Point::new(480.0, 520.0));
                }
            }
            if tick == 12 {
                for r in [&mut p, &mut p_batch] {
                    r.insert_object(ObjectId(201), ObjectKind::A, Point::new(30.0, 950.0));
                }
            }
            if tick == 16 {
                for r in [&mut p, &mut p_batch] {
                    r.remove_object(ObjectId(200));
                }
            }
            let updates: Vec<(ObjectId, Point)> = mover
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect();
            p.step(&updates);
            p_batch.step(&updates);
            for &(h, hb, anchor, algo) in &handles {
                let want = expected(&ns, &mut oracle_scratch, p.store(), anchor, algo);
                assert_eq!(
                    p.answer(h),
                    want.as_slice(),
                    "seed {seed} tick {tick} algo {algo:?} anchor {anchor}"
                );
                assert_eq!(
                    p_batch.answer(hb),
                    want.as_slice(),
                    "batch mismatch: seed {seed} tick {tick} algo {algo:?}"
                );
            }
        }
    }
}

/// Skip routing must be answer-invisible for network monitors: they
/// publish no watch set, so they may only be skipped on fully quiet
/// ticks — force a quiet tick and a dirty tick and compare to a
/// never-skipping twin.
#[test]
fn network_skip_routing_is_answer_invisible() {
    let net = network(9);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut mover = NetworkMover::new(net, 16, 9);
    let mut routed = Processor::new(store_for(&mover, &ns, 16));
    let mut forced = Processor::new(store_for(&mover, &ns, 16));
    forced.set_skip_routing(false);
    let q_r = routed.add_query_in(ObjectId(0), Algorithm::IgernMonoK(2), DistanceMode::Network);
    let q_f = forced.add_query_in(ObjectId(0), Algorithm::IgernMonoK(2), DistanceMode::Network);
    routed.evaluate_all();
    forced.evaluate_all();
    for round in 0..10 {
        // Alternate quiet ticks (skip fires) with real movement.
        let updates: Vec<(ObjectId, Point)> = if round % 2 == 0 {
            Vec::new()
        } else {
            mover
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect()
        };
        routed.step(&updates);
        forced.step(&updates);
        assert_eq!(routed.answer(q_r), forced.answer(q_f), "round {round}");
    }
}

/// Admissibility fuzz: for arbitrary raw positions (on- and off-network
/// alike), the deflated Euclidean distance between snapped points never
/// exceeds the network distance — and therefore the disk
/// `disk(o, d_net(q, o))` the monitors sweep always contains every true
/// blocker. A violation here is exactly "pruning discarded a true
/// network neighbor".
#[test]
fn euclidean_lower_bound_never_discards_a_network_neighbor() {
    let net = network(5);
    let ns = NetworkSpace::from_network(&net);
    let mut scratch = NetScratch::default();
    let mut state = 0xabcdu64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for _ in 0..200 {
        let q = ns.snap(Point::new(rnd() * 1000.0, rnd() * 1000.0));
        let o = ns.snap(Point::new(rnd() * 1000.0, rnd() * 1000.0));
        let d_net = ns.dist(&mut scratch, &q, &o);
        assert!(
            net_lb(q.point.dist(o.point)) <= d_net,
            "lower bound exceeded network distance"
        );
        // Every point network-closer to o than q must fall inside the
        // Euclidean pruning disk around o.
        for _ in 0..20 {
            let other = ns.snap(Point::new(rnd() * 1000.0, rnd() * 1000.0));
            let d_oo = ns.dist(&mut scratch, &o, &other);
            if d_oo < d_net {
                assert!(
                    net_lb(o.point.dist(other.point)) < d_net,
                    "true network neighbor outside the pruning disk: \
                     d_net(o,o')={d_oo} bound={d_net}"
                );
            }
        }
    }
}

/// Network answers must be independent of scratch warmth and of which
/// lane evaluates them: two processors with different evaluation
/// histories agree bit-for-bit.
#[test]
fn answers_are_independent_of_memo_warmth() {
    let net = network(21);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut mover = NetworkMover::new(net, 12, 21);
    // `warm` runs extra queries first so its Dijkstra memos differ.
    let mut warm = Processor::new(store_for(&mover, &ns, 8));
    let mut cold = Processor::new(store_for(&mover, &ns, 8));
    for i in 0..6 {
        warm.add_query_in(ObjectId(i * 2), Algorithm::Knn(3), DistanceMode::Network);
    }
    warm.evaluate_all();
    let qw = warm.add_query_in(ObjectId(2), Algorithm::IgernMonoK(2), DistanceMode::Network);
    let qc = cold.add_query_in(ObjectId(2), Algorithm::IgernMonoK(2), DistanceMode::Network);
    for _ in 0..8 {
        let updates: Vec<(ObjectId, Point)> = mover
            .advance()
            .iter()
            .map(|u| (ObjectId(u.id), u.pos))
            .collect();
        warm.step(&updates);
        cold.step(&updates);
        assert_eq!(warm.answer(qw), cold.answer(qc));
    }
}

/// Registration guard: network mode without an attached network must be
/// rejected up front, not fail deep inside evaluation.
#[test]
#[should_panic(expected = "attached road network")]
fn network_mode_requires_a_network() {
    let mut store = SpatialStore::new(SPACE, 8, vec![ObjectKind::A]);
    store.load(&[Point::new(1.0, 1.0)]);
    let mut p = Processor::new(store);
    p.add_query_in(ObjectId(0), Algorithm::IgernMono, DistanceMode::Network);
}

// ---------------------------------------------------------------------
// Blocker-table edge cases. The roads below have dyadic coordinates and
// lengths, so every network distance is exact and ties are real ties.
// ---------------------------------------------------------------------

/// Two disconnected straight roads: `y = 0` (nodes every 64 from x = 0
/// to 256) and `y = 512` (x = 0 to 128).
fn two_roads() -> Arc<NetworkSpace> {
    let nodes = vec![
        Point::new(0.0, 0.0),
        Point::new(64.0, 0.0),
        Point::new(128.0, 0.0),
        Point::new(192.0, 0.0),
        Point::new(256.0, 0.0),
        Point::new(0.0, 512.0),
        Point::new(64.0, 512.0),
        Point::new(128.0, 512.0),
    ];
    let segs = [
        (0, 1, RoadClass::Main),
        (1, 2, RoadClass::Main),
        (2, 3, RoadClass::Main),
        (3, 4, RoadClass::Main),
        (5, 6, RoadClass::Main),
        (6, 7, RoadClass::Main),
    ];
    Arc::new(NetworkSpace::from_network(&RoadNetwork::new(
        nodes, &segs, SPACE,
    )))
}

/// A store over `ns` holding `objects` (`(id, kind, x, y)`; ids must be
/// dense from 0).
fn store_on(ns: Arc<NetworkSpace>, objects: &[(u32, ObjectKind, f64, f64)]) -> SpatialStore {
    let kinds: Vec<ObjectKind> = objects.iter().map(|o| o.1).collect();
    let positions: Vec<Point> = objects.iter().map(|o| Point::new(o.2, o.3)).collect();
    let mut store = SpatialStore::new(SPACE, 16, kinds);
    store.load(&positions);
    store.set_network(ns);
    store
}

/// [`store_on`] over [`two_roads`].
fn road_store(objects: &[(u32, ObjectKind, f64, f64)]) -> SpatialStore {
    store_on(two_roads(), objects)
}

/// Evaluate network RkNN at `q_obj` for mono and bi, k ∈ {1, 2, 4} and
/// a k beyond any population here, all on the one `scratch` (so its
/// blocker tables are shared and reused), asserting each answer equals
/// the Dijkstra oracle. Returns the answers as `(bi, k, answer)`.
fn check_rknn(
    store: &SpatialStore,
    q_obj: ObjectId,
    scratch: &mut EvalScratch,
    ctx: &str,
) -> Vec<(bool, usize, Vec<ObjectId>)> {
    let ns = Arc::clone(store.network().expect("network attached"));
    let mut oracle = NetScratch::default();
    let q = store.position(q_obj).expect("anchor alive");
    let mut out = Vec::new();
    for bi in [false, true] {
        for k in [1usize, 2, 4, 1000] {
            let mut m = if bi {
                NetRknnMonitor::bi(Some(q_obj), k)
            } else {
                NetRknnMonitor::mono(Some(q_obj), k)
            };
            let mut ops = OpCounters::default();
            m.initial(store, q, &mut ops, scratch);
            let mut got = Vec::new();
            m.answer_into(&mut got);
            let algo = if bi {
                Algorithm::IgernBiK(k)
            } else {
                Algorithm::IgernMonoK(k)
            };
            let want = expected(&ns, &mut oracle, store, q_obj, algo);
            assert_eq!(got, want, "{ctx}: bi {bi} k {k}");
            out.push((bi, k, got));
        }
    }
    out
}

/// The answer for `(bi, k)` out of [`check_rknn`]'s results.
fn answer_of(results: &[(bool, usize, Vec<ObjectId>)], bi: bool, k: usize) -> &[ObjectId] {
    &results.iter().find(|r| r.0 == bi && r.1 == k).unwrap().2
}

/// A blocker at exactly `d_net(q, o)` does not block: the test is a
/// strict `<`, as in the oracle.
#[test]
fn blocker_at_exactly_the_query_distance_does_not_block() {
    use ObjectKind::{A, B};
    // q = 0 at x = 16; candidate 1 at x = 48 (d = 32); blocker 2 at
    // x = 80, also 32 from the candidate (across node 1).
    let store = road_store(&[(0, A, 16.0, 0.0), (1, B, 48.0, 0.0), (2, A, 80.0, 0.0)]);
    let r = check_rknn(&store, ObjectId(0), &mut EvalScratch::new(), "tie");
    for bi in [false, true] {
        assert!(
            answer_of(&r, bi, 1).contains(&ObjectId(1)),
            "bi {bi}: a tie must not block"
        );
    }
}

/// The query object can be among a candidate's k nearest blockers; it
/// sits at exactly the bound, so it never counts towards blocking.
#[test]
fn query_object_among_the_nearest_blockers_never_blocks() {
    use ObjectKind::{A, B};
    // Candidate 1 at x = 20: q (x = 16) and blocker 2 (x = 24) both at
    // 4, blocker 3 at 1, blocker 4 at 8, blocker 5 far away.
    let store = road_store(&[
        (0, A, 16.0, 0.0),
        (1, B, 20.0, 0.0),
        (2, A, 24.0, 0.0),
        (3, A, 21.0, 0.0),
        (4, A, 28.0, 0.0),
        (5, A, 200.0, 0.0),
    ]);
    let r = check_rknn(&store, ObjectId(0), &mut EvalScratch::new(), "q in row");
    // Blocker 3 is strictly closer than q: blocked at k = 1. At k = 2
    // the second blocker other than q is 2, a tie: not blocked.
    assert!(!answer_of(&r, true, 1).contains(&ObjectId(1)));
    assert!(answer_of(&r, true, 2).contains(&ObjectId(1)));
    assert!(answer_of(&r, true, 4).contains(&ObjectId(1)));
}

/// The blocking test counts `q` like any other blocker and relies on it
/// never beating the bound: `d_net(o, q)` must be the very float
/// `d_net(q, o)`, whichever way round it is computed. Check that on a
/// synthetic road map, then put a second blocker at `q`'s exact
/// position: it ties with the bound and must not block either.
#[test]
fn query_distance_is_symmetric_so_q_never_blocks() {
    use ObjectKind::{A, B};
    let ns = Arc::new(NetworkSpace::from_network(&network(5)));
    let mut s = NetScratch::default();
    let mut state = 0x5eedu64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0
    };
    let mut pairs = Vec::new();
    for _ in 0..2000 {
        let (q, o) = (Point::new(rnd(), rnd()), Point::new(rnd(), rnd()));
        let (sq, so) = (ns.snap(q), ns.snap(o));
        let (d_qo, d_oq) = (ns.dist(&mut s, &sq, &so), ns.dist(&mut s, &so, &sq));
        assert_eq!(d_qo.to_bits(), d_oq.to_bits(), "asymmetric at {q:?} {o:?}");
        pairs.push((q, o));
    }
    for &(q, o) in &pairs[..20] {
        let store = store_on(
            Arc::clone(&ns),
            &[(0, A, q.x, q.y), (1, B, o.x, o.y), (2, A, q.x, q.y)],
        );
        let r = check_rknn(&store, ObjectId(0), &mut EvalScratch::new(), "twin of q");
        for bi in [false, true] {
            assert!(answer_of(&r, bi, 1).contains(&ObjectId(1)), "bi {bi}");
        }
    }
}

/// A candidate in another component has `d_net(q, o) = ∞`: it is
/// blocked iff at least `k` blockers can reach it.
#[test]
fn unreachable_candidates_need_k_reachable_blockers() {
    use ObjectKind::{A, B};
    let store = road_store(&[
        (0, A, 16.0, 0.0),
        (1, B, 48.0, 0.0),
        // Upper road: one B with two reachable A blockers.
        (2, B, 16.0, 512.0),
        (3, A, 40.0, 512.0),
        (4, A, 100.0, 512.0),
        (5, A, 130.0, 0.0),
    ]);
    let r = check_rknn(&store, ObjectId(0), &mut EvalScratch::new(), "unreachable");
    assert!(!answer_of(&r, true, 1).contains(&ObjectId(2)));
    assert!(!answer_of(&r, true, 2).contains(&ObjectId(2)));
    assert!(answer_of(&r, true, 4).contains(&ObjectId(2)));
}

/// Desynced objects (bucket entry left, position slot cleared) are
/// neither candidates nor blockers, as in the oracle over live objects.
#[test]
fn desynced_blockers_are_ignored() {
    use ObjectKind::{A, B};
    let mut store = road_store(&[
        (0, A, 16.0, 0.0),
        (1, B, 48.0, 0.0),
        (2, A, 44.0, 0.0),
        (3, A, 52.0, 0.0),
        (4, B, 100.0, 0.0),
        (5, A, 150.0, 0.0),
    ]);
    let mut scratch = EvalScratch::new();
    let before = check_rknn(&store, ObjectId(0), &mut scratch, "before desync");
    assert!(!answer_of(&before, true, 2).contains(&ObjectId(1)));
    assert!(store.debug_force_desync(ObjectId(2)));
    assert!(store.debug_force_desync(ObjectId(4)));
    let after = check_rknn(&store, ObjectId(0), &mut scratch, "after desync");
    assert!(answer_of(&after, true, 2).contains(&ObjectId(1)));
}

/// Rows never go stale: moving, removing and inserting blockers between
/// two evaluations on one scratch — with no `drain_dirty` in between —
/// must show up in the second answer.
#[test]
fn blocker_rows_refill_after_mutations_without_a_drain() {
    use ObjectKind::{A, B};
    let mut store = road_store(&[
        (0, A, 16.0, 0.0),
        (1, B, 48.0, 0.0),
        (2, A, 44.0, 0.0),
        (3, A, 52.0, 0.0),
        (4, B, 140.0, 0.0),
        (5, A, 150.0, 0.0),
        (6, B, 230.0, 0.0),
    ]);
    let mut scratch = EvalScratch::new();
    let mut seen = Vec::new();
    seen.push(check_rknn(&store, ObjectId(0), &mut scratch, "initial"));
    store.apply(ObjectId(2), Point::new(240.0, 0.0));
    seen.push(check_rknn(&store, ObjectId(0), &mut scratch, "after move"));
    store.remove(ObjectId(3));
    seen.push(check_rknn(
        &store,
        ObjectId(0),
        &mut scratch,
        "after remove",
    ));
    store.insert(ObjectId(7), A, Point::new(46.0, 0.0));
    store.insert(ObjectId(8), A, Point::new(136.0, 0.0));
    seen.push(check_rknn(
        &store,
        ObjectId(0),
        &mut scratch,
        "after insert",
    ));
    // Candidate 1 starts blocked by 2 and 3; the move frees it at k = 2,
    // the remove at k = 1, and the insert blocks it again. Each mutation
    // changed some answer, so a stale row would have failed the oracle
    // check above.
    for w in seen.windows(2) {
        assert_ne!(w[0], w[1], "mutation left every answer unchanged");
    }
}

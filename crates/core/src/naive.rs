//! Brute-force reference oracles.
//!
//! Direct transcriptions of the RNN definitions (§1), quadratic in the
//! object count. Every continuous algorithm in this crate is tested for
//! exact agreement with these at every tick.

use igern_geom::Point;
use igern_grid::ObjectId;

use crate::netspace::{NetScratch, NetworkSpace};

/// Monochromatic RNN by definition: `o` is an RNN of `q` iff no other
/// object `o'` satisfies `dist(o, o') < dist(o, q)`.
///
/// `q_id` identifies the query object itself inside `objects` (it is never
/// an answer and never blocks one, since `dist(o, q) < dist(o, q)` is
/// false). The result is sorted by id.
pub fn mono_rnn(objects: &[(ObjectId, Point)], q: Point, q_id: Option<ObjectId>) -> Vec<ObjectId> {
    let mut out = Vec::new();
    for &(id, pos) in objects {
        if Some(id) == q_id {
            continue;
        }
        let d_q = pos.dist_sq(q);
        let blocked = objects
            .iter()
            .any(|&(oid, opos)| oid != id && Some(oid) != q_id && pos.dist_sq(opos) < d_q);
        if !blocked {
            out.push(id);
        }
    }
    out.sort_unstable();
    out
}

/// Bichromatic RNN by definition: `o_B` is an RNN of `q_A` iff no A-object
/// `o_A` satisfies `dist(o_B, o_A) < dist(o_B, q_A)`.
///
/// `q_id` identifies the query inside `a_objects` (excluded from the
/// blocking test — its distance equals the query distance anyway). The
/// result is sorted by id.
pub fn bi_rnn(
    a_objects: &[(ObjectId, Point)],
    b_objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
) -> Vec<ObjectId> {
    let mut out = Vec::new();
    for &(id, pos) in b_objects {
        let d_q = pos.dist_sq(q);
        let blocked = a_objects
            .iter()
            .any(|&(aid, apos)| Some(aid) != q_id && pos.dist_sq(apos) < d_q);
        if !blocked {
            out.push(id);
        }
    }
    out.sort_unstable();
    out
}

/// Monochromatic reverse k-nearest neighbors by definition: `o` is an
/// RkNN of `q` iff fewer than `k` other objects lie strictly closer to
/// `o` than `q` does (i.e. `q` is among `o`'s `k` nearest). `k = 1`
/// coincides with [`mono_rnn`]. Result sorted by id.
pub fn mono_rknn(
    objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
    k: usize,
) -> Vec<ObjectId> {
    let mut out = Vec::new();
    for &(id, pos) in objects {
        if Some(id) == q_id {
            continue;
        }
        let d_q = pos.dist_sq(q);
        let closer = objects
            .iter()
            .filter(|&&(oid, opos)| oid != id && Some(oid) != q_id && pos.dist_sq(opos) < d_q)
            .count();
        if closer < k {
            out.push(id);
        }
    }
    out.sort_unstable();
    out
}

/// Bichromatic reverse k-nearest neighbors by definition: `o_B` is an
/// RkNN of `q_A` iff fewer than `k` A-objects lie strictly closer to
/// `o_B` than `q_A` does. `k = 1` coincides with [`bi_rnn`]. Result
/// sorted by id.
pub fn bi_rknn(
    a_objects: &[(ObjectId, Point)],
    b_objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
    k: usize,
) -> Vec<ObjectId> {
    let mut out = Vec::new();
    for &(id, pos) in b_objects {
        let d_q = pos.dist_sq(q);
        let closer = a_objects
            .iter()
            .filter(|&&(aid, apos)| Some(aid) != q_id && pos.dist_sq(apos) < d_q)
            .count();
        if closer < k {
            out.push(id);
        }
    }
    out.sort_unstable();
    out
}

/// Monochromatic RkNN under network distance, by definition: every
/// position is snapped onto the network and `o` answers iff fewer than
/// `k` other objects lie strictly closer to `o` (in shortest-path
/// distance) than `q` does. Quadratic, no pruning — the gate the
/// network monitors are held to. Network distance is symmetric bit for
/// bit ([`NetworkSpace::dist`]), so agreement is bit-exact. Result sorted
/// by id.
pub fn mono_rknn_net(
    ns: &NetworkSpace,
    scratch: &mut NetScratch,
    objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
    k: usize,
) -> Vec<ObjectId> {
    let sq = ns.snap(q);
    let snapped: Vec<_> = objects.iter().map(|&(id, p)| (id, ns.snap(p))).collect();
    let mut out = Vec::new();
    for &(id, so) in &snapped {
        if Some(id) == q_id {
            continue;
        }
        let d_q = ns.dist(scratch, &sq, &so);
        let mut closer = 0usize;
        for &(oid, sp) in &snapped {
            if oid == id || Some(oid) == q_id {
                continue;
            }
            if ns.dist(scratch, &so, &sp) < d_q {
                closer += 1;
            }
        }
        if closer < k {
            out.push(id);
        }
    }
    out.sort_unstable();
    out
}

/// Monochromatic network RNN: [`mono_rknn_net`] with `k = 1`.
pub fn mono_rnn_net(
    ns: &NetworkSpace,
    scratch: &mut NetScratch,
    objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
) -> Vec<ObjectId> {
    mono_rknn_net(ns, scratch, objects, q, q_id, 1)
}

/// Bichromatic RkNN under network distance: `o_B` answers iff fewer
/// than `k` A-objects lie strictly closer to it (in shortest-path
/// distance) than `q_A` does. Result sorted by id.
pub fn bi_rknn_net(
    ns: &NetworkSpace,
    scratch: &mut NetScratch,
    a_objects: &[(ObjectId, Point)],
    b_objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
    k: usize,
) -> Vec<ObjectId> {
    let sq = ns.snap(q);
    let a_snapped: Vec<_> = a_objects.iter().map(|&(id, p)| (id, ns.snap(p))).collect();
    let mut out = Vec::new();
    for &(id, p) in b_objects {
        let so = ns.snap(p);
        let d_q = ns.dist(scratch, &sq, &so);
        let mut closer = 0usize;
        for &(aid, sa) in &a_snapped {
            if Some(aid) == q_id {
                continue;
            }
            if ns.dist(scratch, &so, &sa) < d_q {
                closer += 1;
            }
        }
        if closer < k {
            out.push(id);
        }
    }
    out.sort_unstable();
    out
}

/// Bichromatic network RNN: [`bi_rknn_net`] with `k = 1`.
pub fn bi_rnn_net(
    ns: &NetworkSpace,
    scratch: &mut NetScratch,
    a_objects: &[(ObjectId, Point)],
    b_objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
) -> Vec<ObjectId> {
    bi_rknn_net(ns, scratch, a_objects, b_objects, q, q_id, 1)
}

/// k-nearest-neighbors under network distance: the `k` objects with the
/// smallest shortest-path distance to `q`, ties broken by object id.
/// Result sorted by id.
pub fn knn_net(
    ns: &NetworkSpace,
    scratch: &mut NetScratch,
    objects: &[(ObjectId, Point)],
    q: Point,
    q_id: Option<ObjectId>,
    k: usize,
) -> Vec<ObjectId> {
    let sq = ns.snap(q);
    let mut dists: Vec<(f64, ObjectId)> = objects
        .iter()
        .filter(|&&(id, _)| Some(id) != q_id)
        .map(|&(id, p)| (ns.dist(scratch, &sq, &ns.snap(p)), id))
        .collect();
    dists.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    dists.truncate(k);
    let mut out: Vec<ObjectId> = dists.into_iter().map(|(_, id)| id).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u32, x: f64, y: f64) -> (ObjectId, Point) {
        (ObjectId(id), Point::new(x, y))
    }

    #[test]
    fn mono_basic() {
        // q at origin. o0 at (1,0) has q as its NN (o1 is 2 away): RNN.
        // o1 at (3,0) has o0 at distance 2 < 3: not an RNN.
        let objs = [obj(0, 1.0, 0.0), obj(1, 3.0, 0.0)];
        assert_eq!(mono_rnn(&objs, Point::ORIGIN, None), vec![ObjectId(0)]);
    }

    #[test]
    fn mono_at_most_six_answers() {
        // The classic theorem: monochromatic RNN answers number ≤ 6.
        // Stress it on rings of objects around q.
        let mut state = 3u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        for _ in 0..20 {
            let objs: Vec<(ObjectId, Point)> = (0..60)
                .map(|i| (ObjectId(i), Point::new(rnd(), rnd())))
                .collect();
            let q = Point::new(rnd(), rnd());
            let ans = mono_rnn(&objs, q, None);
            assert!(ans.len() <= 6, "got {} RNNs", ans.len());
        }
    }

    #[test]
    fn mono_query_object_excluded() {
        // The query object itself is in the set; it must neither appear in
        // the answer nor block others.
        let objs = [obj(9, 0.0, 0.0), obj(0, 1.0, 0.0)];
        let ans = mono_rnn(&objs, Point::ORIGIN, Some(ObjectId(9)));
        assert_eq!(ans, vec![ObjectId(0)]);
    }

    #[test]
    fn mono_empty_and_singleton() {
        assert!(mono_rnn(&[], Point::ORIGIN, None).is_empty());
        let one = [obj(0, 5.0, 5.0)];
        assert_eq!(mono_rnn(&one, Point::ORIGIN, None), vec![ObjectId(0)]);
    }

    #[test]
    fn mono_ties_favor_the_query() {
        // o0 equidistant from q and o1: "dist < dist" is strict, so o0 is
        // still an RNN.
        let objs = [obj(0, 1.0, 0.0), obj(1, 2.0, 0.0)];
        let ans = mono_rnn(&objs, Point::ORIGIN, None);
        assert!(ans.contains(&ObjectId(0)));
    }

    #[test]
    fn bi_basic() {
        // q_A at origin; another A at (4,0).
        // b0 at (1,0): nearest A is q → RNN. b1 at (3.5,0): nearest A is
        // the other one → not.
        let a = [obj(0, 4.0, 0.0)];
        let b = [obj(10, 1.0, 0.0), obj(11, 3.5, 0.0)];
        assert_eq!(bi_rnn(&a, &b, Point::ORIGIN, None), vec![ObjectId(10)]);
    }

    #[test]
    fn bi_can_exceed_six_answers() {
        // With no other A objects, every B object is an RNN — the count is
        // unbounded, unlike the monochromatic case.
        let b: Vec<(ObjectId, Point)> = (0..10)
            .map(|i| (ObjectId(i), Point::new(i as f64, 2.0)))
            .collect();
        let ans = bi_rnn(&[], &b, Point::ORIGIN, None);
        assert_eq!(ans.len(), 10);
    }

    #[test]
    fn mono_rknn_k1_equals_rnn() {
        let objs = [obj(0, 1.0, 0.0), obj(1, 3.0, 0.0), obj(2, 0.0, 4.0)];
        assert_eq!(
            mono_rknn(&objs, Point::ORIGIN, None, 1),
            mono_rnn(&objs, Point::ORIGIN, None)
        );
    }

    #[test]
    fn mono_rknn_is_monotone_in_k() {
        // Growing k can only grow the answer set, up to all objects.
        let objs = [
            obj(0, 1.0, 0.0),
            obj(1, 1.5, 0.0),
            obj(2, 2.0, 0.0),
            obj(3, 9.0, 9.0),
        ];
        let mut prev = Vec::new();
        for k in 1..=4 {
            let ans = mono_rknn(&objs, Point::ORIGIN, None, k);
            for id in &prev {
                assert!(ans.contains(id), "answers must be monotone in k");
            }
            prev = ans;
        }
        assert_eq!(prev.len(), 4, "k = n admits everything");
    }

    #[test]
    fn bi_rknn_k1_equals_rnn() {
        let a = [obj(0, 4.0, 0.0)];
        let b = [obj(10, 1.0, 0.0), obj(11, 3.5, 0.0)];
        assert_eq!(
            bi_rknn(&a, &b, Point::ORIGIN, None, 1),
            bi_rnn(&a, &b, Point::ORIGIN, None)
        );
        // With k = 2 the blocked object is admitted (only one closer A).
        assert_eq!(bi_rknn(&a, &b, Point::ORIGIN, None, 2).len(), 2);
    }

    /// Two parallel roads with a single connecting rung at x = 0: points
    /// that are Euclidean-close across the gap are network-far.
    fn two_roads() -> NetworkSpace {
        use igern_geom::Aabb;
        use igern_mobgen::{RoadClass, RoadNetwork};
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(0.0, 4.0),
            Point::new(100.0, 4.0),
        ];
        let segs = [
            (0, 1, RoadClass::Main),
            (2, 3, RoadClass::Main),
            (0, 2, RoadClass::Side),
        ];
        let net = RoadNetwork::new(nodes, &segs, Aabb::from_coords(0.0, 0.0, 100.0, 4.0));
        NetworkSpace::from_network(&net)
    }

    #[test]
    fn mono_net_differs_from_euclidean_across_a_gap() {
        let ns = two_roads();
        let mut s = NetScratch::default();
        // q on the bottom road; o0 across the gap (euclidean-near,
        // network-far), o1 down the road (euclidean-far, network-near).
        let q = Point::new(50.0, 0.0);
        let objs = [obj(0, 50.0, 4.0), obj(1, 70.0, 0.0)];
        let euc = mono_rnn(&objs, q, None);
        let net = mono_rnn_net(&ns, &mut s, &objs, q, None);
        // Euclidean: o0 is 4 away (RNN of q); network: o0 is 104 away
        // from q but only 104 vs 20+... — o1's nearest is q either way.
        assert!(euc.contains(&ObjectId(0)));
        assert!(net.contains(&ObjectId(1)));
        // o0's network NN is o1? d(o0,o1) = 50+4+... — verify via knn.
        assert_eq!(knn_net(&ns, &mut s, &objs, q, None, 1), vec![ObjectId(1)]);
    }

    #[test]
    fn net_rknn_k1_equals_rnn_and_is_monotone() {
        let ns = two_roads();
        let mut s = NetScratch::default();
        let q = Point::new(10.0, 0.0);
        let objs = [
            obj(0, 5.0, 0.0),
            obj(1, 30.0, 0.0),
            obj(2, 10.0, 4.0),
            obj(3, 90.0, 4.0),
        ];
        assert_eq!(
            mono_rknn_net(&ns, &mut s, &objs, q, None, 1),
            mono_rnn_net(&ns, &mut s, &objs, q, None)
        );
        let mut prev = Vec::new();
        for k in 1..=4 {
            let ans = mono_rknn_net(&ns, &mut s, &objs, q, None, k);
            for id in &prev {
                assert!(ans.contains(id), "network RkNN must be monotone in k");
            }
            prev = ans;
        }
        assert_eq!(prev.len(), 4);
    }

    #[test]
    fn bi_net_k1_equals_rnn() {
        let ns = two_roads();
        let mut s = NetScratch::default();
        let q = Point::new(0.0, 0.0);
        let a = [obj(0, 60.0, 0.0)];
        let b = [obj(10, 20.0, 0.0), obj(11, 55.0, 0.0)];
        assert_eq!(
            bi_rknn_net(&ns, &mut s, &a, &b, q, None, 1),
            bi_rnn_net(&ns, &mut s, &a, &b, q, None)
        );
        // b10 is nearer q (20 vs 40 to the other A): RNN. b11 nearer the
        // other A (5 vs 55): not.
        assert_eq!(bi_rnn_net(&ns, &mut s, &a, &b, q, None), vec![ObjectId(10)]);
    }

    #[test]
    fn bi_query_id_excluded_from_blocking() {
        // The query is stored among the A objects; its own record must not
        // block answers.
        let a = [obj(0, 0.0, 0.0), obj(1, 9.0, 9.0)];
        let b = [obj(10, 1.0, 0.0)];
        let ans = bi_rnn(&a, &b, Point::ORIGIN, Some(ObjectId(0)));
        assert_eq!(ans, vec![ObjectId(10)]);
    }
}

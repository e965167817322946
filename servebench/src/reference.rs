//! The correctness gate: an in-process serial reference with routing
//! and batching off, plus brute-force oracle spot checks.

use std::sync::Arc;

use igern_core::netspace::{NetScratch, NetworkSpace};
use igern_core::processor::Algorithm;
use igern_core::types::{DistanceMode, ObjectKind};
use igern_core::{naive, SpatialStore};
use igern_engine::{Placement, TickRunner};
use igern_geom::{Aabb, Point};
use igern_grid::ObjectId;
use igern_mobgen::rng::Rng64;

use crate::gen::{Generator, Op, Spec, Sub};
use crate::served::TickRec;
#[cfg(test)]
use igern_proto::Frame;

/// Apply one batch exactly as the server's tick thread does.
pub fn apply(runner: &mut TickRunner, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Upsert { id, kind, x, y } => {
                let (oid, p) = (ObjectId(id), Point::new(x, y));
                if runner.store().position(oid).is_some() {
                    runner.apply_update(oid, p);
                } else {
                    runner.insert_object(oid, kind, p);
                }
            }
            Op::Remove { id } => {
                runner.remove_object(ObjectId(id));
            }
        }
    }
}

/// A runner over an empty store shaped like the server's.
pub fn runner(spec: &Spec, workers: usize, network: Option<&Arc<NetworkSpace>>) -> TickRunner {
    let space = Aabb::from_coords(0.0, 0.0, Spec::SIDE, Spec::SIDE);
    let mut store = SpatialStore::new(space, spec.grid, Vec::new());
    if let Some(ns) = network {
        store.set_network(Arc::clone(ns));
    }
    TickRunner::new(store, workers, Placement::RoundRobin)
}

/// Register every subscription; returns the engine query ids.
pub fn subscribe(runner: &mut TickRunner, subs: &[Sub]) -> Result<Vec<usize>, String> {
    subs.iter()
        .map(|s| {
            runner
                .add_query_in(ObjectId(s.anchor), s.algo, s.mode)
                .map_err(|e| format!("reference rejected {s:?}: {e}"))
        })
        .collect()
}

/// Answer digests of every subscription, by index.
pub fn digests(runner: &TickRunner, qids: &[usize]) -> Vec<u64> {
    qids.iter()
        .map(|&q| igern_wal::answer_digest(runner.answer(q)))
        .collect()
}

/// A `(tick index, subscription)` pair checked against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Probe {
    pub tick: usize,
    pub sub: usize,
}

/// Seeded sample of probes over `ticks` tick indices.
pub fn probes(seed: u64, ticks: usize, subs: usize, count: usize) -> Vec<Probe> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0_5ac1e);
    let mut v: Vec<Probe> = (0..count)
        .map(|_| Probe {
            tick: (rng.next_u64() % ticks as u64) as usize,
            sub: (rng.next_u64() % subs as u64) as usize,
        })
        .collect();
    v.sort();
    v
}

/// What the reference computed.
pub struct RefOut {
    /// Digests per tick index (0 = the setup step, `i` = batch `i - 1`).
    pub digests: Vec<Vec<u64>>,
    /// Oracle answer digest of each probe, in probe order.
    pub oracle: Vec<(Probe, u64)>,
    /// Probes where the reference itself disagreed with the oracle.
    pub reference_faults: Vec<String>,
}

/// Brute-force answer of `sub` over the store's current population.
pub fn oracle(store: &SpatialStore, scratch: &mut Option<NetScratch>, sub: &Sub) -> Vec<ObjectId> {
    let all: Vec<(ObjectId, Point)> = store.all().iter().collect();
    let of = |k: ObjectKind| -> Vec<(ObjectId, Point)> {
        all.iter()
            .copied()
            .filter(|&(id, _)| store.kind(id) == k)
            .collect()
    };
    let qid = ObjectId(sub.anchor);
    let q = store.position(qid).expect("anchors are never removed");
    match (sub.mode, sub.algo) {
        (DistanceMode::Network, algo) => {
            let ns = store.network().expect("network workloads carry a graph");
            let scratch = scratch.get_or_insert_with(NetScratch::default);
            match algo {
                Algorithm::IgernBiK(k) => naive::bi_rknn_net(
                    ns,
                    scratch,
                    &of(ObjectKind::A),
                    &of(ObjectKind::B),
                    q,
                    Some(qid),
                    k,
                ),
                Algorithm::IgernMonoK(k) => {
                    naive::mono_rknn_net(ns, scratch, &all, q, Some(qid), k)
                }
                Algorithm::Knn(k) => naive::knn_net(ns, scratch, &all, q, Some(qid), k),
                other => unreachable!("no network workload uses {other:?}"),
            }
        }
        (DistanceMode::Euclidean, Algorithm::IgernMono) => naive::mono_rnn(&all, q, Some(qid)),
        (DistanceMode::Euclidean, Algorithm::IgernMonoK(k)) => {
            naive::mono_rknn(&all, q, Some(qid), k)
        }
        (DistanceMode::Euclidean, Algorithm::IgernBiK(k)) => {
            naive::bi_rknn(&of(ObjectKind::A), &of(ObjectKind::B), q, Some(qid), k)
        }
        (DistanceMode::Euclidean, Algorithm::Knn(k)) => knn(&all, q, qid, k),
        (_, other) => unreachable!("no workload uses {other:?}"),
    }
}

/// Brute-force k nearest neighbours of `q` (the anchor excluded),
/// distance ties broken by id; sorted by id.
fn knn(all: &[(ObjectId, Point)], q: Point, anchor: ObjectId, k: usize) -> Vec<ObjectId> {
    let mut d: Vec<(f64, ObjectId)> = all
        .iter()
        .filter(|&&(id, _)| id != anchor)
        .map(|&(id, p)| (p.dist_sq(q), id))
        .collect();
    d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ids: Vec<ObjectId> = d.into_iter().take(k).map(|(_, id)| id).collect();
    ids.sort_unstable();
    ids
}

/// Replay the setup and `batches` batches of `(spec, seed)` serially
/// with routing and batching off.
pub fn replay(
    spec: &Spec,
    seed: u64,
    batches: usize,
    network: Option<&Arc<NetworkSpace>>,
    probes: &[Probe],
) -> Result<RefOut, String> {
    let mut g = Generator::new(spec, seed);
    let mut r = runner(spec, 1, network);
    r.set_skip_routing(false);
    r.set_batch(false);
    let subs = g.subs();
    apply(&mut r, &g.population());
    let qids = subscribe(&mut r, &subs)?;
    r.step(&[]);
    let mut out = RefOut {
        digests: vec![digests(&r, &qids)],
        oracle: Vec::new(),
        reference_faults: Vec::new(),
    };
    let mut scratch = None;
    let mut check = |r: &TickRunner, tick: usize, out: &mut RefOut| {
        for &p in probes.iter().filter(|p| p.tick == tick) {
            let want = oracle(r.store(), &mut scratch, &subs[p.sub]);
            let d = igern_wal::answer_digest(&want);
            if d != out.digests[tick][p.sub] {
                out.reference_faults.push(format!(
                    "tick index {tick}, sub {}: reference {:?} vs oracle {want:?}",
                    p.sub,
                    r.answer(qids[p.sub])
                ));
            }
            out.oracle.push((p, d));
        }
    };
    check(&r, 0, &mut out);
    for i in 1..=batches {
        apply(&mut r, &g.next_batch());
        r.step(&[]);
        out.digests.push(digests(&r, &qids));
        check(&r, i, &mut out);
    }
    Ok(out)
}

/// Compare every tick the client saw with the reference, and each
/// oracle probe with the client's answer; returns the mismatches. Every
/// tick from `setup_tick` to `last_tick` must have reached the client.
pub fn gate(ticks: &[TickRec], setup_tick: u64, last_tick: u64, r: &RefOut) -> Vec<String> {
    let mut bad = Vec::new();
    let seen: std::collections::HashSet<u64> = ticks.iter().map(|t| t.tick).collect();
    let missing = (setup_tick..=last_tick)
        .filter(|t| !seen.contains(t))
        .count();
    if missing > 0 {
        bad.push(format!(
            "{missing} of the ticks {setup_tick}..={last_tick} never reached the client"
        ));
    }
    for t in ticks {
        let Some(want) = t
            .tick
            .checked_sub(setup_tick)
            .and_then(|i| r.digests.get(i as usize))
        else {
            continue;
        };
        let n = want.iter().zip(&t.digests).filter(|(a, b)| a != b).count();
        if n > 0 {
            bad.push(format!(
                "tick {}: {n} of {} answers differ from the reference",
                t.tick,
                want.len()
            ));
        }
    }
    for (p, d) in &r.oracle {
        let tick = setup_tick + p.tick as u64;
        if let Some(t) = ticks.iter().find(|t| t.tick == tick) {
            if t.digests[p.sub] != *d {
                bad.push(format!(
                    "tick {tick}: subscription {} differs from the oracle",
                    p.sub
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::served::Tracker;
    use std::time::Instant;

    /// The frames a server would push for `(spec, seed)`: acks, a
    /// snapshot per subscription, then per-tick deltas, each tick
    /// closed by `TICK_END`. Evaluated with routing and batching on.
    fn pushed(spec: &Spec, seed: u64, batches: usize) -> Vec<Frame> {
        let mut g = Generator::new(spec, seed);
        let mut r = runner(spec, 1, None);
        let subs = g.subs();
        apply(&mut r, &g.population());
        let qids = subscribe(&mut r, &subs).unwrap();
        r.step(&[]);
        let ids =
            |r: &TickRunner, q: usize| -> Vec<u32> { r.answer(q).iter().map(|o| o.0).collect() };
        let mut frames: Vec<Frame> = (0..subs.len())
            .map(|i| Frame::Subscribed {
                token: i as u32 + 1,
                sid: 100 + i as u32,
            })
            .collect();
        let mut prev: Vec<Vec<u32>> = qids.iter().map(|&q| ids(&r, q)).collect();
        for (i, a) in prev.iter().enumerate() {
            frames.push(Frame::TickDelta {
                tick: 1,
                stamp_nanos: 0,
                sid: 100 + i as u32,
                snapshot: true,
                adds: a.clone(),
                removes: Vec::new(),
            });
        }
        frames.push(Frame::TickEnd {
            tick: 1,
            stamp_nanos: 0,
        });
        for tick in 2..=batches as u64 + 1 {
            apply(&mut r, &g.next_batch());
            r.step(&[]);
            for (i, &q) in qids.iter().enumerate() {
                let now = ids(&r, q);
                let adds: Vec<u32> = now
                    .iter()
                    .filter(|x| !prev[i].contains(x))
                    .copied()
                    .collect();
                let removes: Vec<u32> = prev[i]
                    .iter()
                    .filter(|x| !now.contains(x))
                    .copied()
                    .collect();
                if !adds.is_empty() || !removes.is_empty() {
                    frames.push(Frame::TickDelta {
                        tick,
                        stamp_nanos: 0,
                        sid: 100 + i as u32,
                        snapshot: false,
                        adds,
                        removes,
                    });
                }
                prev[i] = now;
            }
            frames.push(Frame::TickEnd {
                tick,
                stamp_nanos: 0,
            });
        }
        frames
    }

    fn seen(nsubs: usize, frames: Vec<Frame>) -> Vec<TickRec> {
        let mut t = Tracker::new(nsubs, 0, Instant::now());
        for f in frames {
            t.on_frame(f, Instant::now(), false);
        }
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        t.ticks
    }

    #[test]
    fn a_perturbed_answer_stream_fails_the_gate() {
        let spec = Spec::by_name("fleet-durable").unwrap().scaled(300, 8);
        let p = probes(4, 5, 8, 6);
        let reference = replay(&spec, 4, 4, None, &p).unwrap();
        let frames = pushed(&spec, 4, 4);
        assert!(gate(&seen(8, frames.clone()), 1, 5, &reference).is_empty());

        // One extra id in one delta of one tick.
        let mut bad = frames;
        let delta = bad
            .iter_mut()
            .find_map(|f| match f {
                Frame::TickDelta {
                    snapshot: false,
                    adds,
                    ..
                } => Some(adds),
                _ => None,
            })
            .expect("the stream has a delta");
        delta.push(299);
        let mismatches = gate(&seen(8, bad), 1, 5, &reference);
        assert!(!mismatches.is_empty());
    }

    #[test]
    fn a_lost_tick_end_fails_the_gate() {
        let spec = Spec::by_name("fleet-durable").unwrap().scaled(300, 8);
        let reference = replay(&spec, 4, 4, None, &[]).unwrap();
        let mut frames = pushed(&spec, 4, 4);
        assert!(gate(&seen(8, frames.clone()), 1, 5, &reference).is_empty());

        // Drop tick 3's end marker, as a coalescing server may.
        let end = frames
            .iter()
            .position(|f| matches!(f, Frame::TickEnd { tick: 3, .. }))
            .expect("the stream ends tick 3");
        frames.remove(end);
        let mismatches = gate(&seen(8, frames), 1, 5, &reference);
        assert!(
            mismatches.iter().any(|m| m.contains("never reached")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn reference_agrees_with_the_oracle_on_small_inputs() {
        for name in Spec::NAMES {
            let spec = Spec::by_name(name).unwrap().scaled(400, 9);
            let ns = spec
                .road_network()
                .map(|net| Arc::new(NetworkSpace::from_network(&net)));
            let p = probes(5, 4, 9, 12);
            let out = replay(&spec, 5, 3, ns.as_ref(), &p).unwrap();
            assert_eq!(out.digests.len(), 4);
            assert_eq!(out.oracle.len(), 12);
            assert!(
                out.reference_faults.is_empty(),
                "{name}: {:?}",
                out.reference_faults
            );
        }
    }
}

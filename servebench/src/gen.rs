//! Workload definitions and the seeded input generator.
//!
//! Every input the benchmark sends — the initial population, the
//! subscriptions, and each tick's batch of upserts and removes — comes
//! from [`Generator`], a pure function of the workload and the seed.
//! The served run, the correctness reference and the traced in-process
//! replay each build their own generator, so all three see the same
//! byte stream without holding it in memory.

use std::time::Duration;

use igern_core::processor::Algorithm;
use igern_core::types::{DistanceMode, ObjectKind};
use igern_mobgen::rng::Rng64;
use igern_mobgen::{
    build_synthetic_network, Movement, ObjKind, RoadNetwork, Scenario, Workload, WorkloadConfig,
};
use igern_proto::Frame;

/// The three workloads, each aimed at a different set of layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense hotspots, many RkNN/kNN monitors, sparse reports, churn.
    HotspotRknn,
    /// Bichromatic RkNN under road-network distance.
    TaxiNetwork,
    /// Every object moves every tick; write-heavy, durable.
    FleetDurable,
}

/// One workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub objects: usize,
    pub subs: usize,
    pub grid: usize,
    pub workers: usize,
    /// The workload's closed-loop tick time, as measured on this
    /// version. It sizes both phases and sets the open-loop period.
    pub tick: Duration,
    /// Serve over a write-ahead log.
    pub durable: bool,
}

impl Spec {
    pub const NAMES: [&'static str; 3] = ["hotspot-rknn", "taxi-network", "fleet-durable"];

    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "hotspot-rknn" => Spec {
                kind: Kind::HotspotRknn,
                name: "hotspot-rknn",
                objects: 20_000,
                subs: 200,
                grid: 64,
                workers: 2,
                tick: Duration::from_millis(28),
                durable: false,
            },
            "taxi-network" => Spec {
                kind: Kind::TaxiNetwork,
                name: "taxi-network",
                objects: 1000,
                subs: 64,
                grid: 32,
                workers: 1,
                tick: Duration::from_millis(22),
                durable: false,
            },
            "fleet-durable" => Spec {
                kind: Kind::FleetDurable,
                name: "fleet-durable",
                objects: 20_000,
                subs: 2000,
                grid: 64,
                workers: 1,
                tick: Duration::from_millis(16),
                durable: true,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same workload at a smaller size (tests).
    #[cfg(test)]
    pub fn scaled(mut self, objects: usize, subs: usize) -> Spec {
        self.objects = objects;
        self.subs = subs;
        self
    }

    /// Open-loop period `T`: batch `k` is due at `t0 + k * T`. Twice
    /// the measured tick time, so the server is about half busy.
    pub fn period(&self) -> Duration {
        self.tick * 2
    }

    /// Open-loop and closed-loop tick counts of a run of about
    /// `seconds` at the measured speed. The open loop gets four
    /// fifths: its p99 rests on the slowest few ticks, while the
    /// closed loop's median rate is steady over far fewer.
    pub fn ticks(&self, seconds: u64) -> (usize, usize) {
        let s = seconds as f64;
        let open = (s * 0.8 / self.period().as_secs_f64()).round().max(1.0);
        let closed = (s * 0.2 / self.tick.as_secs_f64()).round().max(1.0);
        (open as usize, closed as usize)
    }

    /// Side of the square data space every generator here moves in.
    pub const SIDE: f64 = 1000.0;

    /// Distance mode of every subscription of this workload.
    pub fn mode(&self) -> DistanceMode {
        match self.kind {
            Kind::TaxiNetwork => DistanceMode::Network,
            _ => DistanceMode::Euclidean,
        }
    }

    /// The city is fixed — hotspot layout and road maps come from
    /// [`CITY_SEED`] — and the run seed varies what happens in it. The
    /// hotspot mover draws layout and trajectories from one seed, so
    /// there the run seed picks the queries, the reporters and the
    /// churn; on the road maps it also places and routes the objects.
    fn scenario_config(&self, seed: u64) -> WorkloadConfig {
        let mut cfg = match self.kind {
            Kind::HotspotRknn => Scenario::hotspot_churn(self.objects, CITY_SEED).workload,
            Kind::TaxiNetwork => Scenario::taxi_dispatch(self.objects, seed).workload,
            Kind::FleetDurable => WorkloadConfig::network_mono(self.objects, seed),
        };
        if let Movement::Network(map) = &mut cfg.movement {
            map.seed = CITY_SEED;
        }
        cfg
    }

    /// The road graph the taxi workload moves on and the server
    /// evaluates over (`None` for the Euclidean workloads).
    pub fn road_network(&self) -> Option<RoadNetwork> {
        if self.kind != Kind::TaxiNetwork {
            return None;
        }
        match &self.scenario_config(0).movement {
            Movement::Network(cfg) => Some(build_synthetic_network(cfg)),
            _ => None,
        }
    }
}

/// One subscription the client opens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sub {
    pub anchor: u32,
    pub algo: Algorithm,
    pub mode: DistanceMode,
}

/// One mutation of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Upsert {
        id: u32,
        kind: ObjectKind,
        x: f64,
        y: f64,
    },
    Remove {
        id: u32,
    },
}

impl Op {
    pub fn frame(&self) -> Frame {
        match *self {
            Op::Upsert { id, kind, x, y } => Frame::UpsertObject { id, kind, x, y },
            Op::Remove { id } => Frame::RemoveObject { id },
        }
    }

    pub fn is_upsert(&self) -> bool {
        matches!(self, Op::Upsert { .. })
    }
}

/// Append the wire bytes of `ops` to `out`.
pub fn encode_ops(ops: &[Op], out: &mut Vec<u8>) {
    for op in ops {
        out.extend_from_slice(&op.frame().encode());
    }
}

/// Seed of the fixed city (see [`Spec::scenario_config`]).
const CITY_SEED: u64 = 2007;

/// Per-mille of objects that report in a hotspot tick.
const HOTSPOT_REPORT_PER_MILLE: u64 = 100;

/// SplitMix64 finaliser: spreads `(seed, tick, id)` evenly.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded, deterministic source of every input of one run.
pub struct Generator {
    spec: Spec,
    seed: u64,
    world: Workload,
    anchors: Vec<u32>,
    is_anchor: Vec<bool>,
    live: Vec<bool>,
    /// Objects removed by the previous tick's churn; re-inserted next.
    departed: Vec<u32>,
    churn_per_mille: u32,
    tick: u64,
    rng: Rng64,
}

fn kind_of(k: ObjKind) -> ObjectKind {
    match k {
        ObjKind::A => ObjectKind::A,
        ObjKind::B => ObjectKind::B,
    }
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        let world = Workload::from_config(&spec.scenario_config(seed));
        let mut rng = Rng64::seed_from_u64(mix(seed ^ 0x5eed_c4a7));
        let anchors = match spec.kind {
            // Same city every seed: the seed picks who asks.
            Kind::HotspotRknn => {
                let mut ids: Vec<u32> = (0..spec.objects as u32).collect();
                for i in 0..spec.subs.min(ids.len()) {
                    let j = i + (rng.next_u64() % (ids.len() - i) as u64) as usize;
                    ids.swap(i, j);
                }
                ids.truncate(spec.subs);
                ids.sort_unstable();
                ids
            }
            _ => world.pick_queries(ObjKind::A, spec.subs),
        };
        let mut is_anchor = vec![false; spec.objects];
        for &a in &anchors {
            is_anchor[a as usize] = true;
        }
        let churn_per_mille = match spec.kind {
            Kind::HotspotRknn => {
                Scenario::hotspot_churn(spec.objects, seed)
                    .churn
                    .remove_per_mille
            }
            _ => 0,
        };
        Generator {
            spec: spec.clone(),
            seed,
            world,
            anchors,
            is_anchor,
            live: vec![true; spec.objects],
            departed: Vec::new(),
            churn_per_mille,
            tick: 0,
            rng,
        }
    }

    fn upsert(&self, id: u32) -> Op {
        let p = self.world.mover().position(id);
        Op::Upsert {
            id,
            kind: kind_of(self.world.kind(id)),
            x: p.x,
            y: p.y,
        }
    }

    /// Upserts loading the whole live population at its current place.
    pub fn population(&self) -> Vec<Op> {
        (0..self.spec.objects as u32)
            .filter(|&id| self.live[id as usize])
            .map(|id| self.upsert(id))
            .collect()
    }

    /// The subscriptions, in token order (token = index + 1).
    pub fn subs(&self) -> Vec<Sub> {
        let mode = self.spec.mode();
        self.anchors
            .iter()
            .enumerate()
            .map(|(i, &anchor)| Sub {
                anchor,
                algo: match self.spec.kind {
                    Kind::HotspotRknn => match i % 3 {
                        0 => Algorithm::IgernMono,
                        1 => Algorithm::IgernMonoK(4),
                        _ => Algorithm::Knn(8),
                    },
                    Kind::TaxiNetwork => Algorithm::IgernBiK(2),
                    Kind::FleetDurable => Algorithm::Knn(8),
                },
                mode,
            })
            .collect()
    }

    /// Advance the world one tick and return that tick's batch.
    pub fn next_batch(&mut self) -> Vec<Op> {
        self.world.advance();
        self.tick += 1;
        let n = self.spec.objects as u32;
        match self.spec.kind {
            Kind::HotspotRknn => {
                let mut ops = Vec::new();
                // Churn: last tick's leavers come back, a fresh share of
                // non-anchor objects leaves.
                let back = std::mem::take(&mut self.departed);
                let mut is_back = vec![false; self.spec.objects];
                for &id in &back {
                    is_back[id as usize] = true;
                }
                let leave =
                    (self.spec.objects as u64 * self.churn_per_mille as u64 / 1000) as usize;
                let mut leaving = Vec::with_capacity(leave);
                while leaving.len() < leave {
                    let id = (self.rng.next_u64() % n as u64) as u32;
                    let i = id as usize;
                    if self.is_anchor[i] || !self.live[i] || is_back[i] {
                        continue;
                    }
                    self.live[i] = false;
                    leaving.push(id);
                }
                for &id in &leaving {
                    ops.push(Op::Remove { id });
                }
                for &id in &back {
                    self.live[id as usize] = true;
                    ops.push(self.upsert(id));
                }
                for id in 0..n {
                    let reports = mix(self.seed ^ mix(self.tick) ^ id as u64) % 1000
                        < HOTSPOT_REPORT_PER_MILLE;
                    if reports && self.live[id as usize] && !is_back[id as usize] {
                        ops.push(self.upsert(id));
                    }
                }
                self.departed = leaving;
                ops
            }
            Kind::TaxiNetwork | Kind::FleetDurable => (0..n).map(|id| self.upsert(id)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(spec: &Spec, seed: u64, ticks: usize) -> Vec<u8> {
        let mut g = Generator::new(spec, seed);
        let mut out = Vec::new();
        encode_ops(&g.population(), &mut out);
        for s in g.subs() {
            out.extend_from_slice(
                &Frame::Subscribe {
                    token: 0,
                    anchor: s.anchor,
                    algo: s.algo,
                    mode: s.mode,
                }
                .encode(),
            );
        }
        for _ in 0..ticks {
            encode_ops(&g.next_batch(), &mut out);
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_input_stream() {
        for name in Spec::NAMES {
            let spec = Spec::by_name(name).unwrap().scaled(600, 12);
            let a = stream(&spec, 7, 6);
            assert_eq!(a, stream(&spec, 7, 6), "{name}");
            assert_ne!(a, stream(&spec, 8, 6), "{name}: the seed must matter");
        }
    }

    #[test]
    fn hotspot_churn_never_touches_anchors_and_keeps_population_steady() {
        let spec = Spec::by_name("hotspot-rknn").unwrap().scaled(2000, 30);
        let mut g = Generator::new(&spec, 3);
        let anchors: Vec<u32> = g.subs().iter().map(|s| s.anchor).collect();
        for _ in 0..5 {
            let ops = g.next_batch();
            let removed: Vec<u32> = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Remove { id } => Some(*id),
                    _ => None,
                })
                .collect();
            assert_eq!(removed.len(), 100);
            assert!(removed.iter().all(|id| !anchors.contains(id)));
            let reports = ops.iter().filter(|op| op.is_upsert()).count();
            assert!((100..400).contains(&reports), "{reports} upserts");
        }
        assert_eq!(g.population().len(), 1900);
    }
}

//! The traced run's per-layer numbers.
//!
//! The served numbers come from the traced served run: client spans,
//! the client's byte and frame counts, and the server's own metrics
//! dump. The layer numbers come from an in-process replay of the
//! identical generated input through the layers' public functions —
//! `TickRunner`, `WalWriter`/`recover`, `Frame::encode`/`decode` and
//! `NetworkSpace::snap` — with a span around each layer's calls per
//! tick and a counting allocator around the engine. The replay runs
//! after the served run, never beside a timed phase.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use igern_core::netspace::NetworkSpace;
use igern_core::obs::MetricsRegistry;
use igern_core::types::DistanceMode;
use igern_engine::{Placement, TickRunner};
use igern_geom::Point;
use igern_grid::{ObjectId, OpCounters};
use igern_proto::Frame;
use igern_wal::{SnapshotData, SubEntry, WalWriter};

use crate::gen::{Generator, Op, Spec};
use crate::reference::{apply, digests, runner, subscribe};
use crate::served::metric_sum;
use crate::stats;
use crate::trace::{count_allocs, Recorder};
use crate::{m, Metric, Served};

pub struct Layers {
    pub metrics: Vec<Metric>,
    spans: Recorder,
}

impl Layers {
    /// Write every span and the per-name self times.
    pub fn write_spans(&self, spec: &Spec, seed: u64) -> Result<(), String> {
        let path = Path::new(crate::OUT_DIR).join(format!("spans-{}-{seed}.tsv", spec.name));
        self.spans
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Core-layer tallies over evaluated query-ticks.
#[derive(Default)]
struct Evals {
    eval_us: Vec<f64>,
    ops: OpCounters,
    samples: u64,
    skipped: u64,
    changed: u64,
    monitored: f64,
    area: f64,
}

impl Evals {
    fn evaluated(&self) -> u64 {
        self.eval_us.len() as u64
    }

    fn per_eval(&self, x: u64) -> f64 {
        x as f64 / self.evaluated().max(1) as f64
    }
}

/// Replay `batches` ticks at `workers` lanes with the served settings
/// (routing and batching on); returns per-tick step times.
fn replay_lanes(
    spec: &Spec,
    seed: u64,
    batches: usize,
    network: Option<&Arc<NetworkSpace>>,
    workers: usize,
    rec: &mut Recorder,
) -> Result<(Vec<f64>, f64), String> {
    let mut g = Generator::new(spec, seed);
    let mut r = runner(spec, workers, network);
    r.set_history_capacity(Some(1));
    apply(&mut r, &g.population());
    subscribe(&mut r, &g.subs())?;
    r.step(&[]);
    let mut step_ms = Vec::with_capacity(batches);
    for i in 1..=batches {
        let ops = g.next_batch();
        apply(&mut r, &ops);
        let t = Instant::now();
        rec.span("engine.step_lanes", i as u64, || r.step(&[]));
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let imbalance = match &r {
        TickRunner::Sharded(e) => {
            let per: Vec<f64> = e
                .worker_stats()
                .iter()
                .map(|s| s.total_time().as_secs_f64())
                .collect();
            let mean = stats::mean(&per);
            per.iter().cloned().fold(0.0, f64::max) / mean.max(f64::MIN_POSITIVE)
        }
        TickRunner::Serial(_) => 1.0,
    };
    Ok((step_ms, imbalance))
}

pub fn per_layer(
    spec: &Spec,
    seed: u64,
    batches: usize,
    network: Option<&Arc<NetworkSpace>>,
    served: &Served,
    workdir: &Path,
) -> Result<Layers, String> {
    let mut rec = Recorder::new(served.epoch);
    rec.absorb(&served.client_spans);
    rec.absorb(&served.tracker.spans);
    let mut metrics = served_layers(served, batches)?;
    metrics.extend(replay_layers(
        spec, seed, batches, network, workdir, &mut rec,
    )?);
    Ok(Layers {
        metrics,
        spans: rec,
    })
}

/// The served run's layers, read from the client and the server's
/// metrics dump.
fn served_layers(served: &Served, batches: usize) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let dump = served
        .metrics
        .as_ref()
        .ok_or("traced run has no metrics dump")?;
    let t = &served.tracker;
    let in_run: Vec<_> = t
        .ticks
        .iter()
        .filter(|r| r.tick > served.setup_tick && r.tick <= served.setup_tick + batches as u64)
        .collect();
    let server_ticks = metric_sum(dump, "igern_pipeline_ticks_total").max(1.0);
    let push_n = metric_sum(dump, "igern_server_tick_push_seconds_count").max(1.0);
    let tick_ms = metric_sum(dump, "igern_server_tick_push_seconds_sum") / push_n * 1e3;
    let deliver = stats::sorted(
        t.deltas
            .iter()
            .map(|d| d.wall_nanos.saturating_sub(d.stamp_nanos) as f64 / 1e6)
            .collect(),
    );
    let ingest: Vec<f64> = served
        .closed_sends
        .iter()
        .filter_map(|&(tick, sent)| {
            let r = in_run.iter().find(|r| r.tick == tick)?;
            // Send to the tick's stamp, less the server's mean tick
            // (the sharded engine does not fill the evaluate series).
            Some(r.stamp_nanos.saturating_sub(sent) as f64 / 1e6 - tick_ms)
        })
        .collect();
    let wakeups = metric_sum(dump, "igern_server_reactor_events_per_wakeup_count").max(1.0);
    let n = in_run.len().max(1) as f64;
    let visible = stats::sorted(served.visible_ms.clone());
    let acc = &served.account;
    out.extend([
        m(
            "error_rate",
            acc.error_rate(),
            "ratio",
            acc.attempted() as usize,
        ),
        m(
            "shed_ratio",
            acc.shed_ratio(),
            "ratio",
            acc.deliveries as usize,
        ),
        m(
            "trace.capacity_ups",
            served.capacity_ups,
            "upserts/s",
            served.closed_ticks,
        ),
        m(
            "trace.visible_p50_ms",
            stats::quantile(&visible, 0.5),
            "ms",
            visible.len(),
        ),
        m("server.tick_ms", tick_ms, "ms", push_n as usize),
        m(
            "server.deliver_p50_ms",
            stats::quantile(&deliver, 0.5),
            "ms",
            deliver.len(),
        ),
        m(
            "server.deliver_p99_ms",
            stats::quantile(&deliver, 0.99),
            "ms",
            deliver.len(),
        ),
        m("server.ingest_ms", stats::mean(&ingest), "ms", ingest.len()),
        m(
            "server.delta_frames_per_tick",
            metric_sum(dump, "igern_server_frames_out_total{type=\"tick_delta\"}") / server_ticks,
            "count",
            server_ticks as usize,
        ),
        m(
            "server.delta_ids_per_tick",
            in_run.iter().map(|r| r.delta_ids).sum::<u64>() as f64 / n,
            "count",
            in_run.len(),
        ),
        m(
            "server.shed_ticks",
            metric_sum(dump, "igern_server_slow_consumer_events_total"),
            "count",
            server_ticks as usize,
        ),
        m(
            "reactor.dispatch_ms_per_tick",
            metric_sum(dump, "igern_server_reactor_dispatch_seconds_sum") * 1e3 / server_ticks,
            "ms",
            server_ticks as usize,
        ),
        m(
            "reactor.events_per_wakeup",
            metric_sum(dump, "igern_server_reactor_events_per_wakeup_sum") / wakeups,
            "count",
            wakeups as usize,
        ),
        m(
            "reactor.short_writes",
            metric_sum(dump, "igern_server_reactor_short_write_resumptions_total"),
            "count",
            server_ticks as usize,
        ),
        m(
            "proto.bytes_in_per_tick",
            served.bytes_to_server as f64 / (batches + 1) as f64,
            "bytes",
            batches + 1,
        ),
        m(
            "proto.bytes_out_per_tick",
            t.bytes_in as f64 / (batches + 1) as f64,
            "bytes",
            batches + 1,
        ),
    ]);
    Ok(out)
}

/// In-process replay at one lane, as served — core, grid, netspace,
/// engine, proto and wal, all on the identical input — then at the
/// served lane count.
fn replay_layers(
    spec: &Spec,
    seed: u64,
    batches: usize,
    network: Option<&Arc<NetworkSpace>>,
    workdir: &Path,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let ticks = batches.max(1) as f64;
    let registry = MetricsRegistry::new();
    let mut g = Generator::new(spec, seed);
    let subs = g.subs();
    let mut r = runner(spec, 1, network);
    r.attach_metrics(&registry, "replay");
    r.set_history_capacity(Some(1));
    let population = g.population();
    apply(&mut r, &population);
    let mut qids = Vec::with_capacity(subs.len());
    for s in &subs {
        let q = rec.span("engine.subscribe", 0, || {
            r.add_query_in(ObjectId(s.anchor), s.algo, s.mode)
        });
        qids.push(q.map_err(|e| format!("replay rejected {s:?}: {e}"))?);
    }
    r.step(&[]);
    let mut prev = digests(&r, &qids);

    let wal_dir = workdir.join("wal-replay");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut wal =
        WalWriter::open(&crate::wal_options(&wal_dir)).map_err(|e| format!("wal open: {e}"))?;
    let mut wal_bytes = 0u64;
    let append = |wal: &mut WalWriter, f: &Frame, bytes: &mut u64| -> Result<(), String> {
        *bytes += f.encode().len() as u64 + 4;
        wal.append(f)
            .map(|_| ())
            .map_err(|e| format!("wal append: {e}"))
    };
    for op in &population {
        append(&mut wal, &op.frame(), &mut wal_bytes)?;
    }
    for (i, s) in subs.iter().enumerate() {
        let f = Frame::Subscribe {
            token: i as u32 + 1,
            anchor: s.anchor,
            algo: s.algo,
            mode: s.mode,
        };
        append(&mut wal, &f, &mut wal_bytes)?;
    }
    wal.tick_boundary(1, 0).map_err(|e| format!("wal: {e}"))?;
    let boot_bytes = wal_bytes;

    let mut core = Evals::default();
    let mut net = Evals::default();
    let (mut allocs, mut applied, mut frames, mut snapped) = (0u64, 0u64, 0u64, 0u64);
    let mut step_ms = Vec::with_capacity(batches);
    for i in 1..=batches {
        let req = i as u64;
        let ops = g.next_batch();
        let tick_span = rec.enter("replay.tick", req);
        // The span opens and closes outside the count, so the
        // recorder's own growth is not charged to the engine.
        let ((), a) = rec.span("engine.apply", req, || count_allocs(|| apply(&mut r, &ops)));
        let t0 = Instant::now();
        let ((), b) = rec.span("engine.step", req, || count_allocs(|| r.step(&[])));
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        allocs += a + b;
        applied += ops.len() as u64;

        let now = digests(&r, &qids);
        for (j, &q) in qids.iter().enumerate() {
            let Some(s) = r.history(q).latest() else {
                continue;
            };
            let tally = if subs[j].mode == DistanceMode::Network {
                &mut net
            } else {
                &mut core
            };
            tally.samples += 1;
            if s.skipped {
                tally.skipped += 1;
                continue;
            }
            tally.eval_us.push(s.elapsed.as_secs_f64() * 1e6);
            tally.ops.merge(&s.ops);
            tally.monitored += s.monitored as f64;
            tally.area += s.region_area;
            tally.changed += u64::from(now[j] != prev[j]);
        }
        prev = now;

        let wire: Vec<Frame> = ops.iter().map(Op::frame).collect();
        let encoded = rec.span("proto.encode", req, || {
            wire.iter().map(Frame::encode).collect::<Vec<_>>()
        });
        rec.span("proto.decode", req, || {
            encoded
                .iter()
                .map(|b| Frame::decode(&b[4..]))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("replay decode: {e}"))?;
        frames += wire.len() as u64;
        if let Some(ns) = network {
            rec.span("netspace.snap", req, || {
                for op in &ops {
                    if let Op::Upsert { x, y, .. } = op {
                        std::hint::black_box(ns.snap(Point::new(*x, *y)));
                        snapped += 1;
                    }
                }
            });
        }

        let tick = 1 + req;
        rec.span("wal.append", req, || -> Result<(), String> {
            for f in &wire {
                append(&mut wal, f, &mut wal_bytes)?;
            }
            Ok(())
        })?;
        rec.span("wal.sync", req, || wal.tick_boundary(tick, 0))
            .map_err(|e| format!("wal: {e}"))?;
        wal_bytes += Frame::TickEnd {
            tick,
            stamp_nanos: 0,
        }
        .encode()
        .len() as u64
            + 4;
        rec.exit(tick_span);
    }
    drop(wal);
    let final_tick = 1 + batches as u64;
    let recovered = rec.span("wal.recover", 0, || {
        igern_wal::recover(
            &wal_dir,
            spec.workers,
            Placement::RoundRobin,
            *r.store().space(),
            spec.grid,
            network.cloned(),
        )
    });
    let recovered = recovered.map_err(|e| format!("wal recover: {e}"))?;
    let specs: Vec<igern_wal::SubSpec> = subs
        .iter()
        .enumerate()
        .map(|(i, s)| igern_wal::SubSpec {
            sid: i as u32 + 1,
            anchor: s.anchor,
            algo: s.algo,
            mode: s.mode,
        })
        .collect();
    let live = igern_wal::state_digest(final_tick, &specs, |s| r.answer(qids[s.sid as usize - 1]));
    if recovered.digest != live || recovered.tick != final_tick {
        return Err(format!(
            "replayed WAL recovered tick {} digest {:016x}, expected tick {final_tick} digest {live:016x}",
            recovered.tick, recovered.digest
        ));
    }
    let replayed_records = recovered.report.replayed_records;
    drop(recovered);
    // One compacted snapshot of the final state, in a directory of its
    // own so the replayed log stays as recovered.
    let dir = wal_dir.with_file_name("wal-snapshot");
    let mut w = WalWriter::open(&crate::wal_options(&dir)).map_err(|e| format!("wal: {e}"))?;
    rec.span("wal.snapshot", 0, || {
        snapshot(&r, &subs, &qids, &mut w, final_tick, &dir)
    })?;
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(wal_dir.with_file_name("wal-snapshot"));

    // The served lane count, for step time and lane balance.
    let (lanes_ms, imbalance) = if spec.workers > 1 {
        replay_lanes(spec, seed, batches, network, spec.workers, rec)?
    } else {
        (step_ms.clone(), 1.0)
    };

    let counter = |name: &str| registry.counter(name).get();
    let eval_sorted = stats::sorted(core.eval_us.iter().chain(&net.eval_us).copied().collect());
    let all = |f: fn(&Evals) -> f64| f(&core) + f(&net);
    let evaluated = all(|e| e.evaluated() as f64).max(1.0);
    let samples = all(|e| e.samples as f64).max(1.0);
    let ops = {
        let mut o = core.ops;
        o.merge(&net.ops);
        o
    };
    let span = |name: &str| rec.get(name);
    let mean_ns_per = |name: &str, per: u64| span(name).total_ns as f64 / per.max(1) as f64;
    Ok(vec![
        m(
            "core.eval_us",
            stats::mean(&eval_sorted),
            "us",
            eval_sorted.len(),
        ),
        m(
            "core.eval_us_p99",
            if eval_sorted.is_empty() {
                0.0
            } else {
                stats::quantile(&eval_sorted, 0.99)
            },
            "us",
            eval_sorted.len(),
        ),
        m(
            "core.evaluated_per_tick",
            evaluated / ticks,
            "count",
            batches,
        ),
        m(
            "core.skip_ratio",
            all(|e| e.skipped as f64) / samples,
            "ratio",
            samples as usize,
        ),
        m(
            "core.changed_ratio",
            all(|e| e.changed as f64) / evaluated,
            "ratio",
            evaluated as usize,
        ),
        m(
            "core.batch_share",
            counter("replay_batch_members_total") as f64
                / (counter("replay_queries_evaluated_total").max(1)) as f64,
            "ratio",
            counter("replay_queries_evaluated_total") as usize,
        ),
        m(
            "core.monitored_mean",
            all(|e| e.monitored) / evaluated,
            "count",
            evaluated as usize,
        ),
        m(
            "core.region_area_mean",
            all(|e| e.area) / evaluated,
            "area",
            evaluated as usize,
        ),
        m(
            "grid.searches_per_eval",
            (ops.nn + ops.nn_c + ops.nn_b) as f64 / evaluated,
            "count",
            evaluated as usize,
        ),
        m(
            "grid.cells_per_eval",
            ops.cells_visited as f64 / evaluated,
            "count",
            evaluated as usize,
        ),
        m(
            "grid.objects_per_eval",
            ops.objects_visited as f64 / evaluated,
            "count",
            evaluated as usize,
        ),
        m(
            "netspace.eval_us",
            stats::mean(&net.eval_us),
            "us",
            net.eval_us.len(),
        ),
        m(
            "netspace.objects_per_eval",
            net.per_eval(net.ops.objects_visited),
            "count",
            net.eval_us.len(),
        ),
        m(
            "netspace.snap_ns",
            mean_ns_per("netspace.snap", snapped),
            "ns",
            snapped as usize,
        ),
        m(
            "engine.step_ms_lanes1",
            stats::median(&step_ms),
            "ms",
            step_ms.len(),
        ),
        m(
            "engine.step_ms_served",
            stats::median(&lanes_ms),
            "ms",
            lanes_ms.len(),
        ),
        m(
            "engine.apply_ns",
            mean_ns_per("engine.apply", applied),
            "ns",
            applied as usize,
        ),
        m(
            "engine.subscribe_us",
            span("engine.subscribe").mean_ns() / 1e3,
            "us",
            subs.len(),
        ),
        m(
            "engine.allocs_per_tick",
            allocs as f64 / ticks,
            "count",
            batches,
        ),
        m("engine.lane_imbalance", imbalance, "ratio", spec.workers),
        m(
            "wal.append_ns",
            mean_ns_per("wal.append", frames),
            "ns",
            frames as usize,
        ),
        m(
            "wal.sync_us",
            span("wal.sync").mean_ns() / 1e3,
            "us",
            batches,
        ),
        m(
            "wal.snapshot_ms",
            span("wal.snapshot").mean_ns() / 1e6,
            "ms",
            span("wal.snapshot").count as usize,
        ),
        m(
            "wal.bytes_per_tick",
            (wal_bytes - boot_bytes) as f64 / ticks,
            "bytes",
            batches,
        ),
        m(
            "wal.recover_ms",
            span("wal.recover").total_ns as f64 / 1e6,
            "ms",
            1,
        ),
        m("wal.replayed_records", replayed_records as f64, "count", 1),
        m(
            "proto.encode_ns",
            mean_ns_per("proto.encode", frames),
            "ns",
            frames as usize,
        ),
        m(
            "proto.decode_ns",
            mean_ns_per("proto.decode", frames),
            "ns",
            frames as usize,
        ),
    ])
}

/// Write a compacted snapshot the way the server's tick thread does.
fn snapshot(
    r: &TickRunner,
    subs: &[crate::gen::Sub],
    qids: &[usize],
    wal: &mut WalWriter,
    tick: u64,
    dir: &Path,
) -> Result<(), String> {
    let covered_seq = wal.next_seq();
    let store = r.store();
    let data = SnapshotData {
        tick,
        covered_seq,
        next_sid: subs.len() as u32 + 1,
        space: *store.space(),
        grid: store.all().cells_per_side(),
        objects: store
            .all()
            .iter()
            .map(|(id, p)| (id.0, store.kind(id), p.x, p.y))
            .collect(),
        subs: subs
            .iter()
            .zip(qids)
            .enumerate()
            .map(|(i, (s, &q))| SubEntry {
                sid: i as u32 + 1,
                anchor: s.anchor,
                algo: s.algo,
                mode: s.mode,
                answer_digest: igern_wal::answer_digest(r.answer(q)),
            })
            .collect(),
    };
    igern_wal::write_snapshot(dir, &data).map_err(|e| format!("wal snapshot: {e}"))?;
    wal.reclaim_covered(covered_seq)
        .map_err(|e| format!("wal reclaim: {e}"))?;
    igern_wal::prune_snapshots(dir, 2).map_err(|e| format!("wal prune: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Machine-independent counts of one traced replay.
    fn counts(spec: &Spec, dir: &Path) -> Vec<(&'static str, f64)> {
        let network = spec
            .road_network()
            .map(|net| Arc::new(NetworkSpace::from_network(&net)));
        let mut rec = Recorder::new(Instant::now());
        let out = replay_layers(spec, 9, 5, network.as_ref(), dir, &mut rec).unwrap();
        // Lane imbalance is a ratio of times, not a count.
        out.into_iter()
            .filter(|x| matches!(x.unit, "count" | "bytes" | "ratio" | "area"))
            .filter(|x| x.name != "engine.lane_imbalance")
            .map(|x| (x.name, x.value))
            .collect()
    }

    #[test]
    fn same_seed_repeats_every_count_of_the_traced_replay() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-replay-{}", std::process::id()));
        for name in Spec::NAMES {
            let spec = Spec::by_name(name).unwrap().scaled(500, 10);
            // The first replay in a process also pays one-time lazy
            // initialisation, as every benchmark process does once.
            counts(&spec, &dir);
            let a = counts(&spec, &dir);
            assert_eq!(a, counts(&spec, &dir), "{name}");
            let allocs = a.iter().find(|(n, _)| *n == "engine.allocs_per_tick");
            assert!(allocs.is_some(), "{name}: allocation count reported");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Served end-to-end benchmark of `igern serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload hotspot-rknn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the `igern`
//! binary, serves it on loopback with manual ticks, drives it from one
//! connection and checks every answer against an in-process reference.
//! `--trace 1` adds client spans, the server's metrics dump and an
//! in-process replay of the same input through each layer. The last
//! line of standard output is a JSON summary; see README.md.

mod gen;
mod reference;
mod replay;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use igern_core::netspace::NetworkSpace;
use igern_proto::Frame;

use gen::{encode_ops, Generator, Op, Spec};
use served::{wall_nanos, Server, Session, Tracker};
use trace::Recorder;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Per-run files and span dumps, relative to the repository root.
const OUT_DIR: &str = "servebench/out";

/// Set-ups per run: a first round before the load, then a round after
/// each of the first `LATE_ROUNDS` crash restarts, so that the samples
/// span the run and not one second of it. `setup_s` is their median.
const FIRST_SETUPS: usize = 6;
const LATE_ROUNDS: usize = 2;
const LATE_SETUPS: usize = 7;
/// Crash restarts per run; `recovery_s` is their median. A durable
/// restart replays the whole log, so it gets fewer.
const RESTARTS: usize = 9;
const DURABLE_RESTARTS: usize = 2;
/// How long before each open-loop due time the sender stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_millis(2);
/// Oracle probes per run.
const PROBES: usize = 6;

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = num(&value)?,
            "--seconds" => seconds = num(&value)?.max(1),
            "--trace" => trace = num(&value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if Spec::by_name(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload:?} ({})",
            Spec::NAMES.join("|")
        ));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Build the `igern` binary from the checkout in the working directory.
fn build_server() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli not found)".to_string());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "igern-cli",
        ])
        .args(["--bin", "igern"])
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building igern failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("igern");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// Per-run files, under the benchmark's own directory.
struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    fn new(spec: &Spec, seed: u64) -> Result<Workdir, String> {
        let dir = Path::new(OUT_DIR).join(format!("{}-{seed}-{}", spec.name, std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Workdir { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn server_args(spec: &Spec, wd: &Workdir, metrics_out: Option<&Path>) -> Vec<String> {
    let mut a: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--tick-ms",
        "0",
        "--slow-consumer",
        "coalesce",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    a.extend(["--space".to_string(), Spec::SIDE.to_string()]);
    a.extend(["--grid".to_string(), spec.grid.to_string()]);
    a.extend(["--workers".to_string(), spec.workers.to_string()]);
    if spec.mode() == igern_core::types::DistanceMode::Network {
        a.extend(["--distance", "network", "--network"].map(String::from));
        a.push(wd.path("road.net").display().to_string());
    }
    if spec.durable {
        let wal = wal_options(&wd.path("wal"));
        a.extend([
            "--wal-dir".to_string(),
            wal.dir.display().to_string(),
            "--fsync".to_string(),
            wal.fsync.name().to_string(),
            "--snapshot-every".to_string(),
            wal.snapshot_every.to_string(),
            "--segment-bytes".to_string(),
            wal.segment_bytes.to_string(),
        ]);
    }
    if let Some(p) = metrics_out {
        a.extend(["--metrics-out".to_string(), p.display().to_string()]);
    }
    a
}

/// Durability settings that keep the log in the page cache: no fsync,
/// no periodic snapshot, and one segment for the whole run (a rotation
/// would fsync). The log is deleted within the run, so none of it is
/// written back to disk; a `kill -9` still loses nothing. The served
/// log and the traced replay's log both use them.
fn wal_options(dir: &Path) -> igern_wal::WalOptions {
    let mut o = igern_wal::WalOptions::new(dir);
    o.fsync = igern_wal::FsyncPolicy::Never;
    o.snapshot_every = 0;
    o.segment_bytes = 1 << 34;
    o
}

/// Failure accounting over every connection of the run.
#[derive(Debug, Default)]
struct Account {
    requests: u64,
    deliveries: u64,
    received: u64,
    shed: u64,
    errors: Vec<String>,
}

impl Account {
    /// Fold in one finished session that expected `deliveries` ticks
    /// in `range`.
    fn add(
        &mut self,
        what: &str,
        s_requests: u64,
        t: &Tracker,
        deliveries: u64,
        range: (u64, u64),
    ) {
        self.requests += s_requests;
        self.deliveries += deliveries;
        let got: Vec<_> = t
            .ticks
            .iter()
            .filter(|r| (range.0..=range.1).contains(&r.tick))
            .collect();
        self.received += got.len() as u64;
        self.shed += got.iter().filter(|r| r.shed).count() as u64;
        self.errors
            .extend(t.errors.iter().map(|e| format!("{what}: {e}")));
    }

    fn attempted(&self) -> u64 {
        self.requests + self.deliveries
    }

    /// ERROR replies, disconnects and deliveries that never arrived.
    fn hard_failures(&self) -> u64 {
        self.errors.len() as u64 + (self.deliveries - self.received.min(self.deliveries))
    }

    fn error_rate(&self) -> f64 {
        (self.hard_failures() + self.shed) as f64 / self.attempted().max(1) as f64
    }

    fn shed_ratio(&self) -> f64 {
        self.shed as f64 / self.deliveries.max(1) as f64
    }
}

/// The client's copy of what it has told the server about each object.
struct Model {
    objects: Vec<Option<Op>>,
}

impl Model {
    fn new(n: usize) -> Model {
        Model {
            objects: vec![None; n],
        }
    }

    fn apply(&mut self, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Upsert { id, .. } => self.objects[id as usize] = Some(*op),
                Op::Remove { id } => self.objects[id as usize] = None,
            }
        }
    }

    fn population(&self) -> Vec<Op> {
        self.objects.iter().flatten().copied().collect()
    }
}

/// One encoded batch plus its `STEP`.
struct Batch {
    bytes: Vec<u8>,
    frames: u64,
    upserts: u64,
    ops: Vec<Op>,
}

fn next_batch(g: &mut Generator) -> Batch {
    let ops = g.next_batch();
    let mut bytes = Vec::with_capacity(ops.len() * 34 + 8);
    encode_ops(&ops, &mut bytes);
    bytes.extend_from_slice(&Frame::Step.encode());
    Batch {
        frames: ops.len() as u64 + 1,
        upserts: ops.iter().filter(|o| o.is_upsert()).count() as u64,
        bytes,
        ops,
    }
}

struct Ctx<'a> {
    spec: &'a Spec,
    bin: &'a Path,
    args: Vec<String>,
    epoch: Instant,
    traced: bool,
    /// Deltas the open loop may record: one per subscription and tick.
    deltas: usize,
}

impl Ctx<'_> {
    /// Spawn a server, load `population`, subscribe everything and
    /// step once. Returns the set-up time and the first tick.
    fn setup(
        &self,
        population: &[Op],
        subs: &[gen::Sub],
    ) -> Result<(Server, Session, f64, u64), String> {
        let server = Server::spawn(self.bin, &self.args)?;
        let mut s = Session::connect(
            server.addr,
            subs.len(),
            self.deltas,
            self.traced,
            self.epoch,
        )?;
        let mut bytes = Vec::new();
        encode_ops(population, &mut bytes);
        s.send(&bytes, population.len() as u64)?;
        s.subscribe_all(subs)?;
        s.send_frames(&[Frame::Step])?;
        let tick = s.wait_tick(1, subs.len())?;
        let secs = server.spawned.elapsed().as_secs_f64();
        Ok((server, s, secs, tick))
    }

    /// A set-up that is only timed: its server is killed after it.
    fn timed_setup(
        &self,
        population: &[Op],
        subs: &[gen::Sub],
        wal: &Path,
        account: &mut Account,
    ) -> Result<f64, String> {
        let _ = std::fs::remove_dir_all(wal);
        let (server, s, secs, tick) = self.setup(population, subs)?;
        s.expect_close();
        server.kill();
        let req = s.requests;
        let t = s.finish();
        account.add("set-up", req, &t, 1, (tick, tick));
        if !t.all_have_first() {
            return Err("a subscription got no first answer".to_string());
        }
        Ok(secs)
    }
}

/// Everything the served run measured.
struct Served {
    setup_s: Vec<f64>,
    lateness_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    open_ticks: usize,
    closed_ticks: usize,
    capacity_ups: f64,
    recovery_s: Vec<f64>,
    rss_mib: f64,
    setup_tick: u64,
    tracker: Tracker,
    account: Account,
    /// Wall-clock send start of each closed-loop batch, by tick.
    closed_sends: Vec<(u64, u64)>,
    bytes_to_server: u64,
    metrics: Option<std::collections::HashMap<String, f64>>,
    mismatches: Vec<String>,
    epoch: Instant,
    client_spans: Recorder,
}

fn serve_run(ctx: &Ctx, seed: u64, seconds: u64, wd: &Workdir) -> Result<Served, String> {
    let spec = ctx.spec;
    let gen0 = Generator::new(spec, seed);
    let subs = gen0.subs();
    let nsubs = subs.len();
    let population = gen0.population();
    let mut account = Account::default();
    let mut setup_s = Vec::new();
    let wal = wd.path("wal");

    // 1. Set-up, several times; the last server carries the load.
    for _ in 1..FIRST_SETUPS {
        setup_s.push(ctx.timed_setup(&population, &subs, &wal, &mut account)?);
    }
    let _ = std::fs::remove_dir_all(&wal);
    let (server, mut s, secs, setup_tick) = ctx.setup(&population, &subs)?;
    setup_s.push(secs);
    let mut g = gen0;
    let mut model = Model::new(spec.objects);
    model.apply(&population);
    let tick_of = |k: usize| setup_tick + 1 + k as u64;
    let mut spans = Recorder::new(ctx.epoch);

    // 2. Open loop: batch k and its STEP are due at t0 + k * T. The
    // next batch is generated three quarters into the period, when a
    // half-busy server is idle, so the generator does not compete
    // with it for the CPUs.
    let period = spec.period();
    let (open_ticks, closed_ticks) = spec.ticks(seconds);
    let mut lateness_ms = Vec::with_capacity(open_ticks);
    let mut next = next_batch(&mut g);
    s.set_recording(true);
    let t0 = Instant::now() + SPIN + Duration::from_millis(10);
    let sleep_until = |t: Instant| {
        if let Some(wait) = t.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    };
    for k in 0..open_ticks {
        let due = t0 + period * k as u32;
        // Sleep to just short of the due time, then spin: a woken
        // thread may wait for a CPU, a spinning one is already on it.
        sleep_until(due - SPIN);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        lateness_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        s.send(&next.bytes, next.frames)?;
        if ctx.traced {
            spans.record("client.send", tick_of(k), sent, Instant::now());
        }
        model.apply(&next.ops);
        sleep_until(due + period * 3 / 4);
        next = next_batch(&mut g);
    }
    s.wait_tick(tick_of(open_ticks - 1), nsubs)?;
    s.set_recording(false);

    // 3. Closed loop: exactly one tick in flight. Each tick's rate is
    // its admitted upserts over its send-to-TICK_END time; the next
    // batch is generated after the tick ends, outside that window.
    let mut rates = Vec::with_capacity(closed_ticks);
    let mut closed_sends = Vec::with_capacity(closed_ticks);
    for k in open_ticks..open_ticks + closed_ticks {
        let tick = tick_of(k);
        closed_sends.push((tick, wall_nanos()));
        let sent = Instant::now();
        s.send(&next.bytes, next.frames)?;
        let waited = Instant::now();
        s.wait_tick(tick, nsubs)?;
        rates.push(next.upserts as f64 / sent.elapsed().as_secs_f64());
        if ctx.traced {
            spans.record("client.send", tick, sent, waited);
            spans.record("client.wait", tick, waited, Instant::now());
        }
        model.apply(&next.ops);
        if k + 1 < open_ticks + closed_ticks {
            next = next_batch(&mut g);
        }
    }
    // The median tick is robust to a stray slow one.
    let capacity_ups = stats::median(&rates);
    let k = open_ticks + closed_ticks;
    let phase = Instant::now();
    let last_tick = tick_of(k - 1);
    let rss_mib = server.peak_rss_mib()?;
    let bytes_to_server = s.bytes_out;
    let mut mismatches = Vec::new();

    // 4. Traced: graceful shutdown for the metrics dump. Untraced:
    // kill -9 at this quiet tick boundary and restart.
    let mut recovery_s = Vec::new();
    let (tracker, metrics) = if ctx.traced {
        s.expect_close();
        s.send_frames(&[Frame::Shutdown])?;
        server.wait_exit(served::WAIT)?;
        let req = s.requests;
        let t = s.finish();
        account.add("main", req, &t, 1 + k as u64, (setup_tick, last_tick));
        let dump = wd.path("metrics.prom");
        let text =
            std::fs::read_to_string(&dump).map_err(|e| format!("read {}: {e}", dump.display()))?;
        (t, Some(served::parse_promtext(&text)))
    } else {
        s.expect_close();
        server.kill();
        let req = s.requests;
        let t = s.finish();
        account.add("main", req, &t, 1 + k as u64, (setup_tick, last_tick));
        let before: Vec<_> = t.answers().to_vec();
        let crashed = wd.path("wal-crashed");
        if spec.durable {
            link_dir(&wal, &crashed)?;
        }
        let restarts = if spec.durable {
            DURABLE_RESTARTS
        } else {
            RESTARTS
        };
        for round in 0..restarts {
            if spec.durable {
                let _ = std::fs::remove_dir_all(&wal);
                link_dir(&crashed, &wal)?;
            }
            let server = Server::spawn(ctx.bin, &ctx.args)?;
            let mut rs = Session::connect(server.addr, nsubs, 0, false, ctx.epoch)?;
            if !spec.durable {
                let pop = model.population();
                let mut bytes = Vec::new();
                encode_ops(&pop, &mut bytes);
                rs.send(&bytes, pop.len() as u64)?;
            }
            rs.subscribe_all(&subs)?;
            rs.send_frames(&[Frame::Step])?;
            let tick = rs.wait_tick(1, nsubs)?;
            let secs = server.spawned.elapsed().as_secs_f64();
            rs.expect_close();
            server.kill();
            let req = rs.requests;
            let rt = rs.finish();
            account.add("restart", req, &rt, 1, (tick, tick));
            if rt.answers() != before.as_slice() {
                let bad = (0..nsubs).filter(|&i| rt.answers()[i] != before[i]).count();
                mismatches.push(format!(
                    "after restart {bad} of {nsubs} answers differ from those before the kill"
                ));
            }
            recovery_s.push(secs);
            if round + 1 == restarts {
                // Drop the crashed log as soon as it is done with: the
                // kernel writes a file back once it has been dirty for
                // 30 s, and this one never should be.
                let _ = std::fs::remove_dir_all(&wal);
                let _ = std::fs::remove_dir_all(&crashed);
            }
            if round < LATE_ROUNDS {
                for _ in 0..LATE_SETUPS {
                    setup_s.push(ctx.timed_setup(&population, &subs, &wal, &mut account)?);
                }
            }
        }
        (t, None)
    };
    eprintln!(
        "servebench: set-ups took {:?} ms",
        setup_s
            .iter()
            .map(|x| (x * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    );
    eprintln!(
        "servebench: crash and restarts took {:.1} s",
        phase.elapsed().as_secs_f64()
    );
    if !tracker.all_have_first() {
        mismatches.push("a subscription never got its first answer".to_string());
    }

    let mut visible_ms = Vec::with_capacity(tracker.deltas.len());
    for d in tracker.deltas.iter().filter(|d| d.tick > setup_tick) {
        let k = (d.tick - setup_tick - 1) as usize;
        let due = t0 + period * k as u32;
        visible_ms.push(d.decoded.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
    Ok(Served {
        setup_s,
        lateness_ms,
        visible_ms,
        open_ticks,
        closed_ticks,
        capacity_ups,
        recovery_s,
        rss_mib,
        setup_tick,
        tracker,
        account,
        closed_sends,
        bytes_to_server,
        metrics,
        mismatches,
        epoch: ctx.epoch,
        client_spans: spans,
    })
}

/// Mirror a log directory with hard links. A restarted server only
/// adds files and unlinks covered ones, so the original stays intact.
fn link_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for e in entries {
        let e = e.map_err(|e| e.to_string())?;
        std::fs::hard_link(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(served: &Served) -> Result<Vec<Metric>, String> {
    let visible = stats::sorted(served.visible_ms.clone());
    if visible.is_empty() {
        return Err("no deltas were decoded in the open-loop phase".to_string());
    }
    let p99 = stats::supported(&visible, 99.0).ok_or_else(|| {
        format!(
            "{} delta samples do not support a p99 (highest: {:?})",
            visible.len(),
            stats::highest_supported(&visible).map(|t| t.pct)
        )
    })?;
    Ok(vec![
        m(
            "visible_p50_ms",
            stats::quantile(&visible, 0.5),
            "ms",
            visible.len(),
        ),
        m("visible_p99_ms", p99.value, "ms", p99.n),
        m(
            "capacity_ups",
            served.capacity_ups,
            "upserts/s",
            served.closed_ticks,
        ),
        m(
            "setup_s",
            stats::median(&served.setup_s),
            "s",
            served.setup_s.len(),
        ),
        m(
            "recovery_s",
            stats::median(&served.recovery_s),
            "s",
            served.recovery_s.len(),
        ),
        m("server_rss_mb", served.rss_mib, "MiB", 1),
    ])
}

fn run(opts: &Opts) -> Result<bool, String> {
    let spec = Spec::by_name(&opts.workload).expect("validated");
    let bin = build_server()?;
    let wd = Workdir::new(&spec, opts.seed)?;
    let network = match spec.road_network() {
        Some(net) => {
            let path = wd.path("road.net");
            let f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            net.save(std::io::BufWriter::new(f))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            // Load it back, so the reference sees exactly what the
            // server parsed.
            let f = std::fs::File::open(&path).map_err(|e| e.to_string())?;
            let net = igern_mobgen::RoadNetwork::load(std::io::BufReader::new(f))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Some(Arc::new(NetworkSpace::from_network(&net)))
        }
        None => None,
    };
    let epoch = Instant::now();
    let metrics_out = opts.trace.then(|| wd.path("metrics.prom"));
    let ctx = Ctx {
        spec: &spec,
        bin: &bin,
        args: server_args(&spec, &wd, metrics_out.as_deref()),
        epoch,
        traced: opts.trace,
        deltas: spec.ticks(opts.seconds).0 * spec.subs,
    };
    let phase = Instant::now();
    let served = serve_run(&ctx, opts.seed, opts.seconds, &wd)?;
    let batches = served.open_ticks + served.closed_ticks;
    eprintln!(
        "servebench: served run took {:.1} s",
        phase.elapsed().as_secs_f64()
    );
    let phase = Instant::now();

    // Correctness gate: the serial reference, oracle probes, recovery.
    let probes = reference::probes(opts.seed, batches + 1, spec.subs, PROBES);
    let refout = reference::replay(&spec, opts.seed, batches, network.as_ref(), &probes)?;
    eprintln!(
        "servebench: reference took {:.1} s",
        phase.elapsed().as_secs_f64()
    );
    let mut mismatches = served.mismatches.clone();
    mismatches.extend(refout.reference_faults.iter().cloned());
    mismatches.extend(reference::gate(
        &served.tracker.ticks,
        served.setup_tick,
        served.setup_tick + batches as u64,
        &refout,
    ));
    let late = stats::sorted(served.lateness_ms.clone());
    let late_p99 = stats::quantile(&late, 0.99);
    let limit_ms = spec.period().as_secs_f64() * 1e3 / 10.0;
    if late_p99 > limit_ms {
        mismatches.push(format!(
            "generator p99 lateness {late_p99:.3} ms exceeds T/10 = {limit_ms:.3} ms"
        ));
    }
    let acc = &served.account;
    if !acc.errors.is_empty() {
        mismatches.push(format!(
            "{} failed operations: {:?}",
            acc.errors.len(),
            &acc.errors[..acc.errors.len().min(3)]
        ));
    }
    let lost = acc.hard_failures() - acc.errors.len() as u64;
    if lost > 0 {
        mismatches.push(format!("{lost} tick deliveries never arrived"));
    }
    let correct = mismatches.is_empty();

    let reported = if opts.trace {
        let phase = Instant::now();
        let layers = replay::per_layer(
            &spec,
            opts.seed,
            batches,
            network.as_ref(),
            &served,
            &wd.dir,
        )?;
        layers.write_spans(&spec, opts.seed)?;
        eprintln!(
            "servebench: in-process replay took {:.1} s",
            phase.elapsed().as_secs_f64()
        );
        layers.metrics
    } else {
        end_to_end(&served)?
    };

    println!(
        "servebench {} seed {} trace {}: {} open-loop ticks at T = {} ms, {} closed-loop ticks, {} subscriptions",
        spec.name,
        opts.seed,
        u8::from(opts.trace),
        served.open_ticks,
        spec.period().as_millis(),
        served.closed_ticks,
        spec.subs
    );
    println!(
        "generator lateness p99 {late_p99:.3} ms, max {:.3} ms (limit {limit_ms:.3} ms, {} batches)",
        late.last().copied().unwrap_or(0.0),
        late.len()
    );
    println!(
        "error_rate {:.6} ratio ({} of {} operations: {} hard failures, {} shed deliveries)",
        acc.error_rate(),
        acc.hard_failures() + acc.shed,
        acc.attempted(),
        acc.hard_failures(),
        acc.shed
    );
    println!(
        "shed_ratio {:.6} ratio ({} of {} tick deliveries)",
        acc.shed_ratio(),
        acc.shed,
        acc.deliveries
    );
    for x in &reported {
        println!(
            "{:<28} {:>16.6} {:<6} n={}",
            x.name, x.value, x.unit, x.samples
        );
    }
    if correct {
        println!(
            "correct: every tick matched the reference, {} oracle probes agreed",
            refout.oracle.len()
        );
    } else {
        for e in &mismatches {
            println!("MISMATCH {e}");
        }
    }
    if let Some(x) = reported.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("{} is not a number ({})", x.name, x.value));
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acc.attempted(),
        acc.hard_failures(),
        metrics.join(", ")
    );
    Ok(correct)
}

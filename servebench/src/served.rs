//! The served run: a real `igern serve` child on loopback, driven by
//! one connection with a sending (main) thread and a receiving thread.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use igern_grid::ObjectId;
use igern_proto::{Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};

use crate::gen::Sub;
use crate::trace::Recorder;

/// How long any single wait on the server may take before it counts
/// as a timeout.
pub const WAIT: Duration = Duration::from_secs(30);

/// A running `igern serve` child process.
pub struct Server {
    child: Child,
    /// Held open, so the server's last lines do not meet a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub spawned: Instant,
}

impl Server {
    /// Spawn `bin serve ARGS` and wait for its `serving on` banner.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before its banner".to_string());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                return match addr.parse() {
                    Ok(addr) => Ok(Server {
                        child,
                        _stdout: stdout,
                        addr,
                        spawned,
                    }),
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(format!("bad banner address {addr:?}: {e}"))
                    }
                };
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for a server told to shut down to exit on its own. Its
    /// last lines fit in the pipe, so stdout need not be read.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after SHUTDOWN".to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Digest of one subscription's answer, as the WAL records it.
pub fn digest(answer: &BTreeSet<u32>) -> u64 {
    let ids: Vec<ObjectId> = answer.iter().map(|&i| ObjectId(i)).collect();
    igern_wal::answer_digest(&ids)
}

/// What the client saw of one tick on its connection.
#[derive(Debug, Clone)]
pub struct TickRec {
    pub tick: u64,
    pub stamp_nanos: u64,
    /// Answer digest of every subscription (by index) after the tick.
    pub digests: Vec<u64>,
    pub delta_ids: u64,
    /// The server shed this delivery (snapshots instead of deltas).
    pub shed: bool,
}

/// When one `TICK_DELTA` was decoded.
#[derive(Debug, Clone, Copy)]
pub struct DeltaRec {
    pub tick: u64,
    pub decoded: Instant,
    pub wall_nanos: u64,
    /// The server's wall clock when the tick's push began.
    pub stamp_nanos: u64,
}

/// Receiver-side state, handed back when the session ends.
pub struct Tracker {
    sid_index: HashMap<u32, usize>,
    answers: Vec<BTreeSet<u32>>,
    /// The first answer (a snapshot) of each subscription has arrived.
    has_first: Vec<bool>,
    pub ticks: Vec<TickRec>,
    /// Every `TICK_DELTA` decoded while recording.
    pub deltas: Vec<DeltaRec>,
    pub errors: Vec<String>,
    pub bytes_in: u64,
    cur_ids: u64,
    cur_shed: bool,
    pub spans: Recorder,
}

impl Tracker {
    /// `deltas` is room for the delta timings the session will record,
    /// so that the receiver does not stop to grow the list mid-run.
    pub fn new(nsubs: usize, deltas: usize, epoch: Instant) -> Tracker {
        Tracker {
            sid_index: HashMap::new(),
            answers: vec![BTreeSet::new(); nsubs],
            has_first: vec![false; nsubs],
            ticks: Vec::new(),
            deltas: Vec::with_capacity(deltas),
            errors: Vec::new(),
            bytes_in: 0,
            cur_ids: 0,
            cur_shed: false,
            spans: Recorder::new(epoch),
        }
    }

    /// Answers by subscription index.
    pub fn answers(&self) -> &[BTreeSet<u32>] {
        &self.answers
    }

    pub fn all_have_first(&self) -> bool {
        self.has_first.iter().all(|&f| f)
    }

    /// Fold one decoded server frame (decoded at `now`) into the
    /// answers; `record` keeps the delta's timing.
    pub fn on_frame(&mut self, frame: Frame, now: Instant, record: bool) -> Option<Event> {
        match frame {
            Frame::HelloAck { .. } | Frame::Pong { .. } | Frame::Unsubscribed { .. } => None,
            Frame::Subscribed { token, sid } => {
                let Some(i) = (token as usize)
                    .checked_sub(1)
                    .filter(|&i| i < self.answers.len())
                else {
                    self.errors.push(format!("ack for unknown token {token}"));
                    return None;
                };
                self.sid_index.insert(sid, i);
                Some(Event::Acked(1))
            }
            Frame::TickDelta {
                tick,
                stamp_nanos,
                sid,
                snapshot,
                adds,
                removes,
            } => {
                let Some(&i) = self.sid_index.get(&sid) else {
                    self.errors.push(format!("delta for unknown sid {sid}"));
                    return None;
                };
                let answer = &mut self.answers[i];
                if snapshot {
                    answer.clear();
                    // A snapshot after the first answer is a shed delivery.
                    self.cur_shed |= self.has_first[i];
                    self.has_first[i] = true;
                }
                for id in &removes {
                    answer.remove(id);
                }
                answer.extend(adds.iter().copied());
                self.cur_ids += (adds.len() + removes.len()) as u64;
                if record {
                    self.deltas.push(DeltaRec {
                        tick,
                        decoded: now,
                        wall_nanos: wall_nanos(),
                        stamp_nanos,
                    });
                }
                None
            }
            Frame::TickEnd { tick, stamp_nanos } => {
                let digests = self.answers.iter().map(digest).collect();
                self.ticks.push(TickRec {
                    tick,
                    stamp_nanos,
                    digests,
                    delta_ids: std::mem::take(&mut self.cur_ids),
                    shed: std::mem::take(&mut self.cur_shed),
                });
                Some(Event::TickEnd(tick))
            }
            Frame::Error { code, message } => {
                let e = format!("{code:?}: {message}");
                self.errors.push(e.clone());
                Some(Event::Error(e))
            }
            other => {
                self.errors
                    .push(format!("unexpected {} frame", other.type_name()));
                None
            }
        }
    }
}

struct Shared {
    /// The main thread is closing the connection on purpose.
    closing: AtomicBool,
    /// Keep `(tick, decode time)` of every delta.
    record_deltas: AtomicBool,
    /// Wrap every decode in a span.
    traced: bool,
}

/// Receiver → main notifications.
#[derive(Debug)]
pub enum Event {
    /// This many more subscriptions were acknowledged.
    Acked(usize),
    TickEnd(u64),
    Error(String),
    Closed,
}

/// One client connection: the main thread writes, a second thread
/// reads and folds deltas into per-subscription answers.
pub struct Session {
    tx: TcpStream,
    events: Receiver<Event>,
    reader: Option<JoinHandle<Tracker>>,
    shared: Arc<Shared>,
    pub bytes_out: u64,
    pub requests: u64,
    acked: usize,
    last_tick: u64,
}

pub fn wall_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

impl Session {
    /// Connect and start the receiver, with room for `deltas` delta
    /// timings.
    pub fn connect(
        addr: SocketAddr,
        nsubs: usize,
        deltas: usize,
        traced: bool,
        epoch: Instant,
    ) -> Result<Session, String> {
        let tx = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        tx.set_nodelay(true).map_err(|e| e.to_string())?;
        let rx = tx.try_clone().map_err(|e| e.to_string())?;
        let shared = Arc::new(Shared {
            closing: AtomicBool::new(false),
            record_deltas: AtomicBool::new(false),
            traced,
        });
        let (ev_tx, events) = channel();
        let sh = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("bench-recv".to_string())
            .spawn(move || receive(rx, Tracker::new(nsubs, deltas, epoch), sh, ev_tx))
            .map_err(|e| e.to_string())?;
        let mut s = Session {
            tx,
            events,
            reader: Some(reader),
            shared,
            bytes_out: 0,
            requests: 0,
            acked: 0,
            last_tick: 0,
        };
        s.send_frames(&[Frame::Hello {
            version: PROTOCOL_VERSION,
        }])?;
        Ok(s)
    }

    /// Write pre-encoded frames (`count` of them).
    pub fn send(&mut self, bytes: &[u8], count: u64) -> Result<(), String> {
        self.tx.write_all(bytes).map_err(|e| format!("send: {e}"))?;
        self.bytes_out += bytes.len() as u64;
        self.requests += count;
        Ok(())
    }

    pub fn send_frames(&mut self, frames: &[Frame]) -> Result<(), String> {
        let mut buf = Vec::new();
        for f in frames {
            buf.extend_from_slice(&f.encode());
        }
        self.send(&buf, frames.len() as u64)
    }

    /// Subscribe every spec (token = index + 1) without waiting.
    pub fn subscribe_all(&mut self, subs: &[Sub]) -> Result<(), String> {
        let frames: Vec<Frame> = subs
            .iter()
            .enumerate()
            .map(|(i, s)| Frame::Subscribe {
                token: i as u32 + 1,
                anchor: s.anchor,
                algo: s.algo,
                mode: s.mode,
            })
            .collect();
        self.send_frames(&frames)
    }

    pub fn set_recording(&self, on: bool) {
        self.shared.record_deltas.store(on, Ordering::Release);
    }

    /// Wait until every subscription is acknowledged and a `TICK_END`
    /// of a tick `>= min_tick` has arrived; returns that tick.
    pub fn wait_tick(&mut self, min_tick: u64, acks: usize) -> Result<u64, String> {
        let deadline = Instant::now() + WAIT;
        loop {
            if self.acked >= acks && self.last_tick >= min_tick {
                return Ok(self.last_tick);
            }
            let remain = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(remain) {
                Ok(Event::Acked(n)) => self.acked += n,
                Ok(Event::TickEnd(t)) => self.last_tick = self.last_tick.max(t),
                Ok(Event::Error(e)) => return Err(format!("server error: {e}")),
                Ok(Event::Closed) => return Err("server closed the connection".to_string()),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("timed out waiting for tick {min_tick}"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("receiver thread ended".to_string())
                }
            }
        }
    }

    /// Close the connection on purpose and collect the receiver state.
    pub fn finish(mut self) -> Tracker {
        self.close()
            .expect("the receiver runs until the session ends")
    }

    fn close(&mut self) -> Option<Tracker> {
        let reader = self.reader.take()?;
        self.shared.closing.store(true, Ordering::Release);
        let _ = self.tx.shutdown(Shutdown::Both);
        Some(reader.join().expect("receiver thread panicked"))
    }

    /// Mark the connection as about to be cut by a server kill.
    pub fn expect_close(&self) {
        self.shared.closing.store(true, Ordering::Release);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.reader.is_some() {
            // An error path: stop the receiver and reap it.
            let _ = self.close();
        }
    }
}

/// Counts bytes read through it.
struct Counting<R> {
    inner: R,
    n: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.n += n as u64;
        Ok(n)
    }
}

fn receive(rx: TcpStream, mut t: Tracker, sh: Arc<Shared>, ev: Sender<Event>) -> Tracker {
    let mut r = BufReader::with_capacity(1 << 16, Counting { inner: rx, n: 0 });
    let mut payload = Vec::new();
    // Acks are passed on in one event per read, not one per frame, so
    // that 2000 subscriptions do not wake the main thread 2000 times.
    let mut acks = 0;
    loop {
        if acks > 0 && r.buffer().is_empty() {
            let _ = ev.send(Event::Acked(std::mem::take(&mut acks)));
        }
        let mut len = [0u8; 4];
        let read = r.read_exact(&mut len).and_then(|()| {
            let n = u32::from_le_bytes(len) as usize;
            if n == 0 || n > MAX_FRAME_LEN {
                return Err(std::io::Error::other(format!("bad frame length {n}")));
            }
            payload.resize(n, 0);
            r.read_exact(&mut payload)
        });
        if let Err(e) = read {
            t.bytes_in = r.get_ref().n;
            if !sh.closing.load(Ordering::Acquire) {
                t.errors.push(format!("disconnected: {e}"));
                let _ = ev.send(Event::Closed);
            }
            return t;
        }
        let span = sh.traced.then(|| t.spans.enter("client.decode", 0));
        let frame = Frame::decode(&payload);
        let now = Instant::now();
        if let Some(id) = span {
            t.spans.exit(id);
        }
        let event = match frame {
            Ok(f) => t.on_frame(f, now, sh.record_deltas.load(Ordering::Acquire)),
            Err(e) => {
                t.errors.push(format!("undecodable frame: {e}"));
                Some(Event::Error(format!("undecodable frame: {e}")))
            }
        };
        match event {
            Some(Event::Acked(n)) => acks += n,
            Some(e) => {
                if acks > 0 {
                    let _ = ev.send(Event::Acked(std::mem::take(&mut acks)));
                }
                let _ = ev.send(e);
            }
            None => {}
        }
    }
}

/// Values of a Prometheus text dump, keyed by `name{labels}` as
/// written.
pub fn parse_promtext(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Sum of every series of `name` (any labels).
pub fn metric_sum(m: &HashMap<String, f64>, name: &str) -> f64 {
    m.iter()
        .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v)
        .sum()
}

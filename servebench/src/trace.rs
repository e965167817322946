//! Span recorder and counting allocator for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each
//! layer; nothing inside the program is instrumented. Each span keeps
//! its name, start, end, parent and request id (the tick it serves).
//! They stay in memory and are written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Single-threaded span recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-measured interval as a root span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: ns(start),
            end: ns(end),
            parent: None,
            req,
        });
    }

    /// Copy every span of `other` (same epoch) into this recorder.
    pub fn absorb(&mut self, other: &Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    pub fn get(&self, name: &str) -> Totals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Write every span as a tab-separated line, then the per-name
    /// totals.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# span\tid\tparent\treq\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.req, s.start, s.end
            )?;
        }
        writeln!(w, "# totals\tcount\ttotal_ns\tself_ns")?;
        for (name, t) in self.totals() {
            writeln!(w, "{name}\t{}\t{}\t{}", t.count, t.total_ns, t.self_ns)?;
        }
        w.flush()
    }
}

/// Global allocator that counts the allocations of a thread while
/// that thread has counting on.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (and reallocations) this thread makes while `f` runs.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch);
        let outer = r.enter("tick", 1);
        r.span("apply", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.span("step", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit(outer);
        let t = r.totals();
        let tick = t["tick"];
        let kids = t["apply"].total_ns + t["step"].total_ns;
        assert_eq!(tick.self_ns, tick.total_ns - kids);
        assert_eq!(t["apply"].self_ns, t["apply"].total_ns);
        assert_eq!(r.spans[1].parent, Some(outer));
        assert_eq!(r.spans[2].req, 1);
    }

    #[test]
    fn allocations_are_counted() {
        let (v, n) = count_allocs(|| vec![1u8; 64]);
        assert!(n >= 1);
        drop(v);
    }
}

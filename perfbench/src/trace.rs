//! In-memory spans for the traced run.
//!
//! Every span has a name, a start and end on one process-wide monotonic
//! clock, a parent (an index into the same recorder, or [`NO_PARENT`]) and
//! an id shared by all spans of one (worker, iteration). Spans are kept
//! per worker in memory and written out once, after the run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// Name of the span from the first layer's forward start to its backward
/// end: one training step.
pub const STEP: &str = "nn.step";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The id shared by every span of one worker iteration.
pub fn trace_id(worker: usize, iteration: u64) -> u64 {
    ((worker as u64) << 40) | iteration
}

/// A reading of both clocks: wall nanoseconds ([`now_ns`]) and the
/// process's CPU nanoseconds ([`process_cpu_ns`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tick {
    pub wall: u64,
    pub cpu: u64,
}

pub fn tick() -> Tick {
    Tick {
        wall: now_ns(),
        cpu: process_cpu_ns(),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time through 64-bit Linux clock_gettime");

/// CPU time of the whole process — every thread, live or exited — in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves
/// out time the host steals from a virtual machine.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable struct with the layout of a 64-bit
    // Linux `struct timespec` (two `long`s, checked by the cfg above), and
    // clock_gettime writes nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One worker iteration reaching gradient exchange: when, and over how
/// many samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    pub at: Tick,
    pub lbs: u64,
}

/// Per-worker recorder, shared by that worker's layer, strategy and
/// transport wrappers. `traced == false` keeps only the untraced
/// instrumentation: one [`Stamp`] per iteration.
pub struct WorkerTrace {
    pub worker: usize,
    pub traced: bool,
    iteration: AtomicU64,
    open_step: AtomicU32,
    spans: Mutex<Vec<Span>>,
    stamps: Mutex<Vec<Stamp>>,
    entries_sent: AtomicU64,
    entries_offered: AtomicU64,
}

impl WorkerTrace {
    pub fn new(worker: usize, traced: bool) -> WorkerTrace {
        WorkerTrace {
            worker,
            traced,
            iteration: AtomicU64::new(0),
            open_step: AtomicU32::new(NO_PARENT),
            spans: Mutex::new(Vec::new()),
            stamps: Mutex::new(Vec::new()),
            entries_sent: AtomicU64::new(0),
            entries_offered: AtomicU64::new(0),
        }
    }

    fn id(&self) -> u64 {
        trace_id(self.worker, self.iteration.load(Ordering::Relaxed))
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking worker")
    }

    /// Start the next iteration and open its span (the parent of every
    /// span recorded until [`WorkerTrace::end_iteration`]).
    pub fn begin_iteration(&self, name: &'static str) {
        self.iteration.fetch_add(1, Ordering::Relaxed);
        let id = self.id();
        let mut spans = self.spans();
        self.open_step.store(spans.len() as u32, Ordering::Relaxed);
        spans.push(Span {
            name,
            id,
            parent: NO_PARENT,
            start: now_ns(),
            end: 0,
        });
    }

    /// Close the open iteration span.
    pub fn end_iteration(&self) {
        let open = self.open_step.swap(NO_PARENT, Ordering::Relaxed);
        if open != NO_PARENT {
            self.spans()[open as usize].end = now_ns();
        }
    }

    /// Record a finished span; it is a child of the open iteration span,
    /// if any.
    pub fn record(&self, name: &'static str, start: u64, end: u64) {
        let parent = self.open_step.load(Ordering::Relaxed);
        let id = self.id();
        self.spans().push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
    }

    /// Untraced instrumentation: one worker iteration of `lbs` samples
    /// reached gradient exchange now (one reading of each clock).
    pub fn stamp_iteration(&self, lbs: usize) {
        let at = tick();
        self.stamps
            .lock()
            .expect("stamp buffer poisoned by a panicking worker")
            .push(Stamp {
                at,
                lbs: lbs as u64,
            });
    }

    /// Max N accounting: `sent` entries went out of `offered` (the full
    /// gradient once per recipient).
    pub fn count_entries(&self, sent: u64, offered: u64) {
        self.entries_sent.fetch_add(sent, Ordering::Relaxed);
        self.entries_offered.fetch_add(offered, Ordering::Relaxed);
    }

    pub fn entries(&self) -> (u64, u64) {
        (
            self.entries_sent.load(Ordering::Relaxed),
            self.entries_offered.load(Ordering::Relaxed),
        )
    }

    pub fn take_stamps(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock().expect("stamp buffer poisoned"))
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children, counting overlapping children once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            kids[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| s.dur() - covered(s.start, s.end.max(s.start), k))
        .collect()
}

/// Calls, total and self nanoseconds of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Of `total_ns`, the part in spans without a parent.
    pub root_ns: u64,
}

/// Fold one recorder's spans into per-name totals.
pub fn add_totals(spans: &[Span], into: &mut BTreeMap<&'static str, NameTotals>) {
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = into.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur();
        t.self_ns += self_ns;
        if s.parent == NO_PARENT {
            t.root_ns += s.dur();
        }
    }
}

/// Write spans as tab-separated `worker id name start_ns end_ns parent`.
pub fn write_tsv(
    out: &mut dyn std::io::Write,
    worker: usize,
    spans: &[Span],
) -> std::io::Result<()> {
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{worker}\t{:#x}\t{}\t{}\t{}\t{parent}",
            s.id, s.name, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("root", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 30, 60),  // overlaps a by 10
            span("c", 0, 55, 58),  // inside b
            span("d", 0, 90, 120), // runs past the parent's end
            span("e", 1, 12, 20),
        ];
        let st = self_times(&spans);
        // Children cover [10,60] and [90,100]: 60 of the root's 100.
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 30 - 8);
        assert_eq!(st[2], 30);
        assert_eq!(st[5], 8);
    }

    #[test]
    fn self_time_without_children_is_duration() {
        let st = self_times(&[span("x", NO_PARENT, 5, 9)]);
        assert_eq!(st, vec![4]);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        // Other tests run on parallel threads of this process, so only a
        // lower bound holds: 30 ms of spinning on this thread is at least
        // 10 ms of process CPU even when the host steals much of it.
        let t0 = tick();
        let mut x = 0u64;
        while now_ns() - t0.wall < 30_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let t1 = tick();
        assert!(x > 0);
        assert!(t1.cpu - t0.cpu >= 10_000_000, "{t0:?} -> {t1:?}");
    }

    #[test]
    fn recorder_links_layer_spans_to_the_open_step() {
        let t = WorkerTrace::new(3, true);
        t.begin_iteration(STEP);
        t.record("nn.l0_conv2d.fwd", 1, 2);
        t.end_iteration();
        t.record("core.select", 3, 4);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, STEP);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.id == trace_id(3, 1)));
        let mut totals = BTreeMap::new();
        add_totals(&spans, &mut totals);
        assert_eq!(totals["core.select"].root_ns, 1);
        assert_eq!(totals["nn.l0_conv2d.fwd"].root_ns, 0);
    }
}

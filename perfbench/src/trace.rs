//! In-memory spans recorded around the calls the benchmark makes into
//! each layer.
//!
//! Every thread appends to its own buffer; a span records its name,
//! start, duration, the span open around it (its parent) and an id (a
//! packet or change id, 0 when none).  Buffers are handed over when a
//! thread ends and written out once, when the benchmark exits.  With
//! tracing off, opening a span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static FINISHED: Mutex<Vec<ThreadSpans>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `dir.on_packet.change`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// Duration in nanoseconds.
    pub dur: u32,
    /// Index of the enclosing span in the same thread, or none.
    pub parent: u32,
    /// Packet or change id (0 when the call has none).
    pub id: u64,
}

/// The spans one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadSpans {
    /// Thread label, e.g. `agent-1`.
    pub thread: String,
    /// Spans in start order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static BUF: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// Turn recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Name this thread's buffer.
pub fn label_thread(label: &str) {
    BUF.with(|b| b.borrow_mut().thread = label.to_string());
}

/// Hand this thread's spans over for the final write; call last thing
/// on every thread that recorded.
pub fn finish_thread() {
    if !enabled() {
        return;
    }
    let spans = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !spans.spans.is_empty() {
        FINISHED
            .lock()
            .expect("a thread panicked while handing over its spans")
            .push(spans);
    }
}

/// Take every finished thread's spans.
pub fn take_all() -> Vec<ThreadSpans> {
    std::mem::take(
        &mut *FINISHED
            .lock()
            .expect("a thread panicked while handing over its spans"),
    )
}

/// An open span; records its end when dropped.
#[must_use = "a span ends when the guard is dropped"]
pub struct Guard {
    index: Option<u32>,
}

/// Open a span around the call that follows.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !enabled() {
        return Guard { index: None };
    }
    let index = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let index = b.spans.len() as u32;
        let parent = b.open.last().copied().unwrap_or(ROOT);
        b.spans.push(Span {
            name,
            start: now_ns(),
            dur: 0,
            parent,
            id,
        });
        b.open.push(index);
        index
    });
    Guard { index: Some(index) }
}

impl Guard {
    /// Rename the span once the call's outcome is known (a publish that
    /// happened, a packet that turned out to be a change).
    pub fn rename(&self, name: &'static str) {
        if let Some(i) = self.index {
            BUF.with(|b| b.borrow_mut().spans[i as usize].name = name);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = now_ns();
            BUF.with(|b| {
                let mut b = b.borrow_mut();
                b.open.pop();
                let s = &mut b.spans[i as usize];
                s.dur = u32::try_from(end - s.start).unwrap_or(u32::MAX);
            });
        }
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children never overlap: they nest on one thread).
pub fn self_times(t: &ThreadSpans) -> Vec<u64> {
    let mut child = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if s.parent != ROOT {
            child[s.parent as usize] += u64::from(s.dur);
        }
    }
    t.spans
        .iter()
        .zip(child)
        .map(|(s, c)| u64::from(s.dur).saturating_sub(c))
        .collect()
}

/// Self times in nanoseconds, grouped by span name, over all threads.
pub fn self_times_by_name(all: &[ThreadSpans]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in all {
        for (s, own) in t.spans.iter().zip(self_times(t)) {
            by.entry(s.name).or_default().push(own as f64);
        }
    }
    by
}

/// Write every span as one tab-separated line:
/// `thread index name start_ns dur_ns self_ns parent id`.
pub fn write_tsv(all: &[ThreadSpans], out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "thread\tindex\tname\tstart_ns\tdur_ns\tself_ns\tparent\tid"
    )?;
    for t in all {
        for (i, (s, own)) in t.spans.iter().zip(self_times(t)).enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{i}\t{}\t{}\t{}\t{own}\t{parent}\t{}",
                t.thread, s.name, s.start, s.dur, s.id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = ThreadSpans {
            thread: "t".into(),
            spans: vec![
                Span {
                    name: "step",
                    start: 0,
                    dur: 100,
                    parent: ROOT,
                    id: 0,
                },
                Span {
                    name: "poll",
                    start: 10,
                    dur: 30,
                    parent: 0,
                    id: 0,
                },
                Span {
                    name: "recv",
                    start: 50,
                    dur: 40,
                    parent: 0,
                    id: 0,
                },
                Span {
                    name: "inner",
                    start: 55,
                    dur: 10,
                    parent: 2,
                    id: 7,
                },
            ],
            open: Vec::new(),
        };
        assert_eq!(self_times(&t), vec![30, 30, 30, 10]);
        let by = self_times_by_name(&[t]);
        assert_eq!(by["step"], vec![30.0]);
    }
}

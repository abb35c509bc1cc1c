//! Spans recorded from the benchmark's own files around calls into each
//! layer's public functions. The program itself carries no
//! instrumentation: a traced run drives the same public API through a
//! bench-side copy of the run loop, wrapping each call in [`span`].
//!
//! A span's *self* time is its duration minus the time covered by its
//! child spans, so trap time splits into CC work and the MC and envelope
//! work it waited on. Spans stay in memory (the first [`MAX_SPANS`] in
//! full, every one in the per-site totals) and are written out only when
//! the run ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept in full per traced run; later ones only feed the totals.
pub const MAX_SPANS: usize = 200_000;

/// A public call the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// `Machine::run_block`.
    RunBlock,
    /// `Cc::ensure` (the entry fetch).
    Ensure,
    /// `Cc::handle_miss`.
    HandleMiss,
    /// `Cc::hash_jump`.
    HashJump,
    /// `Mc::handle_frame`.
    HandleFrame,
    /// `envelope::open`.
    Open,
    /// `envelope::seal`.
    Seal,
}

impl Site {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Site::RunBlock => "sim.run_block",
            Site::Ensure => "cc.ensure",
            Site::HandleMiss => "cc.handle_miss",
            Site::HashJump => "cc.hash_jump",
            Site::HandleFrame => "mc.handle_frame",
            Site::Open => "net.envelope.open",
            Site::Seal => "net.envelope.seal",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One finished span. `parent` is the id of the enclosing span, or
/// `u32::MAX` at top level.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Id, in order of entry.
    pub id: u32,
    /// Enclosing span's id.
    pub parent: u32,
    /// The call timed.
    pub site: Site,
    /// Entry time, ns since the trace started.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Totals for one site.
#[derive(Clone, Debug, Default)]
pub struct SiteStats {
    /// Calls.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child spans.
    pub self_ns: u64,
    /// Every call's duration, for percentiles.
    pub durations_ns: Vec<u64>,
}

/// A finished trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Time from [`start`] to [`finish`].
    pub wall_ns: u64,
    /// Totals per site, in `Site` declaration order.
    pub sites: [SiteStats; 7],
    /// The first [`MAX_SPANS`] spans.
    pub spans: Vec<Span>,
    /// Spans counted in the totals but not kept.
    pub dropped: u64,
}

impl Trace {
    /// Totals for `site`.
    pub fn site(&self, site: Site) -> &SiteStats {
        &self.sites[site.index()]
    }

    /// Summed self time of `sites`, in seconds.
    pub fn self_s(&self, sites: &[Site]) -> f64 {
        sites.iter().map(|&s| self.site(s).self_ns).sum::<u64>() as f64 / 1e9
    }

    /// Share of the traced wall time that some span's self time covers.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.sites.iter().map(|s| s.self_ns).sum();
        covered as f64 / self.wall_ns.max(1) as f64
    }

    /// Write the kept spans as CSV: `id,parent,name,start_ns,dur_ns`
    /// (`parent` is empty at top level).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,dur_ns")?;
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.id,
                parent,
                s.site.name(),
                s.start_ns,
                s.dur_ns
            )?;
        }
        w.flush()
    }
}

struct Open {
    id: u32,
    site: Site,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    trace: Trace,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, discarding any earlier trace.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            trace: Trace::default(),
        })
    });
}

/// Stop recording on this thread and return the trace (empty when
/// [`start`] was not called).
pub fn finish() -> Trace {
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map(|tr| {
                let mut trace = tr.trace;
                trace.wall_ns = tr.origin.elapsed().as_nanos() as u64;
                trace
            })
            .unwrap_or_default()
    })
}

/// Run `f` as a span at `site` when this thread is recording; otherwise
/// just run it.
#[inline]
pub fn span<R>(site: Site, f: impl FnOnce() -> R) -> R {
    let recording = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else {
            return false;
        };
        let id = tr.next_id;
        tr.next_id += 1;
        tr.stack.push(Open {
            id,
            site,
            start: Instant::now(),
            child_ns: 0,
        });
        true
    });
    let out = f();
    if recording {
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let tr = t.as_mut().expect("span entered while recording");
            let open = tr.stack.pop().expect("span stack balanced");
            let dur_ns = end.duration_since(open.start).as_nanos() as u64;
            let parent = match tr.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur_ns;
                    p.id
                }
                None => u32::MAX,
            };
            let stats = &mut tr.trace.sites[open.site.index()];
            stats.count += 1;
            stats.total_ns += dur_ns;
            stats.self_ns += dur_ns.saturating_sub(open.child_ns);
            stats.durations_ns.push(dur_ns);
            if tr.trace.spans.len() < MAX_SPANS {
                let start_ns = open.start.duration_since(tr.origin).as_nanos() as u64;
                tr.trace.spans.push(Span {
                    id: open.id,
                    parent,
                    site: open.site,
                    start_ns,
                    dur_ns,
                });
            } else {
                tr.trace.dropped += 1;
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        span(Site::HandleMiss, || {
            span(Site::HandleFrame, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let t = finish();
        let miss = t.site(Site::HandleMiss);
        let mc = t.site(Site::HandleFrame);
        assert_eq!((miss.count, mc.count), (1, 1));
        assert!(mc.self_ns >= 20_000_000);
        assert!(miss.self_ns >= 5_000_000 && miss.self_ns < 20_000_000);
        assert_eq!(miss.total_ns, miss.self_ns + mc.total_ns);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, t.spans[1].id, "child finishes first");
        assert!(t.coverage() > 0.9);
        // Not recording: spans are free and leave nothing behind.
        assert_eq!(span(Site::Seal, || 7), 7);
        assert_eq!(finish().spans.len(), 0);
    }
}

//! In-memory host-time spans, written out as a Chrome trace when the
//! traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `render` or `codec.encode`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Frame (or fleet tick) the call belongs to; every span of one frame
    /// shares it.
    pub frame: u64,
    /// Index of the enclosing frame span, if any.
    pub parent: Option<usize>,
    /// A kernel replayed on the frame's inputs outside the frame path:
    /// timed, but kept out of the frame's sum.
    pub replay: bool,
    /// Work count carried by the span (pixels shaded, macroblocks
    /// searched, output pixels, coded bytes, fleet concurrency).
    pub work: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder: spans stay in memory until [`Spans::to_chrome_json`].
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the recorder was created.
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a child of `parent`; the work count is computed from
    /// the result after the clock stops.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        frame: u64,
        parent: Option<usize>,
        replay: bool,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        let start = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns,
            frame,
            parent,
            replay,
            work: work(&out),
        });
        out
    }

    /// Opens a span that ends at [`Spans::finish`], so children recorded
    /// in between can name it as their parent; returns its index.
    pub fn open(&mut self, name: &'static str, frame: u64) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            frame,
            parent: None,
            replay: false,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Ends a span opened with [`Spans::open`].
    pub fn finish(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Every span, in the order recorded.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Every span with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of the spans with this name, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Chrome/Perfetto trace: frame-path spans on thread 1, replayed
    /// kernels on thread 2, fleet spans on thread 3.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid = if s.name.starts_with("fleet") || s.name.starts_with("telemetry") {
                3
            } else if s.replay {
                2
            } else {
                1
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"frame\":{},\"parent\":{},\"replay\":{},\"work\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.frame,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.replay,
                s.work,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

/// [`Spans::time`] on a top-level span when a recorder is given;
/// otherwise just runs `f`, untimed.
pub fn time_if<T>(
    spans: Option<&mut Spans>,
    name: &'static str,
    frame: u64,
    f: impl FnOnce() -> T,
    work: impl FnOnce(&T) -> u64,
) -> T {
    match spans {
        Some(spans) => spans.time(name, frame, None, false, f, work),
        None => f(),
    }
}

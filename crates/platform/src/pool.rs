//! Deterministic work splitting across scoped worker threads.
//!
//! Every hot loop in the pipeline (motion search, DCT/quant, convolution,
//! resampling, rasterization) parallelizes through this module, under one
//! **determinism contract**: work is divided into chunks whose boundaries
//! depend only on the *data* (a macroblock row, an output channel, a pixel
//! row) — never on the worker count — each chunk is computed by exactly one
//! worker, and results are merged in chunk-index order. A run with `N`
//! workers therefore produces output bit-identical to the scalar path for
//! every `N`, including float accumulations (each chunk's arithmetic is a
//! self-contained serial computation).
//!
//! Chunks are *assigned* to workers cyclically (worker `w` owns chunks
//! `w, w+N, w+2N, …`). Assignment affects only which thread runs a chunk,
//! never the chunk's arithmetic or the merge order, so it is free to
//! change with `N` — and the cyclic schedule balances loops whose cost
//! drifts along the index (e.g. raster rows near the horizon) far better
//! than contiguous blocks.
//!
//! The worker count is a process-wide knob: [`set_workers`] (in code, as
//! the scaling ladder and the identity tests do), the `GSS_THREADS`
//! environment variable (every binary), or the default of
//! `available_parallelism` capped at 8. A [`PoolHandle`]
//! carries an explicit count: its methods run at that count without
//! touching global state (the paired scalar-vs-parallel identity tests),
//! and a session captures one at construction and [binds](PoolHandle::bind)
//! it to the stepping thread, so concurrent sessions in one process cannot
//! clobber each other through the global knob. A region of `N` workers
//! splits its items into `P = min(N, items)` groups, and every group runs
//! bound to its share of the workers, `N / P` (at least 1). A region nested
//! in a group (a kernel of a fleet session that a pool worker steps)
//! therefore divides that share, and one region tree never runs more
//! threads than its `N`. Only the client's NPU thread, which no group
//! binds, reads the process-wide knob.
//!
//! Threads come from `std::thread::scope` (real OS threads, structured
//! join), so borrowed inputs flow into workers without `'static`
//! gymnastics and every worker has exited before a call returns; a
//! worker's panic panics the caller once every worker has exited. The
//! caller runs the first group itself, so a region spawns `P − 1` threads.
//! A thread the OS refuses costs only parallelism: [`spawn_or_run`] runs
//! that work on the calling thread instead.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{Builder, Scope};
use std::time::Instant;

/// Process-wide worker count; `0` means "not yet resolved".
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// When set, parallel regions run their chunks serially while measuring
/// each chunk's cost (see [`start_accounting`]).
static ACCOUNTING: AtomicBool = AtomicBool::new(false);
/// Sum of every chunk's serial cost across accounted regions, ns.
static ACCOUNTED_WORK_NS: AtomicU64 = AtomicU64::new(0);
/// Sum over accounted regions of the most-loaded worker's cost, ns.
static ACCOUNTED_SPAN_NS: AtomicU64 = AtomicU64::new(0);
/// Per-worker cost accumulators; worker indices beyond the slot count
/// fold into the last slot.
static ACCOUNTED_WORKER_NS: [AtomicU64; MAX_TRACKED_WORKERS] =
    [const { AtomicU64::new(0) }; MAX_TRACKED_WORKERS];

/// Number of per-worker accounting slots kept by the pool. The default
/// worker cap is 8 and the scaling ladder tops out there too, so 32 slots
/// are comfortably beyond anything configured in practice.
pub const MAX_TRACKED_WORKERS: usize = 32;

/// Critical-path accounting of the parallel regions executed since
/// [`start_accounting`]: total chunk work, the modeled span, and how the
/// work split across workers.
#[derive(Debug, Clone, Default)]
pub struct PoolAccounting {
    /// Serial cost of all chunks in all accounted regions, ns.
    pub work_ns: u64,
    /// Modeled parallel cost: per region, the most-loaded worker's chunk
    /// cost; summed over regions, ns.
    pub span_ns: u64,
    /// Cost charged to each worker index, summed over accounted regions,
    /// ns. Trailing never-used slots are trimmed; slot `i` covers worker
    /// `i` (the last kept slot also absorbs any workers beyond
    /// [`MAX_TRACKED_WORKERS`]). These are wall-clock measurements, so —
    /// unlike the modeled times in the telemetry traces — they vary run to
    /// run and only feed the scaling table and benchmark harness.
    pub per_worker_ns: Vec<u64>,
}

impl PoolAccounting {
    /// Load-imbalance factor across workers: the most-loaded worker's cost
    /// over the mean cost (`1.0` = perfectly balanced). Returns `1.0` when
    /// nothing was accounted.
    pub fn imbalance(&self) -> f64 {
        let n = self.per_worker_ns.len();
        if n == 0 {
            return 1.0;
        }
        let total: u64 = self.per_worker_ns.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.per_worker_ns.iter().max().expect("nonempty") as f64;
        max / (total as f64 / n as f64)
    }

    /// Renders the per-worker accounting as collapsed-stack lines
    /// (`pool;worker-N <ns>`), the input format of flamegraph tooling
    /// (e.g. `flamegraph.pl`, speedscope, inferno). One line per tracked
    /// worker plus a `pool;idle` line charging the span's unused capacity
    /// (`span_ns × workers − Σ per-worker`), so the flame width reflects
    /// load imbalance directly. These are wall-clock numbers: unlike the
    /// triage JSON they vary run to run and must ship as a separate
    /// artifact.
    pub fn collapsed_stack(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut busy = 0u64;
        for (i, &ns) in self.per_worker_ns.iter().enumerate() {
            let _ = writeln!(out, "pool;worker-{i} {ns}");
            busy += ns;
        }
        let capacity = self.span_ns.saturating_mul(self.per_worker_ns.len() as u64);
        let _ = writeln!(out, "pool;idle {}", capacity.saturating_sub(busy));
        out
    }
}

/// Switches parallel regions into accounting mode: chunks execute
/// serially (in chunk-index order, so output is bit-identical by
/// construction) while each worker's assigned cost is measured. A region
/// contributes the sum of its chunk costs to `work_ns` and the
/// most-loaded worker's cost to `span_ns` — the wall-clock the region
/// would take on an unloaded machine with one core per worker. This is
/// how the scaling experiment models multi-core speedup on machines with
/// fewer cores than workers, in the same spirit as the device timing
/// models elsewhere in the pipeline. A region nested in an accounted
/// group runs inline inside it, so its cost is charged once, to the group.
pub fn start_accounting() {
    ACCOUNTED_WORK_NS.store(0, Ordering::Relaxed);
    ACCOUNTED_SPAN_NS.store(0, Ordering::Relaxed);
    for slot in &ACCOUNTED_WORKER_NS {
        slot.store(0, Ordering::Relaxed);
    }
    ACCOUNTING.store(true, Ordering::Relaxed);
}

/// Leaves accounting mode and returns the accumulated totals.
pub fn stop_accounting() -> PoolAccounting {
    ACCOUNTING.store(false, Ordering::Relaxed);
    let mut per_worker_ns: Vec<u64> = ACCOUNTED_WORKER_NS
        .iter()
        .map(|slot| slot.load(Ordering::Relaxed))
        .collect();
    while per_worker_ns.last() == Some(&0) {
        per_worker_ns.pop();
    }
    PoolAccounting {
        work_ns: ACCOUNTED_WORK_NS.load(Ordering::Relaxed),
        span_ns: ACCOUNTED_SPAN_NS.load(Ordering::Relaxed),
        per_worker_ns,
    }
}

fn record_region(work_ns: u64, span_ns: u64, per_worker_ns: &[u64]) {
    ACCOUNTED_WORK_NS.fetch_add(work_ns, Ordering::Relaxed);
    ACCOUNTED_SPAN_NS.fetch_add(span_ns, Ordering::Relaxed);
    for (w, &ns) in per_worker_ns.iter().enumerate() {
        ACCOUNTED_WORKER_NS[w.min(MAX_TRACKED_WORKERS - 1)].fetch_add(ns, Ordering::Relaxed);
    }
}

/// Cap on the auto-detected default so wide desktop CPUs do not
/// oversubscribe the nested NPU ∥ GPU client scopes.
const MAX_DEFAULT_WORKERS: usize = 8;

/// Below this many elements a banded loop runs inline: thread spawn costs
/// more than the work it would move.
const MIN_PARALLEL_ELEMS: usize = 4096;

fn default_workers() -> usize {
    if let Ok(v) = std::env::var("GSS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_DEFAULT_WORKERS))
}

/// The active worker count (≥ 1). Resolved on first use from
/// `GSS_THREADS`, falling back to `available_parallelism` capped at 8.
pub fn workers() -> usize {
    match WORKERS.load(Ordering::Relaxed) {
        0 => {
            let n = default_workers();
            WORKERS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Sets the process-wide worker count (clamped to ≥ 1). `1` runs every
/// pool region inline — the scalar reference path.
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Ordering::Relaxed);
}

thread_local! {
    /// Per-thread worker-count override installed by [`PoolHandle::bind`];
    /// `0` means "no binding, use the process-wide knob".
    static BOUND_WORKERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The worker count in effect on this thread: a [`PoolHandle`] binding if
/// one is active, otherwise the process-wide knob. All implicit entry
/// points ([`map_indexed`], [`for_each_band_mut`], [`build_rows`]) resolve
/// through this, so a bound session never observes a concurrent
/// [`set_workers`] from another session in the same process.
pub fn effective_workers() -> usize {
    let bound = BOUND_WORKERS.with(|w| w.get());
    if bound > 0 {
        bound
    } else {
        workers()
    }
}

/// An explicit, immutable worker-count capacity resolved once — the
/// per-session alternative to the process-wide [`set_workers`] knob.
///
/// Two sessions stepped in one process used to race on the global atomic:
/// whichever called `set_workers` last silently reconfigured the other's
/// kernels mid-frame. A handle is captured at session construction
/// ([`PoolHandle::current`]) and [bound](PoolHandle::bind) for the duration
/// of each stepping scope, so every `pool::` entry point under that scope
/// resolves to the session's own capacity regardless of what other
/// sessions do to the global knob. A binding covers only the bound thread,
/// but every pool group binds its share of its region's workers, so a
/// region nested in a pool worker runs at that share; only the client's
/// NPU thread reads the process-wide knob. Outputs are bit-identical at
/// any count by the determinism contract; the handle pins *scheduling*,
/// not results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolHandle {
    workers: usize,
}

impl PoolHandle {
    /// Snapshot of the worker count in effect right now (a binding if one
    /// is active, else the process-wide knob).
    pub fn current() -> Self {
        Self {
            workers: effective_workers(),
        }
    }

    /// A handle with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(n: usize) -> Self {
        Self { workers: n.max(1) }
    }

    /// The capacity this handle resolves to.
    pub fn workers(self) -> usize {
        self.workers
    }

    /// Installs this handle as the calling thread's worker count until the
    /// returned guard drops; nested bindings stack. While bound, implicit
    /// pool entry points on this thread ignore [`set_workers`] from other
    /// threads. A thread spawned under the binding does not inherit it; a
    /// pool group binds its own share of its region's workers instead.
    pub fn bind(self) -> PoolBinding {
        let prev = BOUND_WORKERS.with(|w| w.replace(self.workers));
        PoolBinding { prev }
    }

    /// Computes `f(0), f(1), …, f(n-1)` at this handle's capacity and
    /// returns the results in index order. Each index writes its own result
    /// slot, so the output is identical for every worker count.
    pub fn map_indexed<T, F>(self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        run_cyclic(out.iter_mut(), self.workers, |i, slot| *slot = Some(f(i)));
        out.into_iter()
            .map(|v| v.expect("every index computed"))
            .collect()
    }

    /// Splits `data` into consecutive bands of `band_len` elements (the
    /// last may be shorter) and calls `f(band_index, band)` for each at
    /// this handle's capacity. Each band is a disjoint `&mut` sub-slice,
    /// visited exactly once; band boundaries depend only on
    /// `(data.len(), band_len)`, so the writes are identical for every
    /// worker count. Small inputs (< ~4 Ki elements) run inline.
    ///
    /// # Panics
    ///
    /// Panics when `band_len` is zero.
    pub fn for_each_band_mut<T, F>(self, data: &mut [T], band_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(band_len > 0, "band length must be nonzero");
        let workers = if data.len() < MIN_PARALLEL_ELEMS {
            1
        } else {
            self.workers
        };
        run_cyclic(data.chunks_mut(band_len), workers, f);
    }

    /// Visits every element of `data` exactly once as a disjoint `&mut`,
    /// cyclically assigned across this handle's capacity. Unlike
    /// [`PoolHandle::for_each_band_mut`] there is no inline-size floor:
    /// this is for *heavyweight* elements (e.g. whole simulator sessions)
    /// where even a handful justify threads. Each element's computation
    /// must be self-contained for the determinism contract to carry:
    /// assignment picks only which thread runs an element, never what it
    /// computes. An element's own pool regions run at its group's share of
    /// the capacity, so with at least as many elements as workers they run
    /// inline on the worker that holds the element.
    pub fn for_each_mut<T, F>(self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        run_cyclic(data.iter_mut(), self.workers, f);
    }
}

impl Default for PoolHandle {
    fn default() -> Self {
        Self::current()
    }
}

/// Guard restoring the previous thread binding; see [`PoolHandle::bind`].
#[derive(Debug)]
pub struct PoolBinding {
    prev: usize,
}

impl Drop for PoolBinding {
    fn drop(&mut self) {
        BOUND_WORKERS.with(|w| w.set(self.prev));
    }
}

/// Runs `job` on a new thread of `scope` built by `builder`. When the OS
/// refuses the thread, runs `job` on the calling thread before returning,
/// so a refused spawn costs parallelism, never the run. Returns whether
/// the thread started.
pub fn spawn_or_run<'scope>(
    scope: &'scope Scope<'scope, '_>,
    builder: Builder,
    job: impl FnOnce() + Send + 'scope,
) -> bool {
    // boxed, the spawn is compiled once rather than per caller's closure
    spawn_boxed_or_run(scope, builder, Box::new(job))
}

type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

fn spawn_boxed_or_run<'scope>(
    scope: &'scope Scope<'scope, '_>,
    builder: Builder,
    job: Job<'scope>,
) -> bool {
    // a refused spawn drops its closure, so the job waits in a slot that
    // both the thread and the caller can take it from
    let slot = Arc::new(Mutex::new(Some(job)));
    let run = |slot: &Mutex<Option<Job<'scope>>>| {
        let job = slot.lock().expect("job slot poisoned").take();
        if let Some(job) = job {
            job();
        }
    };
    let thread_slot = Arc::clone(&slot);
    let spawned = builder
        .spawn_scoped(scope, move || run(&thread_slot))
        .is_ok();
    if !spawned {
        run(&slot);
    }
    spawned
}

/// The one scheduler behind every entry point. Item `i` goes to group
/// `i % parts` with `parts = min(workers, n)`; each group runs its items
/// serially, in index order, bound to its share of the workers,
/// `workers / parts`, so a region nested in an item divides that share
/// instead of spawning its own `workers`. The caller runs group 0 itself
/// and each other group runs on its own scoped thread (or on the caller,
/// when the OS refuses that thread). Per the determinism contract the
/// grouping only picks *which thread* runs an item: results travel through
/// the items themselves (disjoint `&mut` slots or bands), so no thread is
/// joined by hand and the merge order is the index order. One worker or at
/// most one item runs inline, bound to `workers`; accounting mode runs the
/// groups serially, each bound to one worker, and times each one.
fn run_cyclic<I, F>(items: I, workers: usize, f: F)
where
    I: ExactSizeIterator,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        let _share = PoolHandle::with_workers(workers).bind();
        for (i, item) in items.enumerate() {
            f(i, item);
        }
        return;
    }
    let groups = cyclic_groups(items, workers);
    let accounting = ACCOUNTING.load(Ordering::Relaxed);
    // an accounted group runs serially and is timed whole, so a region
    // nested in it runs inline and its cost is charged once, to the group
    let share = PoolHandle::with_workers(if accounting {
        1
    } else {
        workers / groups.len()
    });
    let run_group = |group: Vec<(usize, I::Item)>| {
        let _share = share.bind();
        for (i, item) in group {
            f(i, item);
        }
    };
    if accounting {
        let (mut work, mut span) = (0u64, 0u64);
        let mut per_worker = Vec::with_capacity(groups.len());
        for group in groups {
            let t = Instant::now();
            run_group(group);
            let ns = t.elapsed().as_nanos() as u64;
            work += ns;
            span = span.max(ns);
            per_worker.push(ns);
        }
        record_region(work, span, &per_worker);
        return;
    }
    let mut groups = groups.into_iter();
    let first = groups.next().expect("two or more groups");
    std::thread::scope(|s| {
        for group in groups {
            spawn_or_run(s, Builder::new(), move || run_group(group));
        }
        run_group(first);
    });
}

/// Cyclic partition of `items` into `min(workers, n)` groups: group `g`
/// holds items `g, g + parts, g + 2·parts, …`, each tagged with its index.
fn cyclic_groups<I: ExactSizeIterator>(items: I, workers: usize) -> Vec<Vec<(usize, I::Item)>> {
    let parts = workers.clamp(1, items.len().max(1));
    let per_group = items.len().div_ceil(parts);
    let mut groups: Vec<Vec<_>> = (0..parts).map(|_| Vec::with_capacity(per_group)).collect();
    for (i, item) in items.enumerate() {
        groups[i % parts].push((i, item));
    }
    groups
}

/// Computes `f(0), f(1), …, f(n-1)` at the worker count in effect on this
/// thread and returns the results in index order. See
/// [`PoolHandle::map_indexed`].
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    PoolHandle::current().map_indexed(n, f)
}

/// Splits `data` into consecutive bands of `band_len` elements (the last
/// may be shorter) and calls `f(band_index, band)` for each, at the worker
/// count in effect on this thread. See [`PoolHandle::for_each_band_mut`].
///
/// # Panics
///
/// Panics when `band_len` is zero.
pub fn for_each_band_mut<T, F>(data: &mut [T], band_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    PoolHandle::current().for_each_band_mut(data, band_len, f);
}

/// Builds a `width × height` row-major buffer by filling each row in
/// parallel: `f(y, row)` receives row `y` as a mutable slice pre-filled
/// with `fill`. The row partitioning follows the determinism contract.
pub fn build_rows<T, F>(width: usize, height: usize, fill: T, f: F) -> Vec<T>
where
    T: Send + Clone,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut data = vec![fill; width * height];
    if width > 0 {
        for_each_band_mut(&mut data, width, f);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_groups_cover_every_chunk_exactly_once_and_balance() {
        for n in [0usize, 1, 2, 7, 8, 9, 64, 1000] {
            for parts in [1usize, 2, 3, 4, 8, 16] {
                let groups = cyclic_groups(0..n, parts);
                // every item keeps its own index, and group g holds items
                // g, g + parts, g + 2·parts, …
                for (g, group) in groups.iter().enumerate() {
                    for (k, &(i, item)) in group.iter().enumerate() {
                        assert_eq!((i, item), (g + k * groups.len(), i));
                    }
                }
                let mut all: Vec<usize> = groups.iter().flatten().map(|&(i, _)| i).collect();
                all.sort_unstable();
                assert_eq!(all, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
                // cyclic assignment: group sizes differ by at most one
                let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
                let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                assert!(
                    hi.unwrap_or(&0) - lo.unwrap_or(&0) <= 1,
                    "n={n} parts={parts}"
                );
            }
        }
    }

    #[test]
    fn map_indexed_matches_scalar_for_every_worker_count() {
        let scalar: Vec<u64> = (0..137).map(|i| (i as u64) * 3 + 1).collect();
        for w in [1usize, 2, 3, 4, 8, 16] {
            let par = PoolHandle::with_workers(w).map_indexed(137, |i| (i as u64) * 3 + 1);
            assert_eq!(par, scalar, "workers={w}");
        }
    }

    #[test]
    fn float_chunks_are_bit_identical_across_worker_counts() {
        // each chunk folds serially; merging in index order keeps the
        // result bit-identical no matter how many workers ran
        let f = |i: usize| (0..50).fold(0.0f32, |acc, k| acc + (i * 50 + k) as f32 * 0.731);
        let scalar: Vec<f32> = (0..33).map(f).collect();
        for w in [2usize, 5, 8] {
            let par = PoolHandle::with_workers(w).map_indexed(33, f);
            assert_eq!(
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn bands_visit_every_element_once() {
        for w in [1usize, 2, 4, 8] {
            let mut data = vec![0u32; 10_000];
            PoolHandle::with_workers(w).for_each_band_mut(&mut data, 300, |band, slice| {
                for (j, v) in slice.iter_mut().enumerate() {
                    *v += (band * 300 + j) as u32 + 1;
                }
            });
            let expect: Vec<u32> = (1..=10_000).collect();
            assert_eq!(data, expect, "workers={w}");
        }
    }

    #[test]
    fn short_final_band_is_handled() {
        let mut data = vec![0u8; 4097]; // above the inline threshold
        PoolHandle::with_workers(4).for_each_band_mut(&mut data, 1024, |band, slice| {
            for v in slice.iter_mut() {
                *v = band as u8 + 1;
            }
        });
        assert_eq!(data[0], 1);
        assert_eq!(data[4095], 4);
        assert_eq!(data[4096], 5); // lone element of the fifth band
    }

    #[test]
    fn build_rows_fills_by_row_index() {
        let data = build_rows(64, 80, 0u16, |y, row| {
            for (x, v) in row.iter_mut().enumerate() {
                *v = (y * 64 + x) as u16;
            }
        });
        assert_eq!(data.len(), 64 * 80);
        assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn worker_count_floor_is_one_and_bindings_shield_the_thread() {
        set_workers(0);
        assert_eq!(workers(), 1);
        set_workers(4);
        assert_eq!(workers(), 4);
        // a bound handle shields this thread from the global knob
        {
            let _bind = PoolHandle::with_workers(3).bind();
            assert_eq!(effective_workers(), 3);
            set_workers(7);
            assert_eq!(effective_workers(), 3);
            // nested bindings stack and restore
            {
                let _inner = PoolHandle::with_workers(2).bind();
                assert_eq!(effective_workers(), 2);
            }
            assert_eq!(effective_workers(), 3);
        }
        assert_eq!(effective_workers(), workers());
        set_workers(4);
    }

    #[test]
    fn imbalance_of_empty_accounting_is_one() {
        let acct = PoolAccounting::default();
        assert_eq!(acct.imbalance(), 1.0);
        let skewed = PoolAccounting {
            work_ns: 40,
            span_ns: 30,
            per_worker_ns: vec![30, 10],
        };
        assert_eq!(skewed.imbalance(), 1.5);
    }

    #[test]
    fn collapsed_stack_lists_workers_and_idle_capacity() {
        let acct = PoolAccounting {
            work_ns: 40,
            span_ns: 30,
            per_worker_ns: vec![30, 10],
        };
        assert_eq!(
            acct.collapsed_stack(),
            "pool;worker-0 30\npool;worker-1 10\npool;idle 20\n"
        );
        assert_eq!(PoolAccounting::default().collapsed_stack(), "pool;idle 0\n");
    }

    #[test]
    fn empty_input_is_a_noop() {
        let pool = PoolHandle::with_workers(4);
        assert!(pool.map_indexed(0, |i| i).is_empty());
        let mut empty: Vec<u8> = Vec::new();
        pool.for_each_band_mut(&mut empty, 16, |_, _| panic!("no bands"));
        let mut none: Vec<u8> = Vec::new();
        pool.for_each_mut(&mut none, |_, _| panic!("no elements"));
    }

    #[test]
    fn for_each_mut_visits_every_element_once_at_any_worker_count() {
        for w in [1usize, 2, 3, 8, 16] {
            let mut data = vec![0u32; 13];
            PoolHandle::with_workers(w).for_each_mut(&mut data, |i, v| *v += i as u32 + 1);
            let expect: Vec<u32> = (1..=13).collect();
            assert_eq!(data, expect, "workers={w}");
        }
    }

    #[test]
    fn handle_workers_floor_is_one() {
        assert_eq!(PoolHandle::with_workers(0).workers(), 1);
        assert!(PoolHandle::current().workers() >= 1);
    }

    #[test]
    fn a_refused_spawn_runs_the_job_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = |builder: Builder| {
            let mut ran_on = None;
            let spawned = std::thread::scope(|s| {
                spawn_or_run(s, builder, || ran_on = Some(std::thread::current().id()))
            });
            (spawned, ran_on.expect("the job ran"))
        };
        // no OS grants an exabyte stack: the spawn fails at once and starts
        // no thread
        let (spawned, thread) = ran_on(Builder::new().stack_size(1 << 60));
        assert!(!spawned);
        assert_eq!(thread, caller);
        let (spawned, thread) = ran_on(Builder::new());
        assert!(spawned);
        assert_ne!(thread, caller);
    }

    #[test]
    fn the_caller_runs_group_zero_and_one_thread_runs_the_rest() {
        let caller = std::thread::current().id();
        let ran_on = PoolHandle::with_workers(2).map_indexed(4, |_| std::thread::current().id());
        assert_eq!((ran_on[0], ran_on[2]), (caller, caller));
        assert_eq!(ran_on[1], ran_on[3]);
        assert_ne!(ran_on[1], caller);
    }

    #[test]
    fn a_group_runs_at_its_share_and_the_caller_binding_is_restored() {
        let _caller = PoolHandle::with_workers(3).bind();
        // a region that runs inline (one worker, or one item) is its own
        // single group: it binds its whole count
        for (workers, items, share) in [(2usize, 4usize, 1usize), (8, 3, 2), (1, 4, 1), (4, 1, 4)] {
            let seen =
                PoolHandle::with_workers(workers).map_indexed(items, |_| effective_workers());
            assert_eq!(seen, vec![share; items], "workers={workers} items={items}");
            assert_eq!(effective_workers(), 3);
        }
        // a panic in the caller's own group (index 0) or in a spawned one
        // (index 1) unwinds through the bindings and restores the caller's
        for bad in [0usize, 1] {
            let caught = std::panic::catch_unwind(|| {
                PoolHandle::with_workers(2).map_indexed(4, |i| assert_ne!(i, bad))
            });
            assert!(caught.is_err(), "index {bad} panics");
            assert_eq!(effective_workers(), 3);
        }
    }

    // a panicking item on a worker thread must panic the caller, never
    // leave a hole in the output
    #[test]
    #[should_panic]
    fn a_panicking_index_panics_the_caller() {
        PoolHandle::with_workers(4).map_indexed(16, |i| {
            assert_ne!(i, 5, "index 5 fails");
            i
        });
    }

    // index 0 belongs to the group the caller runs itself
    #[test]
    #[should_panic]
    fn a_panicking_index_in_the_callers_group_panics_the_caller() {
        PoolHandle::with_workers(4).map_indexed(16, |i| {
            assert_ne!(i, 0, "index 0 fails");
            i
        });
    }

    #[test]
    #[should_panic]
    fn a_panicking_band_panics_the_caller() {
        let mut data = vec![0u8; 8192];
        PoolHandle::with_workers(4).for_each_band_mut(&mut data, 1024, |band, _| {
            assert_ne!(band, 5, "band 5 fails");
        });
    }

    #[test]
    #[should_panic]
    fn a_panicking_element_panics_the_caller() {
        let mut data = vec![0u8; 16];
        PoolHandle::with_workers(4).for_each_mut(&mut data, |i, _| {
            assert_ne!(i, 5, "element 5 fails");
        });
    }
}

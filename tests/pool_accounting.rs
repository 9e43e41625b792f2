//! `gss_platform::pool` accounting mode. Accounting is process-wide: a
//! region that any other test runs while it is on lands in the same
//! ledger, so this test lives in a binary of its own.

use std::time::Instant;

use gss_platform::pool::{self, start_accounting, stop_accounting, PoolHandle};

#[test]
fn accounting_measures_work_and_span_without_changing_results() {
    let f = |i: usize| (0..400).fold(0.0f64, |acc, k| acc + ((i + k) as f64).sqrt());
    let scalar: Vec<f64> = (0..64).map(f).collect();
    start_accounting();
    let pool = PoolHandle::with_workers(4);
    let accounted = pool.map_indexed(64, f);
    let mut banded = vec![0u64; 8192];
    pool.for_each_band_mut(&mut banded, 1024, |b, band| {
        for (j, v) in band.iter_mut().enumerate() {
            *v = (b * 1024 + j) as u64;
        }
    });
    let mut elements = vec![0.0f64; 8];
    pool.for_each_mut(&mut elements, |i, v| *v = f(i));
    let acct = stop_accounting();
    assert_eq!(accounted, scalar);
    assert!(banded.iter().enumerate().all(|(i, &v)| v == i as u64));
    assert_eq!(elements, scalar[..8]);
    // the span is the most-loaded worker per region: never more than
    // the total work, and nonzero once any region ran
    assert!(acct.span_ns > 0);
    assert!(acct.span_ns <= acct.work_ns);
    // per-worker costs partition the work: they sum to it exactly, no
    // worker exceeds the span (max-of-sums <= sum-of-maxes), and all
    // three 4-worker regions above populate all four slots
    assert_eq!(acct.per_worker_ns.iter().sum::<u64>(), acct.work_ns);
    assert!(acct.per_worker_ns.iter().all(|&ns| ns <= acct.span_ns));
    assert_eq!(acct.per_worker_ns.len(), 4);
    assert!(acct.imbalance() >= 1.0);

    // a region nested in an accounted group runs inline, whatever the
    // group's share of the workers (1 at 2 workers over 4 items, 4 at 8
    // over 2) or the process-wide knob says, so its work is charged once,
    // to the group that ran it
    let prev = pool::workers();
    pool::set_workers(4);
    for (workers, items) in [(2usize, 4usize), (8, 2)] {
        start_accounting();
        let start = Instant::now();
        let mut nested = vec![Vec::new(); items];
        PoolHandle::with_workers(workers).for_each_mut(&mut nested, |i, v| {
            *v = pool::map_indexed(16, |j| f(i * 16 + j));
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let acct = stop_accounting();
        assert_eq!(nested.concat(), scalar[..items * 16]);
        assert!(
            acct.work_ns <= wall_ns,
            "workers={workers}: work {} ns over the window's {wall_ns} ns",
            acct.work_ns
        );
        assert_eq!(acct.per_worker_ns.len(), 2, "workers={workers}");
    }
    pool::set_workers(prev);
}

//! Allocation accounting for the lock-free ingest plane.
//!
//! Steady-state ingestion into an [`AnyAtomicDDSketch`] — once the atomic
//! stores have grown to cover the live value range — must be **zero**
//! allocations per value: the hot path is a relaxed `fetch_add` into an
//! existing table cell plus relaxed summary updates, with growth confined
//! to the rare guarded slow path. The same holds through the
//! [`ConcurrentSketch`] facade, and warm snapshots reuse their recycled
//! buffers end to end.
//!
//! The allocation counter is per thread, so the tests in this binary
//! run in parallel without seeing each other's allocations.

use alloc_counter::{allocations_during, CountingAllocator};
use ddsketch::{AnyAtomicDDSketch, AtomicSketchScratch, SketchConfig};
use pipeline::ConcurrentSketch;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_atomic_ingest_does_not_allocate() {
    for config in [
        SketchConfig::unbounded(0.01),
        SketchConfig::dense_collapsing(0.01, 512),
        SketchConfig::fast(0.01, 512),
    ] {
        // Warm up: grow the stores over the whole value range (and run
        // this thread's lazy stripe-id init).
        let atomic = AnyAtomicDDSketch::new(config).unwrap();
        for i in 1..=1000 {
            let v = f64::from(i) * 0.5;
            atomic.add(v).unwrap();
            atomic.add(-v).unwrap();
        }

        // Steady state: same value range, every ingestion front-door.
        let batch = [1.0, 2.5, 100.0, 499.0, -3.0];
        let allocs = allocations_during(|| {
            for i in 1..=1000 {
                let v = f64::from(i) * 0.5;
                atomic.add(v).unwrap();
                atomic.add(-v).unwrap();
                atomic.add_n(v, 7).unwrap();
            }
            atomic.add_slice(&batch).unwrap();
        });
        assert_eq!(
            allocs,
            0,
            "steady-state atomic ingest allocated ({})",
            config.name()
        );

        // Warm snapshots are allocation-free end to end: raw scan buffers,
        // bin conversion buffers, and the target's stores all recycle.
        let mut target = config.build().unwrap();
        let mut scratch = AtomicSketchScratch::default();
        atomic.snapshot_into(&mut target, &mut scratch).unwrap();
        let allocs = allocations_during(|| {
            atomic.snapshot_into(&mut target, &mut scratch).unwrap();
        });
        assert_eq!(allocs, 0, "warm snapshot allocated ({})", config.name());
    }
}

#[test]
fn steady_state_concurrent_sketch_ingest_does_not_allocate() {
    let cs = ConcurrentSketch::new(0.01, 2048, 2).unwrap();
    assert!(cs.is_lock_free());
    for i in 1..=1000 {
        cs.add(f64::from(i) * 0.25).unwrap();
        cs.add(f64::from(i)).unwrap();
    }
    let allocs = allocations_during(|| {
        for i in 1..=1000 {
            cs.add(f64::from(i) * 0.25).unwrap();
            cs.add_n(f64::from(i), 3).unwrap();
        }
    });
    assert_eq!(allocs, 0, "steady-state facade ingest allocated");

    // The lock-free count read allocates nothing either.
    let allocs = allocations_during(|| {
        assert!(cs.count() > 0);
    });
    assert_eq!(allocs, 0, "lock-free count allocated");
}

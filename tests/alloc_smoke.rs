//! Allocation-count smoke tests for the columnar shuffle.
//!
//! The point of the batch layer is fewer, larger allocations: tuples live
//! in shared arenas (one `Vec` per column plus one dictionary) instead of
//! one `Vec<Value>` + `Arc` per tuple and one `BTreeMap` node per shuffle
//! pair. These tests pin that property down with a counting global
//! allocator: on an A3-derived pair stream the columnar shuffle must stay
//! under fixed allocation ceilings, fully in memory and under a
//! spill-forcing budget.
//!
//! The counter only tracks `alloc` calls (reallocs count once; frees are
//! ignored), and it counts per thread: each test measures the allocations
//! of its own thread only, so whatever other tests (or the harness) do
//! on other threads never leaks into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gumbo::datagen::queries;
use gumbo::mr::{
    BatchPartition, MemBudget, MemoryBudget, Message, PairBatch, Payload, ShuffleSpill,
};
use gumbo::prelude::*;

/// A pass-through allocator that counts `alloc`/`realloc` calls made by
/// the current thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free: reading it never allocates and
    // never registers a destructor, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` on this thread and return how many allocation calls it made.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The shuffle stream the tests measure: every tuple of the A3
/// preset database keyed by its guard attribute (so many messages land on
/// each reducer key, as in a real semi-join round), carrying the paper's
/// fixed-width request messages (`Assert` and `Req`/`Ref` — 4 and
/// 14 bytes, no tuple payloads).
fn a3_pairs() -> Vec<(Tuple, Message)> {
    let workload = queries::a3();
    let db = workload.spec.clone().with_tuples(400).database(11);
    let mut pairs = Vec::new();
    for relation in db.relations() {
        for tuple in relation.iter() {
            // Three conditionals interrogate each guard tuple, as in the
            // A3 query's three-atom condition.
            for _ in 0..3 {
                let seq = pairs.len() as u32;
                let key = tuple.project(&[0]);
                let msg = if seq % 2 == 0 {
                    Message::Assert { cond: seq }
                } else {
                    Message::Req {
                        cond: seq,
                        payload: Payload::Ref {
                            guard: 0,
                            id: u64::from(seq),
                        },
                    }
                };
                pairs.push((key, msg));
            }
        }
    }
    assert!(pairs.len() >= 500, "A3 preset must yield a real stream");
    pairs
}

/// Drain a columnar partition end to end, returning the group count.
fn run_columnar(pairs: &[(Tuple, Message)], budget: &MemoryBudget) -> usize {
    let spill = ShuffleSpill::new("alloc-smoke-columnar");
    let mut part = BatchPartition::new(0, budget, &spill, 1);
    let mut batch = PairBatch::new();
    for (k, v) in pairs {
        batch.push_pair(k, v);
    }
    let rows: Vec<u32> = (0..batch.len() as u32).collect();
    part.push_rows(&batch, &rows).unwrap();
    drop(batch);
    let (mut stream, _) = part.into_groups().unwrap();
    let mut groups = 0;
    let mut values = Vec::new();
    while let Some(_key) = stream.next_group_into(&mut values).unwrap() {
        groups += 1;
    }
    groups
}

/// The columnar shuffle stays under fixed allocation ceilings on the A3
/// stream, with and without a spill-forcing budget.
///
/// The ceilings come from the owned-pair shuffle this crate used to
/// carry, measured on the same stream: 1419 allocations in memory and
/// 29545 under the 4 KiB budget, where it decoded every spilled pair.
/// The columnar path must beat the former outright (floor 1) and the
/// latter tenfold (floor 10); it measures 755 and 1689.
#[test]
fn columnar_shuffle_allocates_ten_times_less() {
    let pairs = a3_pairs();
    for (limit, pair_allocs, floor) in [
        (MemBudget::UNLIMITED, 1419u64, 1u64),
        (MemBudget::bytes(4096), 29545, 10),
    ] {
        let budget = MemoryBudget::new(limit);
        let (columnar, groups) = count_allocations(|| run_columnar(&pairs, &budget));
        assert!(groups > 0, "the stream must form groups");
        assert!(
            columnar * floor < pair_allocs,
            "columnar shuffle must allocate >={floor}x less than the pair shuffle's \
             {pair_allocs} under budget {limit:?}: saw {columnar}"
        );
    }
}

/// With no trace sink installed, the observability hot path performs
/// zero heap allocations: dead spans carry an empty `Vec`, field-fill
/// closures never run, and metrics skip lazy registration entirely.
#[test]
fn disabled_tracing_allocates_nothing() {
    assert!(
        !gumbo::obs::enabled(),
        "no sink is ever installed in this test binary"
    );
    static PROBE: gumbo::obs::Counter = gumbo::obs::Counter::new("alloc_smoke.probe");
    let (allocs, ()) = count_allocations(|| {
        for i in 0..1000u64 {
            let mut span = gumbo::obs::span_with("map", |f| {
                f.u64("i", i);
                f.str("job", "never-evaluated");
            });
            gumbo::obs::event("budget:exhausted", |f| f.u64("bytes", i));
            span.record(|f| f.u64("post", i));
            drop(span);
            PROBE.incr();
        }
    });
    assert_eq!(allocs, 0, "disabled tracing must not allocate");
}

/// `Tuple::project` on all-int tuples performs one allocation per call
/// (the projected `Vec<Value>` + its `Arc` header) — no per-value clones.
#[test]
fn int_projection_allocates_once_per_tuple() {
    let tuples: Vec<Tuple> = (0..1000)
        .map(|i| Tuple::from_ints(&[i, i + 1, i + 2]))
        .collect();
    let (allocs, projected) = count_allocations(|| {
        tuples
            .iter()
            .map(|t| t.project(&[2, 0]))
            .collect::<Vec<Tuple>>()
    });
    assert_eq!(projected.len(), 1000);
    // One Arc<[Value]> per projection plus the collecting Vec's growth.
    assert!(
        allocs <= 1100,
        "1000 int projections should allocate ~1 time each, saw {allocs}"
    );
}

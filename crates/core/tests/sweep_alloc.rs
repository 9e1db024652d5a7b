//! The statistics sweep allocates per candidate and per tree level, never
//! per `SL` entry: growing `|SL|` four-fold over the same candidate set
//! must not change the allocation count. Node-table lookups by key slice
//! allocate nothing at all.
//!
//! A counting global allocator is process-wide, so these tests live alone
//! in their own binary. Each thread keeps its own count, so tests measuring
//! on parallel threads do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gks_core::merge::merge_posting_lists;
use gks_core::sweep::sweep_counted;
use gks_dewey::{DeweyId, DocId};
use gks_index::{Corpus, GksIndex, IndexOptions};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// 400 records, each with two keyword leaves (`ka`, `kb`) at the same
/// depth.
fn records_index() -> GksIndex {
    let mut xml = String::from("<r>");
    for _ in 0..400 {
        xml.push_str("<rec><w>ka</w><w>kb</w></rec>");
    }
    xml.push_str("</r>");
    let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
    GksIndex::build(&corpus, IndexOptions::default()).unwrap()
}

#[test]
fn node_table_lookups_do_not_allocate() {
    let ix = records_index();
    let table = ix.node_table();
    let keys: Vec<&[u32]> = ix.postings("ka").iter().map(DeweyId::key).collect();
    let missing = [0, 401, 0];
    let (found, allocs) = allocations_of(|| {
        let mut found = 0u32;
        for i in 0..10_000 {
            let key = if i % 10 == 9 {
                &missing[..]
            } else {
                keys[i % keys.len()]
            };
            found += u32::from(table.get_key(key).is_some());
            std::hint::black_box(table.lowest_entity_depth(key));
        }
        found
    });
    assert_eq!(found, 9_000, "every posting key resolves, the missing one never does");
    assert_eq!(allocs, 0, "10 000 key lookups allocated {allocs} times");
}

#[test]
fn sweep_allocations_do_not_grow_with_sl() {
    let ix = records_index();
    let (ka, kb) = (ix.postings("ka"), ix.postings("kb"));
    assert_eq!((ka.len(), kb.len()), (400, 400));

    // The same candidates either way: the root and the first two records.
    let nodes = [
        DeweyId::root(DocId(0)),
        DeweyId::new(DocId(0), vec![0]),
        DeweyId::new(DocId(0), vec![1]),
    ];
    let small = merge_posting_lists([&ka[..100], &kb[..100]]);
    let large = merge_posting_lists([ka, kb]);
    assert_eq!(large.len(), 4 * small.len());

    // Warm up once so lazily initialised state outside the sweep is not
    // charged to the first measurement.
    let _ = sweep_counted(&ix, &small, &nodes, 2);
    let ((small_stats, small_advances), small_allocs) =
        allocations_of(|| sweep_counted(&ix, &small, &nodes, 2));
    let ((large_stats, large_advances), large_allocs) =
        allocations_of(|| sweep_counted(&ix, &large, &nodes, 2));

    assert_eq!(small_stats.len(), large_stats.len());
    assert!(large_advances > 3 * small_advances, "the large sweep does more work");
    assert!(small_allocs > 0, "the counter observes the sweep");
    assert_eq!(
        small_allocs, large_allocs,
        "sweep allocations grew with |SL| ({small_allocs} → {large_allocs})"
    );
}

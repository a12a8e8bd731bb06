//! `Server::run_batch` works on memory it keeps: after warm-up a batch
//! allocates the vector it returns and a few hundred bytes of job
//! bookkeeping, nothing else batch-sized. Held by counting what this
//! thread asks the allocator for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use dg_par::Pool;
use dg_serve::{Response, ServeConfig, Server, SimilarityWorkload, WorkloadSpec};

/// The system allocator, counting requests made while the calling
/// thread has [`COUNTING`] set.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const`: reading it inside the allocator must not allocate.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_warm_batch_allocates_its_result_and_little_else() {
    const BATCH: usize = 4096;
    let cfg = ServeConfig::bench();
    let server = Server::with_pool(cfg, Pool::with_workers(1)).unwrap();
    let mut workload = SimilarityWorkload::new(WorkloadSpec::tier1().with_seed(0xA110C), &cfg);
    for _ in 0..2 {
        server.run_batch(&workload.batch_mixed(BATCH, 0.3));
    }
    let requests = workload.batch_mixed(BATCH, 0.3);

    COUNTING.set(true);
    let responses = server.run_batch(&requests);
    COUNTING.set(false);

    assert_eq!(responses.len(), BATCH);
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let result = BATCH * std::mem::size_of::<Response>();
    assert!(bytes >= result, "the result itself was not counted: {bytes} bytes");
    assert!(
        bytes <= result + 4096,
        "{bytes} bytes in {calls} allocations for a result of {result} bytes"
    );
    // The result, the pool's job list and its per-job timings.
    assert!(calls <= 8, "{calls} allocations in one warm batch");
}

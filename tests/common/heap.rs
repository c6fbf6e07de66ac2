//! A global allocator that counts the live and peak heap bytes of each
//! thread — a test's own allocations, whatever other tests run beside
//! it. Including this module installs it for the whole test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PerThreadCount;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn add_live(delta: isize) {
    // `try_with`: a thread's last frees may come after its locals died.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are thread-local cells that never allocate.
unsafe impl GlobalAlloc for PerThreadCount {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: PerThreadCount = PerThreadCount;

/// Peak heap bytes `f` holds above what was live when it started.
pub fn peak_bytes_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

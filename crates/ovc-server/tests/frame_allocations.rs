//! The frame writer allocates nothing per frame once the session's frame
//! buffer has grown to the frame size: every number goes out through
//! `ovc_json::write_u64`, every frame is appended to one reused
//! `String`, and `ChunkedWriter::chunk` sends it without a heap buffer
//! of its own.
//!
//! The counting allocator lives in this test binary only; nothing that
//! ships is built with it.  It counts per thread, so the test harness's
//! other threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ovc_core::{FlatRows, Ovc};
use ovc_server::http::ChunkedWriter;
use ovc_server::wire;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received (see the impl's note).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows per frame, as the server's default `batch_rows`.
const FRAME_ROWS: usize = 1000;

/// Frames encoded after the first (seq 1..=9 keep every frame the
/// first one's length).
const MORE_FRAMES: u64 = 9;

#[test]
fn frames_after_the_first_allocate_nothing() {
    // A coded batch: four columns with values of every length, up to
    // u64::MAX, and codes above 2^62.
    let mut batch = FlatRows::with_capacity(4, FRAME_ROWS);
    for i in 0..FRAME_ROWS as u64 {
        let row = [i, i * 7919, u64::MAX - i, (1 << 53) + i];
        batch.push(&row, Ovc::from_raw((1 << 62) | (i << 20) | 77));
    }
    let rows = || (0..batch.len()).map(|i| batch.row(i));
    let mut cw = ChunkedWriter::start(std::io::sink(), 200, "OK", "application/x-ndjson", &[])
        .expect("sink accepts the head");
    let mut frame = String::new();
    let mut send = |frame: &mut String, seq: u64| {
        frame.clear();
        wire::batch_frame(frame, seq, rows(), Some(batch.codes()));
        cw.chunk(frame.as_bytes()).expect("sink accepts the chunk");
    };

    send(&mut frame, 0); // grows the buffer to the frame size
    let first_len = frame.len();
    let before = allocations();
    for seq in 1..=MORE_FRAMES {
        send(&mut frame, seq);
    }
    let during = allocations() - before;
    assert_eq!(
        frame.len(),
        first_len,
        "every frame is the first one's size"
    );
    assert_eq!(
        during, 0,
        "{MORE_FRAMES} frames of {FRAME_ROWS} coded rows allocated {during} times"
    );
}

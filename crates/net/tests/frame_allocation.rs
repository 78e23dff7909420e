//! Memory a peer can make the frame reader commit.
//!
//! A frame's length prefix is the peer's claim, not bytes received: a peer
//! that announces `MAX_FRAME` (16 MiB) and then hangs up must not have
//! made the reader allocate 16 MiB. The test counts the bytes live on its
//! own thread while `read_frame` runs and pins the peak.
//!
//! It is a test binary of its own, and one `#[test]`, because it installs a
//! counting global allocator.

use ssa_net::frame::{read_frame, FrameError, FrameKind, HEADER_TAIL};
use ssa_net::{MAX_FRAME, PROTO_VERSION};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

/// The system allocator, tracking the bytes the current thread holds and
/// their peak while its `COUNTING` flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: a thread being torn down may still free and allocate.
    if COUNTING.try_with(Cell::get) == Ok(true) {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak bytes live on this thread above where they stood while `f`
/// ran.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, PEAK.with(Cell::get))
}

#[test]
fn an_announced_frame_costs_only_the_bytes_that_arrive() {
    // A peer announces the largest frame, sends its header and 1 KiB of
    // payload, then hangs up.
    let mut wire = MAX_FRAME.to_le_bytes().to_vec();
    wire.push(PROTO_VERSION);
    wire.push(0); // a request
    wire.extend_from_slice(&7u64.to_le_bytes());
    assert_eq!(wire.len() as u32, 4 + HEADER_TAIL);
    wire.extend([0xAB; 1024]);
    let (read, peak) = peak_bytes(|| read_frame(&mut wire.as_slice()));
    assert_eq!(read, Err(FrameError::Io(io::ErrorKind::UnexpectedEof)));
    assert!(
        peak <= 128 * 1024,
        "reading a truncated frame peaked at {peak} B, 128 KiB allowed \
         (16 MiB while the announced length was allocated up front)"
    );

    // A frame no larger than a chunk costs one allocation of its length.
    let frame = ssa_net::frame::encode_frame(FrameKind::Request, 7, &[1; 3000]);
    let (read, peak) = peak_bytes(|| read_frame(&mut frame.as_slice()));
    let read = read.expect("a whole frame").expect("not EOF");
    assert_eq!(read.payload, [1; 3000]);
    assert_eq!(peak, 3000, "the payload, allocated once at its length");
}

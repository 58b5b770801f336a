//! A received socket frame is read straight out of its receive slot: a
//! 64 KiB message between two co-located containers allocates no buffer a
//! payload could be staged in, on either side. Counted, not timed — a
//! counting global allocator sees every allocation, however fast.

use freeflow::FreeFlowCluster;
use freeflow_socket::SocketStack;
use freeflow_types::{HostCaps, TenantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// The smallest allocation counted: a frame's payload is 16 KiB, and
/// nothing else the socket path allocates per message comes near this.
const BIG: usize = 4096;
/// One `bulk` message of the benchmark: four full frames.
const MESSAGE: usize = 64 * 1024;

static ARMED: AtomicBool = AtomicBool::new(false);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts allocations of [`BIG`] bytes or more, on every thread, while
/// armed: the receive path runs on whichever thread drains the channel —
/// the reader, or the container's library pump.
struct Counting;

fn note(size: usize) {
    if size >= BIG && ARMED.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_same_host_message_is_read_out_of_its_slots_with_no_payload_buffer() {
    let cluster = FreeFlowCluster::with_defaults();
    let host = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), host).unwrap();
    let b = cluster.launch(TenantId::new(1), host).unwrap();
    let stack = SocketStack::new();
    let listener = stack.bind(&b, 80).unwrap();
    let accept = std::thread::spawn(move || listener.accept(Duration::from_secs(10)).unwrap());
    let mut client = stack.connect(&a, b.ip(), 80).unwrap();
    let mut server = accept.join().unwrap();

    let message: Vec<u8> = (0..MESSAGE).map(|i| (i % 251) as u8).collect();
    let mut got = vec![0u8; MESSAGE];
    let mut round = |rounds: usize| {
        for _ in 0..rounds {
            client.write_all(&message).unwrap();
            server.read_exact(&mut got).unwrap();
            assert_eq!(got, message);
        }
    };
    // Warm up first: the stream's frame queue and the drains' scratch grow
    // to their working size once.
    round(4);
    ARMED.store(true, Ordering::Relaxed);
    round(16);
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(
        BIG_ALLOCS.load(Ordering::Relaxed),
        0,
        "16 messages of {MESSAGE} bytes allocated buffers of {BIG} bytes or more"
    );
    drop((client, server, stack, a, b, cluster));
}

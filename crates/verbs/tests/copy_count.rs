//! A same-host verbs op copies its payload once, straight from the
//! requester's MR into the responder's: between post and completion it
//! allocates no buffer a payload could be staged in, and a SEND's landing
//! in a posted receive allocates nothing at all. Counted, not timed — a
//! counting global allocator sees every allocation, however fast.

use freeflow_shmem::SharedArena;
use freeflow_types::OverlayIp;
use freeflow_verbs::qp::{Answer, Requester};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr, WcOpcode, WorkCompletion};
use freeflow_verbs::{
    CompletionQueue, MemoryRegion, Payload, ProtectionDomain, QueuePair, VerbsNetwork, WcStatus,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The smallest allocation counted: no payload below the relay's arena
/// threshold is measured here, and nothing else the engine allocates per
/// op comes near it.
const BIG: usize = 4096;
/// The payload every op moves.
const PAYLOAD: u32 = 64 * 1024;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BIG_ALLOCS: Cell<usize> = const { Cell::new(0) };
    static ALL_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts the current thread's allocations while it is armed, all of them
/// and those of [`BIG`] bytes or more apart; the verbs engine runs an op
/// on the thread that posts it.
struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALL_ALLOCS.with(|n| n.set(n.get() + 1));
            if size >= BIG {
                BIG_ALLOCS.with(|n| n.set(n.get() + 1));
            }
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches const-initialized
// thread-locals, which never allocate.
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

/// Run `op` and count the allocations it made: those of [`BIG`] bytes
/// or more, and all of them.
fn allocs<T>(op: impl FnOnce() -> T) -> (T, usize, usize) {
    BIG_ALLOCS.with(|n| n.set(0));
    ALL_ALLOCS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = op();
    ARMED.with(|armed| armed.set(false));
    (out, BIG_ALLOCS.with(Cell::get), ALL_ALLOCS.with(Cell::get))
}

/// Run `op` and count the allocations of [`BIG`] bytes or more it made.
fn big_allocs<T>(op: impl FnOnce() -> T) -> (T, usize) {
    let (out, big, _) = allocs(op);
    (out, big)
}

/// Two connected QPs on one host, each with one region of `2 * PAYLOAD`
/// bytes: a block of the host's arena, or private memory, what
/// registration falls back to when the arena is full.
struct Host {
    _net: Arc<VerbsNetwork>,
    _arena: Arc<SharedArena>,
    mr_a: Arc<MemoryRegion>,
    mr_b: Arc<MemoryRegion>,
    cq_a: Arc<CompletionQueue>,
    cq_b: Arc<CompletionQueue>,
    qp_a: Arc<QueuePair>,
    qp_b: Arc<QueuePair>,
}

fn host(arena_backed: bool) -> Host {
    let net = VerbsNetwork::new();
    let arena = SharedArena::new(1 << 20);
    let dev_a = net.create_device(OverlayIp(1));
    let dev_b = net.create_device(OverlayIp(2));
    let (pd_a, pd_b) = (dev_a.alloc_pd(), dev_b.alloc_pd());
    let region = |pd: &ProtectionDomain| {
        let len = 2 * PAYLOAD as u64;
        if arena_backed {
            let block = arena.alloc(len).unwrap();
            pd.register_arena(arena.clone(), block, AccessFlags::all())
        } else {
            pd.register(len, AccessFlags::all())
        }
        .unwrap()
    };
    let (mr_a, mr_b) = (region(&pd_a), region(&pd_b));
    let (cq_a, cq_b) = (dev_a.create_cq(64), dev_b.create_cq(64));
    let qp_a = pd_a.create_qp(&cq_a, &cq_a, 16, 16).unwrap();
    let qp_b = pd_b.create_qp(&cq_b, &cq_b, 16, 16).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    mr_a.write(0, &pattern(1)).unwrap();
    mr_b.write(0, &pattern(2)).unwrap();
    Host {
        _net: net,
        _arena: arena,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    }
}

fn pattern(seed: u8) -> Vec<u8> {
    (0..PAYLOAD)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

fn bytes(mr: &MemoryRegion, off: u64) -> Vec<u8> {
    let mut out = vec![0u8; PAYLOAD as usize];
    mr.read(off, &mut out).unwrap();
    out
}

fn done(cq: &CompletionQueue, opcode: WcOpcode) -> WorkCompletion {
    let wc = cq.poll_one().expect("the op completed when it was posted");
    assert!(wc.status.is_ok(), "{wc:?}");
    assert_eq!((wc.opcode, wc.byte_len), (opcode, PAYLOAD as u64));
    wc
}

#[test]
fn a_write_copies_straight_into_the_target() {
    for arena_backed in [true, false] {
        let h = host(arena_backed);
        let wr = SendWr::write(1, h.mr_a.sge(0, PAYLOAD), h.mr_b.addr(), h.mr_b.rkey());
        let (_, n) = big_allocs(|| {
            h.qp_a.post_send(wr).unwrap();
            done(&h.cq_a, WcOpcode::RdmaWrite)
        });
        assert_eq!(bytes(&h.mr_b, 0), pattern(1));
        assert_eq!(
            n, 0,
            "arena-backed {arena_backed}: a WRITE staged its payload"
        );
    }
}

#[test]
fn a_read_copies_straight_into_the_requester() {
    for arena_backed in [true, false] {
        let h = host(arena_backed);
        let dst = h.mr_a.sge(PAYLOAD as u64, PAYLOAD);
        let wr = SendWr::read(1, dst, h.mr_b.addr(), h.mr_b.rkey());
        let (_, n) = big_allocs(|| {
            h.qp_a.post_send(wr).unwrap();
            done(&h.cq_a, WcOpcode::RdmaRead)
        });
        assert_eq!(bytes(&h.mr_a, PAYLOAD as u64), pattern(2));
        assert_eq!(
            n, 0,
            "arena-backed {arena_backed}: a READ staged its payload"
        );
    }
}

#[test]
fn a_send_into_a_posted_receive_copies_straight_into_it() {
    for arena_backed in [true, false] {
        let h = host(arena_backed);
        let recv = RecvWr::new(7, h.mr_b.sge(PAYLOAD as u64, PAYLOAD));
        h.qp_b.post_recv(recv).unwrap();
        let wr = SendWr::send(1, h.mr_a.sge(0, PAYLOAD));
        let (_, n) = big_allocs(|| {
            h.qp_a.post_send(wr).unwrap();
            done(&h.cq_a, WcOpcode::Send);
            done(&h.cq_b, WcOpcode::Recv)
        });
        assert_eq!(bytes(&h.mr_b, PAYLOAD as u64), pattern(1));
        assert_eq!(
            n, 0,
            "arena-backed {arena_backed}: a SEND staged its payload"
        );
    }
}

/// The one exception: a SEND that finds no receive posted (RNR) parks a
/// copy of its payload at the responder until one is, since the sender
/// may reuse its buffer once the post returns. That copy is the one
/// allocation allowed.
#[test]
fn a_send_parked_for_a_receive_keeps_one_copy() {
    for arena_backed in [true, false] {
        let h = host(arena_backed);
        let wr = SendWr::send(1, h.mr_a.sge(0, PAYLOAD));
        let (_, parked) = big_allocs(|| h.qp_a.post_send(wr).unwrap());
        assert!(h.cq_a.poll_one().is_none(), "completes when matched");
        assert!(parked <= 1, "arena-backed {arena_backed}: {parked} buffers");
        let recv = RecvWr::new(7, h.mr_b.sge(PAYLOAD as u64, PAYLOAD));
        let (_, matched) = big_allocs(|| {
            h.qp_b.post_recv(recv).unwrap();
            done(&h.cq_b, WcOpcode::Recv);
            done(&h.cq_a, WcOpcode::Send)
        });
        assert_eq!(bytes(&h.mr_b, PAYLOAD as u64), pattern(1));
        assert_eq!(matched, 0, "arena-backed {arena_backed}: matching staged");
    }
}

/// A SEND's landing in a posted receive — the responder's half, the one
/// every inbound SEND takes, local or relayed — allocates nothing of any
/// size: no staging buffer, and no list of the receive's resolved SGEs.
/// The first landing warms what later ones reuse (the CQ's ring, the
/// scatter list), so it is not counted.
#[test]
fn a_send_landing_in_a_posted_receive_allocates_nothing() {
    for arena_backed in [true, false] {
        let h = host(arena_backed);
        let data = pattern(3);
        for wr_id in 0..3 {
            let recv = RecvWr::new(wr_id, h.mr_b.sge(PAYLOAD as u64, PAYLOAD));
            h.qp_b.post_recv(recv).unwrap();
            let from = Requester {
                qp: h.qp_a.endpoint(),
                wr_id,
                relayed: false,
            };
            let (answer, _, n) = allocs(|| {
                let answer = h.qp_b.answer_send(from, Payload::Bytes(&data), None);
                (answer, done(&h.cq_b, WcOpcode::Recv))
            });
            assert_eq!(answer.0, Answer::Now(WcStatus::Success));
            assert_eq!(bytes(&h.mr_b, PAYLOAD as u64), data);
            if wr_id > 0 {
                assert_eq!(n, 0, "arena-backed {arena_backed}: a landing allocated");
            }
        }
    }
}

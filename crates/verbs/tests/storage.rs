//! The verbs engine across storage kinds and lock order: every operation
//! lands the same bytes and completions whether its source and target are
//! private memory or blocks of a host arena, however its SGEs split it,
//! and copies between two regions in opposite directions finish while a
//! migration rehomes both.

use freeflow_shmem::SharedArena;
use freeflow_types::OverlayIp;
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr, Sge, WcOpcode, WorkCompletion};
use freeflow_verbs::{
    CompletionQueue, MemoryRegion, ProtectionDomain, QueuePair, VerbsNetwork, WcStatus,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const REGION: u64 = 32 * 1024;
/// Long enough that a copy spans several cache lines, odd so no piece is
/// aligned by accident.
const LEN: u32 = 5000;

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// What registration falls back to when the host arena is full.
    Private,
    Arena,
}

const KINDS: [(Kind, Kind); 4] = [
    (Kind::Private, Kind::Private),
    (Kind::Private, Kind::Arena),
    (Kind::Arena, Kind::Private),
    (Kind::Arena, Kind::Arena),
];

struct Side {
    pd: ProtectionDomain,
    cq: Arc<CompletionQueue>,
    qp: Arc<QueuePair>,
}

/// Two connected QPs on one host, whose regions come from `arena`.
struct Host {
    _net: Arc<VerbsNetwork>,
    arena: Arc<SharedArena>,
    a: Side,
    b: Side,
}

fn host() -> Host {
    let net = VerbsNetwork::new();
    let side = |ip| {
        let dev = net.create_device(OverlayIp(ip));
        let pd = dev.alloc_pd();
        let cq = dev.create_cq(64);
        let qp = pd.create_qp(&cq, &cq, 16, 16).unwrap();
        Side { pd, cq, qp }
    };
    let (a, b) = (side(1), side(2));
    a.qp.connect(b.qp.endpoint()).unwrap();
    b.qp.connect(a.qp.endpoint()).unwrap();
    Host {
        _net: net,
        arena: SharedArena::new(1 << 20),
        a,
        b,
    }
}

impl Host {
    fn region(&self, side: &Side, kind: Kind) -> Arc<MemoryRegion> {
        let mr = match kind {
            Kind::Private => side.pd.register(REGION, AccessFlags::all()),
            Kind::Arena => {
                let block = self.arena.alloc(REGION).unwrap();
                (side.pd).register_arena(self.arena.clone(), block, AccessFlags::all())
            }
        }
        .unwrap();
        assert_eq!(mr.is_arena_backed(), matches!(kind, Kind::Arena));
        mr
    }
}

fn pattern(seed: u8, len: u32) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37) ^ seed)
        .collect()
}

fn read(mr: &MemoryRegion, off: u64, len: u32) -> Vec<u8> {
    let mut out = vec![0u8; len as usize];
    mr.read(off, &mut out).unwrap();
    out
}

fn wc(cq: &CompletionQueue) -> WorkCompletion {
    cq.poll_one().expect("a completion")
}

fn ok(cq: &CompletionQueue, wr_id: u64, opcode: WcOpcode, byte_len: u32) -> WorkCompletion {
    let wc = wc(cq);
    assert_eq!(
        (wc.wr_id, wc.status, wc.opcode, wc.byte_len),
        (wr_id, WcStatus::Success, opcode, byte_len as u64),
        "{wc:?}"
    );
    wc
}

#[test]
fn every_op_lands_the_same_across_storage_kinds() {
    for (from, to) in KINDS {
        let case = format!("{from:?} -> {to:?}");
        let h = host();
        // Bytes move from a region of kind `from` to one of kind `to`: the
        // requester's to the responder's, but the other way for a READ.
        let (src_a, dst_b) = (h.region(&h.a, from), h.region(&h.b, to));
        let (src_b, dst_a) = (h.region(&h.b, from), h.region(&h.a, to));
        let data = pattern(1, LEN);
        src_a.write(100, &data).unwrap();
        src_b.write(100, &data).unwrap();

        let at = |mr: &MemoryRegion, off: u64| mr.addr() + off;
        h.a.qp
            .post_send(SendWr::write(
                1,
                src_a.sge(100, LEN),
                at(&dst_b, 0),
                dst_b.rkey(),
            ))
            .unwrap();
        ok(&h.a.cq, 1, WcOpcode::RdmaWrite, LEN);
        assert_eq!(read(&dst_b, 0, LEN), data, "{case}: WRITE");

        h.b.qp.post_recv(RecvWr::empty(20)).unwrap();
        let wr = SendWr::write_with_imm(2, src_a.sge(100, LEN), at(&dst_b, 6000), dst_b.rkey(), 9);
        h.a.qp.post_send(wr).unwrap();
        ok(&h.a.cq, 2, WcOpcode::RdmaWrite, LEN);
        let note = ok(&h.b.cq, 20, WcOpcode::RecvRdmaWithImm, LEN);
        assert_eq!(note.imm, Some(9), "{case}");
        assert_eq!(read(&dst_b, 6000, LEN), data, "{case}: WRITE_WITH_IMM");

        let wr = SendWr::read(3, dst_a.sge(200, LEN), at(&src_b, 100), src_b.rkey());
        h.a.qp.post_send(wr).unwrap();
        ok(&h.a.cq, 3, WcOpcode::RdmaRead, LEN);
        assert_eq!(read(&dst_a, 200, LEN), data, "{case}: READ");

        h.b.qp
            .post_recv(RecvWr::new(21, dst_b.sge(11_000, LEN)))
            .unwrap();
        h.a.qp
            .post_send(SendWr::send(4, src_a.sge(100, LEN)))
            .unwrap();
        ok(&h.a.cq, 4, WcOpcode::Send, LEN);
        ok(&h.b.cq, 21, WcOpcode::Recv, LEN);
        assert_eq!(read(&dst_b, 11_000, LEN), data, "{case}: SEND");

        // Parked for a receive: the sender's buffer changes before the
        // receive is posted, and the parked copy is what lands.
        h.a.qp
            .post_send(SendWr::send(5, src_a.sge(100, LEN)))
            .unwrap();
        assert!(
            h.a.cq.poll_one().is_none(),
            "{case}: completes when matched"
        );
        src_a.write(100, &pattern(2, LEN)).unwrap();
        h.b.qp
            .post_recv(RecvWr::new(22, dst_b.sge(17_000, LEN)))
            .unwrap();
        ok(&h.b.cq, 22, WcOpcode::Recv, LEN);
        ok(&h.a.cq, 5, WcOpcode::Send, LEN);
        assert_eq!(read(&dst_b, 17_000, LEN), data, "{case}: parked SEND");
    }
}

#[test]
fn a_write_within_one_region_copies_once_under_one_lock() {
    for kind in [Kind::Private, Kind::Arena] {
        let h = host();
        // A loopback pair on one device: the target's rkey names the
        // source's own region.
        let qp = (h.a.pd).create_qp(&h.a.cq, &h.a.cq, 16, 16).unwrap();
        let peer = (h.a.pd).create_qp(&h.a.cq, &h.a.cq, 16, 16).unwrap();
        qp.connect(peer.endpoint()).unwrap();
        peer.connect(qp.endpoint()).unwrap();
        let mr = h.region(&h.a, kind);
        let data = pattern(3, LEN);
        mr.write(0, &data).unwrap();
        let wr = SendWr::write(1, mr.sge(0, LEN), mr.addr() + 8000, mr.rkey());
        qp.post_send(wr).unwrap();
        ok(&h.a.cq, 1, WcOpcode::RdmaWrite, LEN);
        assert_eq!(read(&mr, 8000, LEN), data, "{kind:?}");
        assert_eq!(read(&mr, 0, LEN), data, "{kind:?}: the source is intact");
    }
}

#[test]
fn two_sge_lists_gather_and_scatter_across_regions() {
    let h = host();
    let (p_a, x_a) = (h.region(&h.a, Kind::Private), h.region(&h.a, Kind::Arena));
    let (p_b, x_b) = (h.region(&h.b, Kind::Private), h.region(&h.b, Kind::Arena));
    let (head, tail) = (pattern(4, 3000), pattern(5, 5000));
    p_a.write(10, &head).unwrap();
    x_a.write(20, &tail).unwrap();
    let whole = [head.clone(), tail.clone()].concat();
    let gather = vec![p_a.sge(10, 3000), x_a.sge(20, 5000)];

    // A two-SGE gather into one target.
    let mut wr = SendWr::write(1, p_a.sge(0, 1), x_b.addr() + 64, x_b.rkey());
    wr.sge = gather.clone();
    h.a.qp.post_send(wr).unwrap();
    ok(&h.a.cq, 1, WcOpcode::RdmaWrite, 8000);
    assert_eq!(read(&x_b, 64, 8000), whole);

    // A two-SGE gather into a two-SGE scatter that splits it elsewhere,
    // with room to spare: 3000 + 5000 bytes land as 4000 + 4000.
    let recv = RecvWr {
        wr_id: 20,
        sge: vec![x_b.sge(9000, 4000), p_b.sge(500, 6000)],
    };
    h.b.qp.post_recv(recv).unwrap();
    let mut wr = SendWr::send(2, p_a.sge(0, 1));
    wr.sge = gather;
    h.a.qp.post_send(wr).unwrap();
    ok(&h.a.cq, 2, WcOpcode::Send, 8000);
    ok(&h.b.cq, 20, WcOpcode::Recv, 8000);
    assert_eq!(read(&x_b, 9000, 4000), whole[..4000]);
    assert_eq!(read(&p_b, 500, 4000), whole[4000..]);

    // A READ scattered across two SGEs.
    let mut wr = SendWr::read(3, p_a.sge(0, 1), x_b.addr() + 64, x_b.rkey());
    wr.sge = vec![x_a.sge(10_000, 2500), p_a.sge(4000, 5500)];
    h.a.qp.post_send(wr).unwrap();
    ok(&h.a.cq, 3, WcOpcode::RdmaRead, 8000);
    assert_eq!(read(&x_a, 10_000, 2500), whole[..2500]);
    assert_eq!(read(&p_a, 4000, 5500), whole[2500..]);
}

#[test]
fn a_refused_write_lands_nothing() {
    for kind in [Kind::Private, Kind::Arena] {
        let (bad_rkey, out_of_bounds) = (0, REGION - 100);
        for (case, rkey_ok, off) in [
            ("bad rkey", false, 0),
            ("out of bounds", true, out_of_bounds),
        ] {
            let h = host();
            let (src, dst) = (h.region(&h.a, kind), h.region(&h.b, kind));
            src.write(0, &pattern(6, LEN)).unwrap();
            let before = read(&dst, 0, REGION as u32);
            let rkey = if rkey_ok { dst.rkey() } else { bad_rkey };
            let wr = SendWr::write(1, src.sge(0, LEN), dst.addr() + off, rkey);
            h.a.qp.post_send(wr).unwrap();
            let wc = wc(&h.a.cq);
            assert_eq!(
                (wc.status, wc.byte_len),
                (WcStatus::RemoteAccessError, 0),
                "{kind:?}: {case}"
            );
            assert_eq!(read(&dst, 0, REGION as u32), before, "{kind:?}: {case}");
        }
    }
}

#[test]
fn the_local_side_is_vetted_before_the_remote() {
    let h = host();
    let src = h.region(&h.a, Kind::Arena);
    // A bad lkey and a bad rkey: the post fails, and nothing reaches the
    // responder, which would otherwise refuse this requester.
    let bad = Sge {
        addr: src.addr(),
        len: LEN,
        lkey: 0,
    };
    assert!(h.a.qp.post_send(SendWr::write(1, bad, 0, 0)).is_err());
    let past_end = Sge {
        addr: src.addr() + REGION - 10,
        len: LEN,
        lkey: src.lkey(),
    };
    assert!(h.a.qp.post_send(SendWr::write(2, past_end, 0, 0)).is_err());
    assert!(h.a.cq.poll_one().is_none());
    let dst = h.region(&h.b, Kind::Arena);
    let wr = SendWr::write(3, src.sge(0, LEN), dst.addr(), dst.rkey());
    h.a.qp.post_send(wr).unwrap();
    ok(&h.a.cq, 3, WcOpcode::RdmaWrite, LEN);
}

/// Two threads copy 64 KiB between regions A and B in opposite
/// directions while a third rehomes both between two arenas: each copy
/// holds both regions' storage, then the arenas' bytes, so a lock order
/// that differs by direction, or one a rehome's can interleave with,
/// deadlocks here now and then and fails the deadline.
#[test]
fn opposite_copies_and_rehomes_do_not_deadlock() {
    const BIG: u32 = 64 * 1024;
    const ROUNDS: u64 = 10_000;
    let h = host();
    let other = SharedArena::new(1 << 20);
    let region = |side: &Side| {
        let block = h.arena.alloc(2 * BIG as u64).unwrap();
        (side.pd)
            .register_arena(h.arena.clone(), block, AccessFlags::all())
            .unwrap()
    };
    let (mr_a, mr_b) = (region(&h.a), region(&h.b));
    let (from_a, from_b) = (pattern(7, BIG), pattern(8, BIG));
    mr_a.write(0, &from_a).unwrap();
    mr_b.write(BIG as u64, &from_b).unwrap();

    let start = Arc::new(Barrier::new(3));
    let copying = Arc::new(AtomicUsize::new(2));
    let mut threads = Vec::new();
    // A → B lands in B's first half; B → A lands in A's second half.
    for (side, src, dst, off) in [(&h.a, &mr_a, &mr_b, 0), (&h.b, &mr_b, &mr_a, BIG as u64)] {
        let (qp, cq) = (Arc::clone(&side.qp), Arc::clone(&side.cq));
        let (src, dst, start) = (Arc::clone(src), Arc::clone(dst), Arc::clone(&start));
        let copying = Arc::clone(&copying);
        threads.push(std::thread::spawn(move || {
            start.wait();
            for i in 0..ROUNDS {
                let wr = SendWr::write(i, src.sge(off, BIG), dst.addr() + off, dst.rkey());
                qp.post_send(wr).unwrap();
                ok(&cq, i, WcOpcode::RdmaWrite, BIG);
            }
            copying.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    let arenas = [Arc::clone(&other), Arc::clone(&h.arena)];
    let regions = [Arc::clone(&mr_a), Arc::clone(&mr_b)];
    threads.push(std::thread::spawn(move || {
        start.wait();
        // Until both copiers are done, so every round can meet a rehome.
        for i in (0..).take_while(|_| copying.load(Ordering::SeqCst) > 0) {
            assert!(regions[i % 2].rehome(&arenas[(i / 2) % 2]));
        }
    }));
    let deadline = Instant::now() + Duration::from_secs(60);
    while threads.iter().any(|t| !t.is_finished()) {
        // A deadlocked thread cannot be joined: fail instead of hanging.
        assert!(Instant::now() < deadline, "copies and rehomes deadlocked");
        std::thread::sleep(Duration::from_millis(10));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(read(&mr_b, 0, BIG), from_a);
    assert_eq!(read(&mr_a, BIG as u64, BIG), from_b);
}

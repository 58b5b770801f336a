//! Core-library tests: the paper's §5 flows end to end, on both data
//! planes, plus path selection, failure handling and migration.

use crate::cluster::FreeFlowCluster;
use crate::migrate::{reconnect, ContainerImage};
use crate::qp::{FfPath, RESEND_INTERVAL};
use crate::Container;
use freeflow_agent::proto::{RelayMsg, RelayPayload, WireEp};
use freeflow_orchestrator::PolicyConfig;
use freeflow_telemetry::Event;
use freeflow_types::{HostCaps, TenantId, TransportKind};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use freeflow_verbs::{QpState, VerbsError, WcStatus};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(10);

fn tenant() -> TenantId {
    TenantId::new(1)
}

/// Two containers, connected QP pair + MRs + CQs, ready for traffic.
struct Pair {
    a: Container,
    b: Container,
    mr_a: Arc<freeflow_verbs::MemoryRegion>,
    mr_b: Arc<freeflow_verbs::MemoryRegion>,
    cq_a: Arc<freeflow_verbs::CompletionQueue>,
    cq_b: Arc<freeflow_verbs::CompletionQueue>,
    qp_a: Arc<crate::FfQp>,
    qp_b: Arc<crate::FfQp>,
}

fn connected_pair(cluster: &FreeFlowCluster, same_host: bool) -> Pair {
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = if same_host {
        h0
    } else {
        cluster.add_host(HostCaps::paper_testbed())
    };
    let a = cluster.launch(tenant(), h0).unwrap();
    let b = cluster.launch(tenant(), h1).unwrap();
    let mr_a = a.register(1 << 16, AccessFlags::all()).unwrap();
    let mr_b = b.register(1 << 16, AccessFlags::all()).unwrap();
    let cq_a = a.create_cq(128);
    let cq_b = b.create_cq(128);
    let qp_a = a.create_qp(&cq_a, &cq_a, 64, 64).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 64, 64).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    }
}

#[test]
fn intra_host_path_is_shared_memory() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, true);
    assert!(matches!(p.qp_a.path(), FfPath::Local { .. }));
    assert_eq!(p.qp_a.path().transport(), Some(TransportKind::SharedMemory));
}

#[test]
fn inter_host_path_is_rdma_on_testbed_nics() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    match p.qp_a.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::Rdma),
        other => panic!("expected remote path, got {other:?}"),
    }
}

#[test]
fn send_recv_intra_host() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, true);
    p.qp_b
        .post_recv(RecvWr::new(1, p.mr_b.sge(0, 1 << 16)))
        .unwrap();
    p.mr_a.write(0, b"shm send").unwrap();
    p.qp_a.post_send(SendWr::send(2, p.mr_a.sge(0, 8))).unwrap();
    let wc = p.cq_b.wait_one(T).expect("recv completion");
    assert!(wc.status.is_ok());
    assert_eq!(wc.byte_len, 8);
    let mut out = [0u8; 8];
    p.mr_b.read(0, &mut out).unwrap();
    assert_eq!(&out, b"shm send");
    assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
}

#[test]
fn send_recv_inter_host() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.qp_b
        .post_recv(RecvWr::new(1, p.mr_b.sge(0, 1 << 16)))
        .unwrap();
    p.mr_a.write(0, b"wire send").unwrap();
    p.qp_a.post_send(SendWr::send(2, p.mr_a.sge(0, 9))).unwrap();
    let wc = p.cq_b.wait_one(T).expect("recv completion");
    assert!(wc.status.is_ok(), "{:?}", wc.status);
    assert_eq!(wc.byte_len, 9);
    let mut out = [0u8; 9];
    p.mr_b.read(0, &mut out).unwrap();
    assert_eq!(&out, b"wire send");
    let swc = p.cq_a.wait_one(T).expect("send completion");
    assert!(swc.status.is_ok());
}

#[test]
fn paper_fig5_rdma_write_intra_host_via_shm() {
    // Paper §5: intra-host WRITE becomes a shared-memory operation; the
    // receiver's CPU sees nothing until it looks at its buffer.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, true);
    assert!(
        p.mr_b.is_arena_backed(),
        "intra-host MRs live in the host segment"
    );
    p.mr_a.write(0, b"write via shm").unwrap();
    p.qp_a
        .post_send(SendWr::write(
            7,
            p.mr_a.sge(0, 13),
            p.mr_b.addr() + 64,
            p.mr_b.rkey(),
        ))
        .unwrap();
    let wc = p.cq_a.wait_one(T).expect("write completion");
    assert!(wc.status.is_ok());
    assert!(
        p.cq_b.poll_one().is_none(),
        "one-sided: no receiver completion"
    );
    let mut out = [0u8; 13];
    p.mr_b.read(64, &mut out).unwrap();
    assert_eq!(&out, b"write via shm");
}

#[test]
fn paper_fig4_rdma_write_inter_host_via_relay() {
    // Paper §5: inter-host WRITE — agent relays, remote side places the
    // data by rkey, sender completes.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let payload = vec![0x5A; 16 << 10]; // 16 KiB: exercises zero-copy staging
    p.mr_a.write(0, &payload).unwrap();
    p.qp_a
        .post_send(SendWr::write(
            9,
            p.mr_a.sge(0, payload.len() as u32),
            p.mr_b.addr(),
            p.mr_b.rkey(),
        ))
        .unwrap();
    let wc = p.cq_a.wait_one(T).expect("write completion");
    assert!(wc.status.is_ok(), "{:?}", wc.status);
    assert_eq!(wc.byte_len, payload.len() as u64);
    let mut out = vec![0u8; payload.len()];
    p.mr_b.read(0, &mut out).unwrap();
    assert_eq!(out, payload);
}

#[test]
fn write_with_imm_notifies_across_hosts() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.qp_b.post_recv(RecvWr::empty(55)).unwrap();
    p.mr_a.write(0, b"imm!").unwrap();
    p.qp_a
        .post_send(SendWr::write_with_imm(
            3,
            p.mr_a.sge(0, 4),
            p.mr_b.addr(),
            p.mr_b.rkey(),
            0xFACE,
        ))
        .unwrap();
    let wc = p.cq_b.wait_one(T).expect("imm notification");
    assert_eq!(wc.wr_id, 55);
    assert_eq!(wc.imm, Some(0xFACE));
    assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
}

#[test]
fn rdma_read_inter_host() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.mr_b.write(128, b"pull across hosts").unwrap();
    p.qp_a
        .post_send(SendWr::read(
            4,
            p.mr_a.sge(0, 17),
            p.mr_b.addr() + 128,
            p.mr_b.rkey(),
        ))
        .unwrap();
    let wc = p.cq_a.wait_one(T).expect("read completion");
    assert!(wc.status.is_ok(), "{:?}", wc.status);
    let mut out = [0u8; 17];
    p.mr_a.read(0, &mut out).unwrap();
    assert_eq!(&out, b"pull across hosts");
}

#[test]
fn rnr_parking_inter_host() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.mr_a.write(0, b"early bird").unwrap();
    let agent_b = cluster.agent_of(p.b.host()).unwrap();
    let relayed_in = || agent_b.stats().relayed_in.load(Ordering::Relaxed);
    let before = relayed_in();
    p.qp_a
        .post_send(SendWr::send(1, p.mr_a.sge(0, 10)))
        .unwrap();
    // The frame reached B's host with no receive posted: parked, not
    // completed.
    wait_until("frame relayed into host B", || relayed_in() > before);
    assert!(p.cq_b.poll_one().is_none());
    p.qp_b.post_recv(RecvWr::new(2, p.mr_b.sge(0, 64))).unwrap();
    assert!(p.cq_b.wait_one(T).unwrap().status.is_ok());
    assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
}

#[test]
fn bad_rkey_inter_host_fails_with_remote_access_error() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.mr_a.write(0, b"x").unwrap();
    p.qp_a
        .post_send(SendWr::write(1, p.mr_a.sge(0, 1), p.mr_b.addr(), 0xDEAD))
        .unwrap();
    let wc = p.cq_a.wait_one(T).expect("nack completion");
    assert_eq!(wc.status, WcStatus::RemoteAccessError);
    assert_eq!(p.qp_a.state(), QpState::Error);
}

/// A chain `[good, bad lkey, good]` of WRITEs: the post fails at once with
/// `BadKey`, the first WRITE completes, nothing after it runs, and the
/// refused WRs hold no send-queue slot.
fn bad_lkey_mid_chain_fails_synchronously(same_host: bool) {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, same_host);
    p.mr_a.write(0, b"first").unwrap();
    p.mr_a.write(8, b"third").unwrap();
    let write = |id, off| SendWr::write(id, p.mr_a.sge(off, 5), p.mr_b.addr() + off, p.mr_b.rkey());
    let mut bad = write(2, 0);
    bad.sge[0].lkey = 0xBAD;
    let err = p
        .qp_a
        .post_send_batch(vec![write(1, 0), bad, write(3, 8)])
        .unwrap_err();
    assert!(matches!(err, VerbsError::BadKey { key: 0xBAD }), "{err}");
    let wc = p.cq_a.wait_one(T).expect("the first WR completes");
    assert_eq!((wc.wr_id, wc.status), (1, WcStatus::Success));
    // A chain as deep as the send queue (64) is admitted whole.
    let full: Vec<SendWr> = (10..74).map(|id| write(id, 16)).collect();
    p.qp_a.post_send_batch(full).unwrap();
    for _ in 0..64 {
        let wc = p.cq_a.wait_one(T).expect("full-depth chain completes");
        assert!(wc.status.is_ok() && wc.wr_id >= 10, "{wc:?}");
    }
    assert!(
        p.cq_a.poll_one().is_none(),
        "the WRITE after the bad one never ran"
    );
    let mut landed = [0u8; 13];
    p.mr_b.read(0, &mut landed).unwrap();
    assert_eq!(&landed[..5], b"first");
    assert_eq!(&landed[8..], &[0; 5]);
    assert_eq!(p.qp_a.state(), QpState::Rts);
}

#[test]
fn bad_lkey_mid_chain_fails_synchronously_on_the_local_path() {
    bad_lkey_mid_chain_fails_synchronously(true);
}

#[test]
fn bad_lkey_mid_chain_fails_synchronously_on_the_remote_path() {
    bad_lkey_mid_chain_fails_synchronously(false);
}

#[test]
fn bad_lkey_mid_chain_fails_synchronously_while_the_binding_drains() {
    // A chain posted mid-rebind parks, vetted as a bound path vets it:
    // the post fails at once with `BadKey`, the WR before the bad one
    // parks and runs after the rebind, and nothing after it runs.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.mr_a.write(0, b"first").unwrap();
    p.mr_a.write(8, b"third").unwrap();
    let write = |id, off| SendWr::write(id, p.mr_a.sge(off, 5), p.mr_b.addr() + off, p.mr_b.rkey());
    let mut bad = write(2, 0);
    bad.sge[0].lkey = 0xBAD;
    assert!(p.qp_a.freeze_for_migration());
    let err = p
        .qp_a
        .post_send_batch(vec![write(1, 0), bad, write(3, 8)])
        .unwrap_err();
    assert!(matches!(err, VerbsError::BadKey { key: 0xBAD }), "{err}");
    assert_eq!(p.qp_a.capture_record().parked_sends, 1);
    p.qp_a.thaw_migration();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    std::thread::sleep(Duration::from_millis(20));
    assert!(p.cq_a.poll_one().is_none(), "a refused WR ran");
    assert_eq!(read_b(&p, 0, 13)[..5], *b"first");
    assert_eq!(read_b(&p, 8, 5), [0; 5]);
    assert_eq!(p.qp_b.accepted(), 1);
}

#[test]
fn arena_descriptor_outside_the_arena_delivers_nothing() {
    // A co-located container hands its agent a SEND whose arena
    // descriptor lies outside the host arena. The receiving library must
    // refuse it (the sender gets REMOTE_ACCESS), not complete a receive
    // with zeros; the same sender's next, well-formed SEND — behind it on
    // the same ring — is the first thing the receive sees. The QP hears
    // only its connected peer, and the agent still believes a frame's
    // `src`, so the hostile container names the peer's endpoint.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let hostile = cluster.launch(tenant(), p.b.host()).unwrap();
    p.qp_b
        .post_recv(RecvWr::new(1, p.mr_b.sge(0, 1 << 16)))
        .unwrap();
    let (src, dst) = (p.qp_a.endpoint().wire(), p.qp_b.endpoint().wire());
    let send = |wr_id, payload| freeflow_agent::proto::RelayMsg::Send {
        src,
        dst,
        wr_id,
        imm: None,
        payload,
    };
    use freeflow_agent::proto::RelayPayload;
    hostile.lib().send_raw(&[
        send(
            1,
            RelayPayload::Arena {
                offset: 1 << 40,
                len: 64,
            },
        ),
        send(2, RelayPayload::Inline(bytes::Bytes::from_static(b"legit"))),
    ]);
    let wc = p.cq_b.wait_one(T).expect("recv completion");
    assert!(wc.status.is_ok(), "{wc:?}");
    assert_eq!(wc.byte_len, 5, "the refused SEND delivered nothing");
    let mut out = [0u8; 5];
    p.mr_b.read(0, &mut out).unwrap();
    assert_eq!(&out, b"legit");
    assert_eq!(p.qp_b.state(), QpState::Rts);
}

/// Bytes allocated in the arenas of `p`'s two hosts.
fn arenas_allocated(cluster: &FreeFlowCluster, p: &Pair) -> (u64, u64) {
    let allocated = |h| cluster.agent_of(h).unwrap().arena().allocated();
    (allocated(p.a.host()), allocated(p.b.host()))
}

/// `len` bytes that repeat only every 251, told apart by `seed`.
fn pattern_of(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ seed).collect()
}

#[test]
fn relayed_arena_payloads_land_straight_and_free_their_blocks() {
    // Every relayed op of 4096 bytes or more gathers into an arena block
    // on A's host and lands from one on B's (a READ response the other
    // way round). Each lands its bytes, and both hosts' arenas are back
    // at their baselines once it completes: no block is kept or lost.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let base = arenas_allocated(&cluster, &p);
    let settled = |what: &str| assert_eq!(arenas_allocated(&cluster, &p), base, "{what}");
    let (addr_b, rkey_b) = (p.mr_b.addr(), p.mr_b.rkey());

    // A WRITE of a length that is not a multiple of the 64-byte block.
    let data = pattern_of(1, 5000);
    p.mr_a.write(0, &data).unwrap();
    let wr = SendWr::write(1, p.mr_a.sge(0, 5000), addr_b + 100, rkey_b);
    p.qp_a.post_send(wr).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    assert_eq!(read_b(&p, 100, 5000), data);
    settled("a WRITE");

    // A SEND into a receive already posted.
    let data = pattern_of(2, 8192);
    p.mr_a.write(8192, &data).unwrap();
    p.qp_b
        .post_recv(RecvWr::new(20, p.mr_b.sge(8192, 8192)))
        .unwrap();
    p.qp_a
        .post_send(SendWr::send(2, p.mr_a.sge(8192, 8192)))
        .unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(2, WcStatus::Success)]);
    let rwc = p.cq_b.wait_one(T).expect("recv completion");
    assert_eq!(
        (rwc.wr_id, rwc.status, rwc.byte_len),
        (20, WcStatus::Success, 8192)
    );
    assert_eq!(read_b(&p, 8192, 8192), data);
    settled("a SEND into a posted receive");

    // A SEND that parks for a receive keeps its bytes, not its block.
    let data = pattern_of(3, 6000);
    p.mr_a.write(16384, &data).unwrap();
    p.qp_a
        .post_send(SendWr::send(3, p.mr_a.sge(16384, 6000)))
        .unwrap();
    wait_until("the send parked", || p.qp_b.parked_inbound() == 1);
    settled("a SEND parked for a receive");
    p.qp_b
        .post_recv(RecvWr::new(21, p.mr_b.sge(16384, 8192)))
        .unwrap();
    let rwc = p.cq_b.wait_one(T).expect("recv completion");
    assert_eq!((rwc.wr_id, rwc.byte_len), (21, 6000));
    assert_eq!(completions(&p.cq_a, 1), [(3, WcStatus::Success)]);
    assert_eq!(read_b(&p, 16384, 6000), data);
    settled("a parked SEND received");

    // A READ: its response is read into a block on B's host and lands
    // in A's region straight from one on A's.
    let data = pattern_of(4, 12288);
    p.mr_b.write(24576, &data).unwrap();
    let read = |wr_id, sge| SendWr {
        sge,
        ..SendWr::read(wr_id, p.mr_a.sge(0, 1), addr_b + 24576, rkey_b)
    };
    p.qp_a
        .post_send(read(4, vec![p.mr_a.sge(24576, 12288)]))
        .unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(4, WcStatus::Success)]);
    let mut got = vec![0u8; 12288];
    p.mr_a.read(24576, &mut got).unwrap();
    assert_eq!(got, data);
    settled("a READ");

    // Two SGEs each way: a WRITE gathered from two ranges, and a READ
    // that lands in two ranges of one region.
    let (head, tail) = (pattern_of(5, 3000), pattern_of(6, 2000));
    p.mr_a.write(40000, &head).unwrap();
    p.mr_a.write(50000, &tail).unwrap();
    let wr = SendWr {
        sge: vec![p.mr_a.sge(40000, 3000), p.mr_a.sge(50000, 2000)],
        ..SendWr::write(5, p.mr_a.sge(0, 1), addr_b + 40000, rkey_b)
    };
    p.qp_a.post_send(wr).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(5, WcStatus::Success)]);
    assert_eq!(
        read_b(&p, 40000, 5000),
        [head.clone(), tail.clone()].concat()
    );
    settled("a two-SGE WRITE");
    let sge = vec![p.mr_a.sge(60000, 2000), p.mr_a.sge(56000, 3000)];
    p.qp_a.post_send(read(6, sge)).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(6, WcStatus::Success)]);
    let (mut first, mut second) = (vec![0u8; 2000], vec![0u8; 3000]);
    p.mr_a.read(60000, &mut first).unwrap();
    p.mr_a.read(56000, &mut second).unwrap();
    assert_eq!([first, second].concat(), data[..5000]);
    settled("a two-SGE READ");

    // A WRITE refused for a bad rkey, and one refused for an address past
    // B's region: each lands nothing and frees its block.
    for past_the_end in [false, true] {
        let p = connected_pair(&cluster, false);
        let base = arenas_allocated(&cluster, &p);
        let (addr, rkey) = match past_the_end {
            false => (p.mr_b.addr(), p.mr_b.rkey() + 1000),
            true => (p.mr_b.addr() + (1 << 16) - 100, p.mr_b.rkey()),
        };
        p.mr_a.write(0, &pattern_of(7, 4096)).unwrap();
        let wr = SendWr::write(7, p.mr_a.sge(0, 4096), addr, rkey);
        p.qp_a.post_send(wr).unwrap();
        assert_eq!(completions(&p.cq_a, 1), [(7, WcStatus::RemoteAccessError)]);
        assert_eq!(
            arenas_allocated(&cluster, &p),
            base,
            "past the end: {past_the_end}"
        );
        assert_eq!(read_b(&p, 0, 1 << 16), [0u8; 1 << 16], "landed bytes");
    }
}

#[test]
fn a_descriptor_naming_a_block_the_arena_does_not_hold_lands_nothing() {
    // A's RDMA wire is down, so A's WRITE 1 waits, refused at A's agent.
    // A container on B's host writes an op 1 of A's at B whose descriptor
    // names free memory of B's arena, holding bytes of its own. Nothing
    // lands in B's region, and A's op completes REMOTE_ACCESS.
    let cluster = FreeFlowCluster::with_defaults();
    let (p, _rdma) = flapped_pair(&cluster);
    let (h0, h1) = (p.a.host(), p.b.host());
    let n0 = nacked(&cluster, h0);
    p.qp_a.post_send(write_to_b(&p, 1, 0, b"waits")).unwrap();
    wait_until("the post refused", || nacked(&cluster, h0) > n0);
    let arena = Arc::clone(cluster.agent_of(h1).unwrap().arena());
    let free = arena.alloc(4096).unwrap();
    arena.write(free, 0, &pattern_of(8, 4096)).unwrap();
    arena.free(free).unwrap();
    assert!(!arena.holds(free.offset, 4096));
    let base = arena.allocated();
    let hostile = cluster.launch(tenant(), h1).unwrap();
    hostile.lib().send_raw(&[RelayMsg::Write {
        src: p.qp_a.endpoint().wire(),
        dst: p.qp_b.endpoint().wire(),
        wr_id: 1,
        addr: p.mr_b.addr(),
        rkey: p.mr_b.rkey(),
        imm: None,
        payload: RelayPayload::Arena {
            offset: free.offset,
            len: 4096,
        },
    }]);
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::RemoteAccessError)]);
    assert_eq!(
        read_b(&p, 0, 4096),
        [0u8; 4096],
        "the refused op landed bytes"
    );
    assert_eq!(
        arena.allocated(),
        base,
        "a refused descriptor freed a block"
    );
    assert_eq!(p.qp_b.accepted(), 1);
}

/// Record, on the pushing thread, the QP state every non-success
/// completion on `cq` becomes visible under.
fn watch_error_pushes(
    cq: &freeflow_verbs::CompletionQueue,
    qp: &Arc<crate::FfQp>,
) -> Arc<parking_lot::Mutex<Vec<(WcStatus, QpState)>>> {
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (log, qp) = (Arc::clone(&seen), Arc::downgrade(qp));
    cq.observe_pushes(move |wc| {
        if wc.status.is_ok() {
            return;
        }
        if let Some(qp) = qp.upgrade() {
            log.lock().push((wc.status, qp.state()));
        }
    });
    seen
}

#[test]
fn error_completions_become_visible_only_after_the_error_state() {
    // State first, completion second — checked at the instant of the CQ
    // push, so a waiter can never see the CQE while the QP still reports
    // RTS, however the threads are scheduled.
    let fatal = |status, seen: &[(WcStatus, QpState)]| {
        assert!(seen.contains(&(status, QpState::Error)), "{seen:?}");
        assert!(seen.iter().all(|(_, st)| *st == QpState::Error), "{seen:?}");
    };

    // Nack: WRITE with a bad rkey.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let seen = watch_error_pushes(&p.cq_a, &p.qp_a);
    p.qp_a
        .post_send(SendWr::write(1, p.mr_a.sge(0, 1), p.mr_b.addr(), 0xDEAD))
        .unwrap();
    assert_eq!(
        p.cq_a.wait_one(T).unwrap().status,
        WcStatus::RemoteAccessError
    );
    fatal(WcStatus::RemoteAccessError, &seen.lock());

    // ReadResp: READ with a bad rkey.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let seen = watch_error_pushes(&p.cq_a, &p.qp_a);
    p.qp_a
        .post_send(SendWr::read(2, p.mr_a.sge(0, 8), p.mr_b.addr(), 0xDEAD))
        .unwrap();
    assert_eq!(
        p.cq_a.wait_one(T).unwrap().status,
        WcStatus::RemoteAccessError
    );
    fatal(WcStatus::RemoteAccessError, &seen.lock());

    // Receive side: a SEND larger than the posted receive.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let seen = watch_error_pushes(&p.cq_b, &p.qp_b);
    p.qp_b.post_recv(RecvWr::new(3, p.mr_b.sge(0, 4))).unwrap();
    p.qp_a
        .post_send(SendWr::send(4, p.mr_a.sge(0, 64)))
        .unwrap();
    assert_eq!(
        p.cq_b.wait_one(T).unwrap().status,
        WcStatus::LocalLengthError
    );
    fatal(WcStatus::LocalLengthError, &seen.lock());
}

#[test]
fn dropped_qps_leave_the_dispatch_map() {
    // The pump walks this map; an entry per QP ever created made relayed
    // traffic slower with every connect/drop cycle.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    assert_eq!(p.a.lib().qp_entries(), 1);
    for _ in 0..10_000 {
        let qp = p.a.create_qp(&p.cq_a, &p.cq_a, 4, 4).unwrap();
        drop(qp);
    }
    assert_eq!(p.a.lib().qp_entries(), 1, "only the live QP remains");
    let kept = p.a.create_qp(&p.cq_a, &p.cq_a, 4, 4).unwrap();
    assert_eq!(p.a.lib().qp_entries(), 2);
    assert_eq!(p.a.lib().live_qps().len(), 2);
    drop(kept);
    // The survivor still dispatches.
    p.qp_b.post_recv(RecvWr::new(1, p.mr_b.sge(0, 64))).unwrap();
    p.qp_a.post_send(SendWr::send(2, p.mr_a.sge(0, 8))).unwrap();
    assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
}

/// Spin (yielding) until `cond` holds; panics after [`T`].
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + T;
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn parked_agents_wake_for_shutdown_and_for_a_migrated_container() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let h2 = cluster.add_host(HostCaps::paper_testbed());
    let agents: Vec<_> = (0..3)
        .map(|h| cluster.agent_of(freeflow_types::HostId::new(h)).unwrap())
        .collect();
    // Everything idle: every pump arms its bell and parks.
    for agent in &agents {
        wait_until("idle agent parks", || agent.bell_stats().waits >= 1);
    }
    // Migration detaches the container's rings and attaches fresh ones on
    // the target host; those must ring the *target* agent's bell, or the
    // first frame would sit until a park timed out.
    let Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    } = p;
    let started = std::time::Instant::now();
    let b = cluster.migrate(b, h2).unwrap();
    assert_eq!(b.host(), h2);
    // The peer still rides its relay path (stale-ride contract); the
    // migrated side answers through its new agent.
    qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 64))).unwrap();
    qp_a.post_send(SendWr::send(2, mr_a.sge(0, 8))).unwrap();
    assert!(cq_b.wait_one(T).unwrap().status.is_ok());
    assert!(cq_a.wait_one(T).unwrap().status.is_ok());
    drop((qp_a, qp_b, a, b));
    drop(cluster); // stops and joins all three pumps
    let elapsed = started.elapsed();
    for agent in &agents {
        assert_eq!(Arc::strong_count(agent), 1, "pump thread joined");
        let bell = agent.bell_stats();
        assert_eq!(
            bell.timeouts, 0,
            "no park ran into a deadline: every wake was a ring ({bell:?}, {elapsed:?})"
        );
        assert_eq!(bell.waits, bell.wakes);
    }
    assert!(
        elapsed < Duration::from_secs(1),
        "migrate + shutdown took {elapsed:?}: a pump slept through a ring"
    );
}

#[test]
fn migrate_rehomes_without_waiting_out_a_library_deadline() {
    // The old library pump ends on a ring — the detach drops its ring's
    // sender, rehome drops the pump — never by sitting out a deadline:
    // an idle library parks with none, so no park of the old pump may end
    // in a timeout across a move. The bell is the library's for its whole
    // life, so the new pump parks on it too: one park at most is open.
    let parked = |s: freeflow_types::DoorbellStats| s.waits.saturating_sub(s.wakes + s.timeouts);
    let cluster = FreeFlowCluster::with_defaults();
    let hosts = [
        cluster.add_host(HostCaps::paper_testbed()),
        cluster.add_host(HostCaps::paper_testbed()),
    ];
    let mut c = cluster.launch(tenant(), hosts[0]).unwrap();
    for round in 1..=5 {
        let bell = c.lib().pump_bell();
        wait_until("idle library parks", || parked(bell.stats()) == 1);
        let before = bell.stats();
        c = cluster.migrate(c, hosts[round % 2]).unwrap();
        assert!(
            Arc::ptr_eq(&bell, &c.lib().pump_bell()),
            "one bell across moves"
        );
        let after = bell.stats();
        assert!(parked(after) <= 1, "old pump gone: {after:?}");
        assert_eq!(after.timeouts, before.timeouts, "round {round}: {after:?}");
    }
}

#[test]
fn an_idle_library_pump_parks_without_a_deadline() {
    // Bound QPs with nothing in flight leave the pump no deadline: the
    // control feed rings it, so it does not wake to poll.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let bells = [p.a.lib().pump_bell(), p.b.lib().pump_bell()];
    for bell in &bells {
        wait_until("idle library parks", || bell.stats().waits >= 1);
    }
    let before = bells.each_ref().map(|b| b.stats());
    // The idle stretch under measurement (not a wait for progress).
    std::thread::sleep(Duration::from_millis(200));
    for (bell, before) in bells.iter().zip(before) {
        let after = bell.stats();
        assert!(
            after.timeouts - before.timeouts <= 1,
            "an idle library wakes for no deadline: {before:?} -> {after:?}"
        );
    }
}

#[test]
fn a_published_path_update_rings_the_library_pump() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let c = cluster.launch(tenant(), h0).unwrap();
    let bell = c.lib().pump_bell();
    wait_until("idle library parks", || bell.stats().waits >= 1);
    let rings = bell.current();
    cluster.orchestrator().mark_nic_down(h1).unwrap();
    cluster.orchestrator().mark_nic_up(h1).unwrap();
    // HostHealthChanged twice, then PathUpdated on the recovery.
    assert!(bell.current() >= rings + 3, "{:?}", bell.stats());
}

/// Parks, wakes and timeouts of a library waiter over `bells`: a wait
/// counts on the first bell it hears, its CQ's.
fn waiter_parks(bells: &[&freeflow_types::Doorbell]) -> (u64, u64, u64) {
    bells
        .iter()
        .map(|b| b.stats())
        .fold((0, 0, 0), |(w, k, t), s| {
            (w + s.waits, k + s.wakes, t + s.timeouts)
        })
}

#[test]
fn library_wait_hears_a_completion_another_thread_pushes() {
    // A library `wait_one` drains the agent ring itself and parks on its
    // CQ's bell and the agent ring's at once: a completion that a
    // shared-memory peer pushes from its own thread ends the park by a
    // wake, between relayed operations the same waiter drains.
    const OPS: u64 = 1_000;
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let [a, b, c] = [h0, h0, h1].map(|h| cluster.launch(tenant(), h).unwrap());
    let [mr_a, mr_b, mr_c] = [&a, &b, &c].map(|x| x.register(1 << 12, AccessFlags::all()).unwrap());
    let [cq, cq_b, cq_c] = [&a, &b, &c].map(|x| x.create_cq(256));
    let connect = |x: &Container, x_cq, y: &Container, y_cq| {
        let qx = x.create_qp(x_cq, x_cq, 64, 64).unwrap();
        let qy = y.create_qp(y_cq, y_cq, 64, 64).unwrap();
        qx.connect(qy.endpoint()).unwrap();
        qy.connect(qx.endpoint()).unwrap();
        (qx, qy)
    };
    let (qp_ac, _qp_ca) = connect(&a, &cq, &c, &cq_c);
    let (qp_ab, qp_ba) = connect(&a, &cq, &b, &cq_b);
    let lib = a.lib().handle();
    let bells = [&**cq.doorbell(), lib.inbound_bell()];
    let (go, went) = std::sync::mpsc::channel::<u64>();
    std::thread::scope(|s| {
        let peer = s.spawn(move || {
            for (i, parks) in went.into_iter().enumerate() {
                wait_until("the library waiter parks", || {
                    waiter_parks(&bells).0 > parks
                });
                qp_ba
                    .post_send(SendWr::send(i as u64, mr_b.sge(0, 8)))
                    .unwrap();
                assert!(cq_b.wait_one(T).unwrap().status.is_ok());
            }
        });
        for i in 0..OPS {
            let write = SendWr::write(i, mr_a.sge(0, 8), mr_c.addr(), mr_c.rkey());
            qp_ac.post_send(write).unwrap();
            let wc = cq.wait_one(T).expect("relayed write completion");
            assert_eq!((wc.wr_id, wc.qp_num), (i, qp_ac.qp_num()));
            assert!(wc.status.is_ok(), "{:?}", wc.status);
            qp_ab.post_recv(RecvWr::new(i, mr_a.sge(64, 64))).unwrap();
            go.send(waiter_parks(&bells).0).unwrap();
            let wc = cq.wait_one(T).expect("the peer's send");
            assert_eq!((wc.wr_id, wc.qp_num), (i, qp_ab.qp_num()));
        }
        drop(go);
        peer.join().unwrap();
    });
    let (waits, wakes, timeouts) = waiter_parks(&bells);
    assert_eq!(
        timeouts, 0,
        "every park ended by a ring: {waits} waits, {wakes} wakes"
    );
    assert!(
        wakes >= OPS,
        "each peer push woke the waiter: {wakes} wakes"
    );
}

#[test]
fn library_wait_parked_across_migrate_completes_from_the_new_ring() {
    // The library's inbound bell outlives a rehome: the new agent ring
    // rings it, so a `wait_one` parked before the move hears the first
    // frame after it.
    let cluster = FreeFlowCluster::with_defaults();
    let Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    } = connected_pair(&cluster, false);
    let h2 = cluster.add_host(HostCaps::paper_testbed());
    let lib = a.lib().handle();
    let bells = [&**cq_a.doorbell(), lib.inbound_bell()];
    qp_a.post_recv(RecvWr::new(1, mr_a.sge(0, 64))).unwrap();
    let moved = std::thread::scope(|s| {
        let parks = waiter_parks(&bells).0;
        let waiter = s.spawn(|| cq_a.wait_one(T));
        wait_until("the library waiter parks", || {
            waiter_parks(&bells).0 > parks
        });
        let a = cluster.migrate(a, h2).unwrap();
        assert_eq!(a.host(), h2);
        qp_b.post_send(SendWr::send(2, mr_b.sge(0, 8))).unwrap();
        let wc = waiter
            .join()
            .unwrap()
            .expect("the send, through the new ring");
        assert_eq!((wc.wr_id, wc.qp_num), (1, qp_a.qp_num()));
        assert!(wc.status.is_ok(), "{:?}", wc.status);
        assert!(cq_b.wait_one(T).unwrap().status.is_ok());
        a
    });
    let (waits, wakes, timeouts) = waiter_parks(&bells);
    assert_eq!(timeouts, 0, "{waits} waits, {wakes} wakes");
    drop((moved, b));
}

#[test]
fn library_wait_shm_writes_never_wake_the_library_pump() {
    // Shared-memory completions are pushed on the poster's thread, to a
    // waiter or to nobody: neither library's pump wakes for them.
    const WRITES: u64 = 10_000;
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, true);
    let bells = [p.a.lib().pump_bell(), p.b.lib().pump_bell()];
    for bell in &bells {
        wait_until("idle library parks", || bell.stats().waits >= 1);
    }
    let before = bells.each_ref().map(|b| b.stats());
    for slot in 0..32 {
        p.qp_b.post_recv(RecvWr::empty(slot)).unwrap();
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..WRITES {
                let wc = p.cq_b.wait_one(T).expect("write notification");
                assert_eq!(wc.imm, Some(7));
                p.qp_b.post_recv(RecvWr::empty(wc.wr_id)).unwrap();
            }
        });
        for i in 0..WRITES {
            let sge = p.mr_a.sge(0, 8);
            let wr = SendWr::write_with_imm(i, sge, p.mr_b.addr(), p.mr_b.rkey(), 7);
            p.qp_a.post_send(wr).unwrap();
            assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
        }
    });
    for (bell, before) in bells.iter().zip(before) {
        let after = bell.stats();
        assert_eq!(after.wakes, before.wakes, "{before:?} -> {after:?}");
    }
}

#[test]
fn cross_tenant_pair_downgrades_to_overlay_tcp() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(2), h0).unwrap();
    let decision = cluster
        .orchestrator()
        .decide_path_by_ip(a.ip(), b.ip())
        .unwrap();
    assert_eq!(decision.transport(), Some(TransportKind::TcpOverlay));
}

#[test]
fn no_bypass_policy_keeps_verbs_api_working() {
    // Even with kernel bypass off (w/o-trust row), applications keep the
    // same Verbs API; traffic rides the relay tagged overlay-TCP.
    let cluster = FreeFlowCluster::new(PolicyConfig {
        allow_kernel_bypass: false,
        ..Default::default()
    });
    let p = connected_pair(&cluster, true);
    match p.qp_a.path() {
        FfPath::Remote { transport, .. } => {
            assert_eq!(transport, TransportKind::TcpOverlay)
        }
        other => panic!("bypass off must not bind the shm path: {other:?}"),
    }
    p.qp_b.post_recv(RecvWr::new(1, p.mr_b.sge(0, 64))).unwrap();
    p.mr_a.write(0, b"slow but works").unwrap();
    p.qp_a
        .post_send(SendWr::send(2, p.mr_a.sge(0, 14)))
        .unwrap();
    assert!(p.cq_b.wait_one(T).unwrap().status.is_ok());
}

#[test]
fn many_messages_inter_host_in_order() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    const N: u64 = 200;
    let writer = std::thread::spawn({
        let qp_a = Arc::clone(&p.qp_a);
        let mr_a = Arc::clone(&p.mr_a);
        let cq_a = Arc::clone(&p.cq_a);
        move || {
            for i in 0..N {
                mr_a.write(0, &i.to_le_bytes()).unwrap();
                loop {
                    match qp_a.post_send(SendWr::send(i, mr_a.sge(0, 8))) {
                        Ok(()) => break,
                        Err(freeflow_verbs::VerbsError::QueueFull { .. }) => {
                            std::thread::yield_now()
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
                assert!(cq_a.wait_one(T).unwrap().status.is_ok());
            }
        }
    });
    for i in 0..N {
        p.qp_b.post_recv(RecvWr::new(i, p.mr_b.sge(0, 64))).unwrap();
        let wc = p.cq_b.wait_one(T).expect("recv");
        assert!(wc.status.is_ok());
        let mut out = [0u8; 8];
        p.mr_b.read(0, &mut out).unwrap();
        assert_eq!(u64::from_le_bytes(out), i, "in-order delivery");
    }
    writer.join().unwrap();
}

#[test]
fn migration_invalidates_peer_path_and_reconnect_flips_transport() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(tenant(), h0).unwrap();
    let b = cluster.launch(tenant(), h0).unwrap();

    let cq_a = a.create_cq(32);
    let cq_b = b.create_cq(32);
    let qp_a = a.create_qp(&cq_a, &cq_a, 16, 16).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 16, 16).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    assert!(matches!(qp_a.path(), FfPath::Local { .. }));
    assert!(qp_a.path_is_current());

    // b migrates to the other host, keeping id + IP.
    let image_before = ContainerImage::of(&b);
    let b = cluster.migrate(b, h1).unwrap();
    assert_eq!(ContainerImage::of(&b), image_before, "identity preserved");
    assert_eq!(b.host(), h1);

    // a's connection observes staleness (event pump may take a moment).
    let deadline = std::time::Instant::now() + T;
    while qp_a.path_is_current() {
        assert!(std::time::Instant::now() < deadline, "staleness never seen");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Fresh QPs reconnect; the pair that was shared memory is now RDMA.
    drop(qp_b);
    let qp_a2 = a.create_qp(&cq_a, &cq_a, 16, 16).unwrap();
    let qp_b2 = b.create_qp(&cq_b, &cq_b, 16, 16).unwrap();
    reconnect(&qp_a2, &qp_b2).unwrap();
    match qp_a2.path() {
        FfPath::Remote { transport, .. } => assert_eq!(transport, TransportKind::Rdma),
        other => panic!("expected RDMA after migration, got {other:?}"),
    }
    // And traffic flows on the new path.
    let mr_a = a.register(4096, AccessFlags::all()).unwrap();
    let mr_b = b.register(4096, AccessFlags::all()).unwrap();
    qp_b2.post_recv(RecvWr::new(1, mr_b.sge(0, 4096))).unwrap();
    mr_a.write(0, b"post-migration").unwrap();
    qp_a2.post_send(SendWr::send(2, mr_a.sge(0, 14))).unwrap();
    assert!(cq_b.wait_one(T).unwrap().status.is_ok());
}

#[test]
fn stop_releases_ip_for_reuse() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(tenant(), h0).unwrap();
    let ip = a.ip();
    cluster.stop(a).unwrap();
    assert!(!cluster.orchestrator().ip_in_use(ip));
    // Fresh container works fine afterwards.
    let b = cluster.launch(tenant(), h0).unwrap();
    assert!(cluster.orchestrator().ip_in_use(b.ip()));
}

#[test]
fn send_to_stopped_container_fails_not_hangs() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let Pair {
        a: _a,
        b,
        mr_a,
        qp_a,
        cq_a,
        ..
    } = p;
    cluster.stop(b).unwrap();
    mr_a.write(0, b"ghost").unwrap();
    qp_a.post_send(SendWr::send(1, mr_a.sge(0, 5))).unwrap();
    let wc = cq_a.wait_one(T).expect("error completion");
    assert!(!wc.status.is_ok());
}

#[test]
fn unanswered_remote_op_fails_over_at_its_op_deadline() {
    // The peer posts no receive, so the send parks there and is never
    // acked. No agent times it: the QP's op deadline is the only timer.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let timeout = Duration::from_millis(50);
    p.qp_a.set_relay_timeout(timeout);
    let posted = std::time::Instant::now();
    p.qp_a.post_send(SendWr::send(1, p.mr_a.sge(0, 8))).unwrap();
    let wc = p.cq_a.wait_one(T).expect("a completion, not a hang");
    let waited = posted.elapsed();
    assert_eq!((wc.wr_id, wc.status), (1, WcStatus::RetryExcError));
    assert!(
        (timeout..Duration::from_secs(1)).contains(&waited),
        "failed over after {waited:?}"
    );
    use freeflow_telemetry::Event;
    let expired: Vec<Event> = cluster
        .telemetry()
        .events
        .iter()
        .map(|te| te.event)
        .filter(|e| matches!(e, Event::RelayExpired { .. }))
        .collect();
    let host = p.a.host().raw();
    assert_eq!(expired, [Event::RelayExpired { host, entries: 1 }]);
}

#[test]
fn three_hosts_mixed_paths_share_one_container() {
    // One "server" container with peers both local and remote — FreeFlow's
    // per-connection (not per-container) path choice.
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let server = cluster.launch(tenant(), h0).unwrap();
    let local_peer = cluster.launch(tenant(), h0).unwrap();
    let remote_peer = cluster.launch(tenant(), h1).unwrap();

    let cq_s = server.create_cq(64);
    let qp_to_local = server.create_qp(&cq_s, &cq_s, 16, 16).unwrap();
    let qp_to_remote = server.create_qp(&cq_s, &cq_s, 16, 16).unwrap();

    let cq_l = local_peer.create_cq(16);
    let qp_l = local_peer.create_qp(&cq_l, &cq_l, 16, 16).unwrap();
    let cq_r = remote_peer.create_cq(16);
    let qp_r = remote_peer.create_qp(&cq_r, &cq_r, 16, 16).unwrap();

    qp_to_local.connect(qp_l.endpoint()).unwrap();
    qp_l.connect(qp_to_local.endpoint()).unwrap();
    qp_to_remote.connect(qp_r.endpoint()).unwrap();
    qp_r.connect(qp_to_remote.endpoint()).unwrap();

    assert!(matches!(qp_to_local.path(), FfPath::Local { .. }));
    assert!(matches!(qp_to_remote.path(), FfPath::Remote { .. }));

    // Both peers receive from the same server MR.
    let mr_s = server.register(4096, AccessFlags::all()).unwrap();
    let mr_l = local_peer.register(4096, AccessFlags::all()).unwrap();
    let mr_r = remote_peer.register(4096, AccessFlags::all()).unwrap();
    qp_l.post_recv(RecvWr::new(1, mr_l.sge(0, 4096))).unwrap();
    qp_r.post_recv(RecvWr::new(2, mr_r.sge(0, 4096))).unwrap();
    mr_s.write(0, b"fanout").unwrap();
    qp_to_local
        .post_send(SendWr::send(3, mr_s.sge(0, 6)))
        .unwrap();
    qp_to_remote
        .post_send(SendWr::send(4, mr_s.sge(0, 6)))
        .unwrap();
    assert!(cq_l.wait_one(T).unwrap().status.is_ok());
    assert!(cq_r.wait_one(T).unwrap().status.is_ok());
}

#[test]
fn remote_sq_depth_backpressures() {
    // A remote-path QP with a tiny SQ: unacked operations fill it and
    // further posts report QueueFull instead of queueing unboundedly.
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(tenant(), h0).unwrap();
    let b = cluster.launch(tenant(), h1).unwrap();
    let mr_a = a.register(4096, AccessFlags::all()).unwrap();
    let cq_a = a.create_cq(64);
    let cq_b = b.create_cq(64);
    let qp_a = a.create_qp(&cq_a, &cq_a, 2, 8).unwrap(); // sq_depth = 2
    let qp_b = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    // No receives posted at b: SENDs park remotely, acks don't come.
    mr_a.write(0, b"x").unwrap();
    let mut accepted = 0;
    let mut full = false;
    for i in 0..5u64 {
        match qp_a.post_send(SendWr::send(i, mr_a.sge(0, 1))) {
            Ok(()) => accepted += 1,
            Err(freeflow_verbs::VerbsError::QueueFull { which }) => {
                assert_eq!(which, "send");
                full = true;
                break;
            }
            Err(e) => panic!("{e}"),
        }
    }
    assert_eq!(accepted, 2);
    assert!(full);
}

#[test]
fn large_write_uses_arena_staging_and_survives() {
    // A payload far above ZERO_COPY_THRESHOLD exercises sender-side arena
    // staging, agent materialization, and receiver-side re-staging.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let len = 48 * 1024usize;
    let data: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
    p.mr_a.write(0, &data).unwrap();
    p.qp_a
        .post_send(SendWr::write(
            1,
            p.mr_a.sge(0, len as u32),
            p.mr_b.addr(),
            p.mr_b.rkey(),
        ))
        .unwrap();
    assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
    let mut out = vec![0u8; len];
    p.mr_b.read(0, &mut out).unwrap();
    assert_eq!(out, data);
    // Nothing leaked in either host arena: a fresh max-size alloc works.
    // (Registered MRs hold arena blocks, so we can't expect zero usage —
    // but staging blocks must have been freed, which repeated transfers
    // would otherwise exhaust.)
    for _ in 0..50 {
        p.qp_a
            .post_send(SendWr::write(
                2,
                p.mr_a.sge(0, len as u32),
                p.mr_b.addr(),
                p.mr_b.rkey(),
            ))
            .unwrap();
        assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
    }
}

#[test]
fn read_from_mr_without_remote_read_fails_cleanly() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(tenant(), h0).unwrap();
    let b = cluster.launch(tenant(), h1).unwrap();
    let mr_a = a.register(4096, AccessFlags::all()).unwrap();
    // Write-only region at b.
    let mr_b = b
        .register(4096, freeflow_verbs::wr::AccessFlags::remote_write_only())
        .unwrap();
    let cq_a = a.create_cq(16);
    let cq_b = b.create_cq(16);
    let qp_a = a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    qp_a.post_send(SendWr::read(1, mr_a.sge(0, 16), mr_b.addr(), mr_b.rkey()))
        .unwrap();
    let wc = cq_a.wait_one(T).expect("read completion");
    assert_eq!(wc.status, WcStatus::RemoteAccessError);
}

#[test]
fn read_longer_than_the_inline_relay_succeeds_on_both_paths() {
    // The response is past what the inline relay carries: it rides the
    // arena, as a SEND payload does, and the MR bounds the length.
    for same_host in [true, false] {
        let cluster = FreeFlowCluster::with_defaults();
        let p = connected_pair(&cluster, same_host);
        let len = crate::FfQp::MAX_INLINE_RELAY as u32 + 1;
        let mr_a = p.a.register(len.into(), AccessFlags::all()).unwrap();
        let mr_b = p.b.register(len.into(), AccessFlags::all()).unwrap();
        let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        mr_b.write(0, &pattern).unwrap();
        p.qp_a
            .post_send(SendWr::read(1, mr_a.sge(0, len), mr_b.addr(), mr_b.rkey()))
            .unwrap();
        let wc = p.cq_a.wait_one(T).expect("read completion");
        assert_eq!((wc.status, wc.byte_len), (WcStatus::Success, len.into()));
        let mut got = vec![0u8; len as usize];
        mr_a.read(0, &mut got).unwrap();
        assert!(got == pattern, "same_host={same_host}: bytes differ");
    }
}

/// Another QP pair between `p`'s two containers, sharing its CQs.
fn second_pair(p: &Pair) -> (Arc<crate::FfQp>, Arc<crate::FfQp>) {
    let qp_a = p.a.create_qp(&p.cq_a, &p.cq_a, 8, 8).unwrap();
    let qp_b = p.b.create_qp(&p.cq_b, &p.cq_b, 8, 8).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();
    (qp_a, qp_b)
}

#[test]
fn a_wrapping_remote_address_fails_the_op_not_the_responder() {
    // `va + len` past `u64::MAX` once panicked the bounds check: in the
    // requester's own thread on the shm path, in the victim's library pump
    // — every QP it served — on the relay.
    for same_host in [true, false] {
        let cluster = FreeFlowCluster::with_defaults();
        let p = connected_pair(&cluster, same_host);
        let wrap = u64::MAX - 3;
        for wr in [
            SendWr::write(1, p.mr_a.sge(0, 8), wrap, p.mr_b.rkey()),
            SendWr::read(2, p.mr_a.sge(0, 8), wrap, p.mr_b.rkey()),
        ] {
            let (qp_a, _qp_b) = second_pair(&p);
            qp_a.post_send(wr).unwrap();
            let wc = p.cq_a.wait_one(T).expect("failed completion");
            assert_eq!(
                wc.status,
                WcStatus::RemoteAccessError,
                "same_host={same_host}"
            );
        }
        // The victim still carries a good SEND.
        let (qp_a, qp_b) = second_pair(&p);
        qp_b.post_recv(RecvWr::new(3, p.mr_b.sge(0, 64))).unwrap();
        p.mr_a.write(0, b"alive").unwrap();
        qp_a.post_send(SendWr::send(4, p.mr_a.sge(0, 5))).unwrap();
        let rwc = p.cq_b.wait_one(T).expect("recv completion");
        assert_eq!((rwc.status, rwc.byte_len), (WcStatus::Success, 5));
        assert!(p.cq_a.wait_one(T).unwrap().status.is_ok());
    }
}

#[test]
fn hostile_inbound_ops_are_refused_and_the_pump_keeps_serving() {
    // A raw attachment on the victim's host hands its responder
    // peer-chosen addresses, lengths and keys. The MR bounds check is
    // what stops a READ of 1 TiB now, before anything is allocated.
    use freeflow_agent::proto::{status as st, RelayMsg, RelayPayload, WireEp};
    use freeflow_shmem::ShmMessage;
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    // An rkey of another container's device that the victim's lacks.
    let other = cluster.launch(tenant(), p.a.host()).unwrap();
    let mut foreign = other.register(64, AccessFlags::all()).unwrap();
    for _ in 0..3 {
        foreign = other.register(64, AccessFlags::all()).unwrap();
    }
    assert!(p.b.lib().device().mr_by_rkey(foreign.rkey()).is_err());
    let raw_ip = freeflow_types::OverlayIp::from_octets(10, 9, 9, 9);
    let raw = cluster
        .agent_of(p.b.host())
        .unwrap()
        .attach_container(raw_ip)
        .unwrap();
    // One requester QP per op: a refused requester's later ops are
    // flushed unexecuted, and each op here must reach the checks.
    let (src, dst) = (|qpn| WireEp::new(raw_ip, qpn), p.qp_b.endpoint().wire());
    let (base, rkey) = (p.mr_b.addr(), p.mr_b.rkey());
    let end = base + p.mr_b.len();
    let reads = [
        (base, 1 << 40, rkey),
        (u64::MAX - 3, 8, rkey),
        (base, 8, foreign.rkey()),
    ];
    let writes = [
        (end - 4, rkey),
        (u64::MAX - 3, rkey),
        (base, foreign.rkey()),
    ];
    for (i, &(addr, len, rkey)) in reads.iter().enumerate() {
        let req_id = i as u64;
        let msg = RelayMsg::ReadReq {
            src: src(req_id as u32),
            dst,
            req_id,
            addr,
            rkey,
            len,
        };
        raw.channel.tx.send(&msg.encode()).unwrap();
    }
    for (i, &(addr, rkey)) in writes.iter().enumerate() {
        let wr_id = 10 + i as u64;
        let msg = RelayMsg::Write {
            src: src(wr_id as u32),
            dst,
            wr_id,
            addr,
            rkey,
            imm: None,
            payload: RelayPayload::Inline(bytes::Bytes::from_static(b"hostile!")),
        };
        raw.channel.tx.send(&msg.encode()).unwrap();
    }
    let mut answers = Vec::new();
    for _ in 0..reads.len() + writes.len() {
        let Ok(Some(ShmMessage::Inline(raw_msg))) = raw.channel.rx.recv_timeout(T) else {
            panic!("no answer");
        };
        answers.push(match RelayMsg::decode(raw_msg).unwrap() {
            RelayMsg::ReadResp {
                req_id,
                status,
                payload,
                ..
            } => (req_id, status, payload.len()),
            RelayMsg::Nack { wr_id, status, .. } => (wr_id, status, 0),
            other => panic!("expected a refusal, got {other:?}"),
        });
    }
    let want: Vec<_> = [0, 1, 2, 10, 11, 12]
        .map(|id| (id, st::REMOTE_ACCESS, 0))
        .to_vec();
    assert_eq!(answers, want);
    assert_eq!(p.qp_b.state(), QpState::Rts);
    roundtrip_send(&p, b"still serving");
}

#[test]
fn unsignaled_remote_writes_complete_silently() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.mr_a.write(0, b"quiet").unwrap();
    for i in 0..5u64 {
        p.qp_a
            .post_send(
                SendWr::write(i, p.mr_a.sge(0, 5), p.mr_b.addr(), p.mr_b.rkey()).unsignaled(),
            )
            .unwrap();
    }
    // A final signaled write flushes; no stray completions before it.
    p.qp_a
        .post_send(SendWr::write(
            99,
            p.mr_a.sge(0, 5),
            p.mr_b.addr(),
            p.mr_b.rkey(),
        ))
        .unwrap();
    let wc = p.cq_a.wait_one(T).unwrap();
    assert_eq!(wc.wr_id, 99, "only the signaled WR completes");
    assert!(p.cq_a.poll_one().is_none());
}

#[test]
fn arena_exhaustion_falls_back_to_private_mrs() {
    let cluster = FreeFlowCluster::with_defaults();
    let h = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(tenant(), h).unwrap();
    // Grab nearly the whole 256 MiB host arena...
    let big = a
        .register(
            (cluster_arena_size() - (1 << 20)) as u64,
            AccessFlags::all(),
        )
        .unwrap();
    assert!(big.is_arena_backed());
    // ...so the next big registration cannot be arena-backed, yet works.
    let fallback = a.register(16 << 20, AccessFlags::all()).unwrap();
    assert!(!fallback.is_arena_backed());
    fallback.write(0, b"still works").unwrap();
    let mut out = [0u8; 11];
    fallback.read(0, &mut out).unwrap();
    assert_eq!(&out, b"still works");
}

fn cluster_arena_size() -> usize {
    crate::cluster::DEFAULT_ARENA_SIZE
}

// --- live migration: guards, checkpoints, crash injection ------------------

/// Satellite regression: migrating onto the host a container already
/// occupies is a guarded no-op — no blackout, no freeze on the container's
/// own QPs or its peers', no placement-generation bump, no
/// `ContainerMoved` on the event feed.
#[test]
fn migrate_onto_current_host_is_a_guarded_noop() {
    use crate::migrate::{MigrationOutcome, MigrationPhase};
    use freeflow_telemetry::Event;

    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    roundtrip_send(&p, b"before the no-op");

    let home = p.b.host();
    let id_b = p.b.id();
    let gen_before = cluster.orchestrator().container(id_b).unwrap().generation;
    let epoch_a = p.qp_a.epoch();
    let epoch_b = p.qp_b.epoch();

    // `migrate_with` consumes the container handle and returns it.
    let Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    } = p;
    let (b, report) = cluster.migrate_with(b, home, None).unwrap();
    assert_eq!(report.outcome, MigrationOutcome::Committed);
    assert_eq!(report.phase_reached, MigrationPhase::Prepare);
    assert!(!report.moved, "nothing moved");
    assert_eq!(report.checkpoint_bytes, 0, "nothing was checkpointed");
    assert_eq!(b.host(), home);
    let p = Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    };

    // No freeze or rebind happened anywhere: epochs and generation are
    // untouched and the feed carries no Migration or ContainerMoved
    // events for this container.
    assert_eq!(p.qp_a.epoch(), epoch_a, "peer QP must not rebind");
    assert_eq!(p.qp_b.epoch(), epoch_b, "own QP must not rebind");
    assert_eq!(
        cluster.orchestrator().container(id_b).unwrap().generation,
        gen_before,
        "placement generation must not bump"
    );
    let snap = cluster.telemetry();
    assert_eq!(
        snap.events
            .iter()
            .filter(|te| matches!(te.event, Event::Migration { .. }))
            .count(),
        0,
        "a guarded no-op records no migration events"
    );
    assert_eq!(snap.counter_total("ff_migrations_committed_total"), 0);

    // Traffic flows exactly as before.
    roundtrip_send(&p, b"after the no-op");
}

/// A crash injected mid-checkpoint (source side) aborts the 2PC in
/// place: the container never moves, the torn checkpoint is detected by
/// its checksum, the QPs thaw back to Bound, and counters agree with the
/// flight-recorder timeline.
#[test]
fn crash_during_source_checkpoint_aborts_in_place() {
    use crate::migrate::{MigrationCrashPoint, MigrationOutcome, MigrationPhase};

    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    roundtrip_send(&p, b"pre-crash traffic");
    let home = p.b.host();
    let other = p.a.host();
    let id_b = p.b.id();
    assert_ne!(home, other);

    let Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    } = p;
    let (b, report) = cluster
        .migrate_with(b, other, Some(MigrationCrashPoint::SourceCheckpoint))
        .unwrap();
    assert_eq!(report.outcome, MigrationOutcome::Aborted);
    assert_eq!(report.phase_reached, MigrationPhase::Checkpoint);
    assert!(!report.moved);
    assert_eq!(b.host(), home, "abort leaves the container home");
    assert_eq!(
        cluster.orchestrator().locate(id_b).unwrap(),
        home,
        "the orchestrator still places it on the source"
    );
    let p = Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    };

    let snap = cluster.telemetry();
    assert_eq!(snap.counter_total("ff_migrations_aborted_total"), 1);
    assert_eq!(snap.counter_total("ff_migrations_committed_total"), 0);

    // Never wedged: the same pair keeps exchanging immediately.
    roundtrip_send(&p, b"post-abort traffic");
}

/// A crash injected mid-restore (target side) rolls the move back: the
/// device re-attaches to the source host, the orchestrator's answer
/// reverts, and traffic continues — every outcome is a legal PathBinding
/// transition, never a wedged QP.
#[test]
fn crash_during_target_restore_rolls_back_to_source() {
    use crate::migrate::{MigrationCrashPoint, MigrationOutcome, MigrationPhase};

    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    roundtrip_send(&p, b"pre-crash traffic");
    let home = p.b.host();
    let other = p.a.host();
    let id_b = p.b.id();

    let Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    } = p;
    let (b, report) = cluster
        .migrate_with(b, other, Some(MigrationCrashPoint::TargetRestore))
        .unwrap();
    assert_eq!(report.outcome, MigrationOutcome::Aborted);
    assert_eq!(report.phase_reached, MigrationPhase::Restore);
    assert!(!report.moved);
    assert_eq!(b.host(), home, "rollback re-homes to the source");
    assert_eq!(cluster.orchestrator().locate(id_b).unwrap(), home);
    let p = Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    };

    let snap = cluster.telemetry();
    assert_eq!(snap.counter_total("ff_migrations_aborted_total"), 1);
    assert!(
        snap.histogram(
            "ff_migration_blackout_ns",
            freeflow_telemetry::LabelSet::none()
        )
        .map(|h| h.count())
        .unwrap_or(0)
            == 1,
        "the aborted freeze window is still a recorded blackout"
    );

    roundtrip_send(&p, b"post-rollback traffic");
}

/// The committed path end to end: checkpoint captured, bytes conserved,
/// MR contents byte-identical on the target, blackout recorded, parked
/// work conserved across the move.
#[test]
fn committed_migration_checkpoints_and_restores_state() {
    use crate::migrate::{MigrationOutcome, MigrationPhase};

    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    roundtrip_send(&p, b"warm the path");
    // Put recognizable bytes in the migrating side's MR (after the warm-up
    // roundtrip, which lands its payload at offset 0 of the same MR).
    p.mr_b.write(0, b"survives the move").unwrap();

    let h2 = cluster.add_host(HostCaps::paper_testbed());
    let Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    } = p;
    let (b, report) = cluster.migrate_with(b, h2, None).unwrap();
    assert_eq!(report.outcome, MigrationOutcome::Committed);
    assert_eq!(report.phase_reached, MigrationPhase::Commit);
    assert!(report.moved);
    assert_eq!(b.host(), h2);
    assert!(report.qps >= 1, "the live QP rode the checkpoint");
    assert!(report.mrs >= 1, "the MR rode the checkpoint");
    assert!(report.checkpoint_bytes > 0);
    assert!(report.blackout_ns > 0, "a real freeze window was measured");
    let p = Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    };

    // The MR's bytes made it, byte for byte.
    let mut got = [0u8; 17];
    p.mr_b.read(0, &mut got).unwrap();
    assert_eq!(&got, b"survives the move");

    let snap = cluster.telemetry();
    assert_eq!(snap.counter_total("ff_migrations_committed_total"), 1);
    assert_eq!(snap.counter_total("ff_migrations_aborted_total"), 0);

    // The moved side thaws back to Bound; traffic keeps flowing over the
    // relayed path, while the peer *observes* staleness — the signal that
    // tells an app to re-establish (the un-collapse boundary contract).
    wait_for(T, || {
        p.qp_a.binding_phase() == crate::binding::BindingPhase::Bound
            && p.qp_b.binding_phase() == crate::binding::BindingPhase::Bound
    });
    roundtrip_send(&p, b"post-move traffic");
    assert!(
        !p.qp_a.path_is_current(),
        "the peer must see the move as a stale path"
    );
}

/// A migration never waits on the peer's application: a container whose
/// SEND is parked at its peer for a receive commits at once, the SEND
/// crossing unanswered. The checkpoint carried it, and a restore that lost
/// it would be refused. The SEND completes exactly once when the peer
/// posts the receive.
#[test]
fn a_send_parked_at_the_peer_crosses_a_migration_unanswered() {
    use crate::migrate::{MigrateError, MigrationCheckpoint, MigrationOutcome};

    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    // Long enough that only the receive, not the op deadline, answers it.
    p.qp_a.set_relay_timeout(Duration::from_secs(30));
    p.mr_a.write(0, b"parked across the move").unwrap();
    p.qp_a
        .post_send(SendWr::send(1, p.mr_a.sge(0, 22)))
        .unwrap();
    wait_for(T, || p.qp_b.parked_inbound() == 1);

    let h2 = cluster.add_host(HostCaps::paper_testbed());
    let Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    } = p;
    let started = std::time::Instant::now();
    let (a, report) = cluster.migrate_with(a, h2, None).unwrap();
    assert_eq!(report.outcome, MigrationOutcome::Committed);
    assert!(report.moved);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the migration waited {:?} on the parked SEND",
        started.elapsed()
    );
    let p = Pair {
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
    };

    // The restored QP holds the SEND unanswered, as the checkpoint says,
    // and a checkpoint that lost it does not verify.
    assert_eq!(p.qp_a.unanswered(), 1);
    let cp = MigrationCheckpoint::capture(&p.a, h2);
    let rec = (cp.qps.iter()).find(|r| r.qpn == p.qp_a.qp_num()).unwrap();
    assert_eq!(rec.in_flight, 1);
    assert_eq!(cp.verify_restore(&p.a), Ok(()));
    let mut lost = cp.clone();
    for rec in &mut lost.qps {
        rec.in_flight = 0;
    }
    assert_eq!(
        lost.verify_restore(&p.a),
        Err(MigrateError::RestoreMismatch("work conservation"))
    );

    // The receive comes: the SEND lands once and completes once.
    p.qp_b.post_recv(RecvWr::new(2, p.mr_b.sge(0, 64))).unwrap();
    assert_eq!(completions(&p.cq_b, 1), [(2, WcStatus::Success)]);
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    assert_eq!(read_b(&p, 0, 22), b"parked across the move");
    wait_for(T, || p.qp_a.unanswered() == 0);
    std::thread::sleep(Duration::from_millis(20));
    assert!(p.cq_a.poll_one().is_none(), "the SEND completed twice");
    assert!(p.cq_b.poll_one().is_none(), "the SEND landed twice");
    assert_eq!(p.qp_b.accepted(), 1);
    roundtrip_send(&p, b"after the move");
}

/// A peer keeps writing into a container while it migrates back and
/// forth: every WRITE completes `Success`, once, and its bytes land. The
/// freeze keeps taking requests in, and what was in flight to or from
/// the host the container left goes again — the peer re-sends its
/// unanswered ops on `ContainerMoved`, and the host the container left
/// refuses a late frame as a stale route — so no WRITE waits out its
/// deadline.
#[test]
fn writes_into_a_migrating_container_all_complete() {
    writes_through_migrations(64, 1);
}

/// More small relayed frames than the agent ring holds (2 MiB) reach a
/// container while it migrates, in chains: nothing stops draining its
/// ring, so neither the agent nor the migration blocks, and every WRITE
/// completes `Success` once.
#[test]
fn small_writes_past_the_ring_size_cross_migrations_without_a_hang() {
    let written = writes_through_migrations(2048, 32);
    assert!(written * 2048 > 2 << 20, "only {written} WRITEs went");
}

/// Run [`writes_through_migrations_on`] on a thread of its own, failing
/// if it does not finish within a deadline rather than hanging.
fn writes_through_migrations(len: u64, chain: u64) -> u64 {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(writes_through_migrations_on(len, chain)));
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the writes and migrations finish, not hang")
}

/// B posts chains of `chain` WRITEs of `len` bytes into A's region, one
/// chain at a time, while A migrates between two hosts 12 times with a
/// few chains between moves. Returns the WRITEs that went.
fn writes_through_migrations_on(len: u64, chain: u64) -> u64 {
    use std::sync::atomic::{AtomicBool, AtomicU64};
    const MOVES: u64 = 12;

    let cluster = FreeFlowCluster::with_defaults();
    let Pair {
        a,
        b: _b,
        mr_a,
        mr_b,
        qp_a: _qp_a,
        qp_b,
        cq_a: _cq_a,
        cq_b,
    } = connected_pair(&cluster, false);
    let slots = mr_a.len() / len;
    let (h0, h2) = (a.host(), cluster.add_host(HostCaps::paper_testbed()));
    let (done, went) = (AtomicBool::new(false), AtomicU64::new(0));
    let (mut a, mut outcomes) = (a, Vec::new());
    let written = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut n = 0u64;
            while !done.load(Ordering::Acquire) {
                let wrs = (n..n + chain).map(|id| {
                    let off = (id % slots) * len;
                    mr_b.write(off, &id.to_le_bytes()).unwrap();
                    SendWr::write(
                        id,
                        mr_b.sge(off, len as u32),
                        mr_a.addr() + off,
                        mr_a.rkey(),
                    )
                });
                qp_b.post_send_batch(wrs.collect()).unwrap();
                for id in n..n + chain {
                    let wc = cq_b.wait_one(T).expect("a completion, not a hang");
                    assert_eq!((wc.wr_id, wc.status), (id, WcStatus::Success));
                }
                n += chain;
                went.store(n / chain, Ordering::Release);
            }
            n
        });
        for i in 0..MOVES {
            // A few chains between moves, and one in flight at each.
            wait_for(T, || went.load(Ordering::Acquire) >= 4 * i);
            let to = if i % 2 == 0 { h2 } else { h0 };
            let (moved, report) = cluster.migrate_with(a, to, None).unwrap();
            a = moved;
            outcomes.push(report.outcome);
        }
        done.store(true, Ordering::Release);
        writer.join().unwrap()
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(cq_b.poll_one().is_none(), "a WRITE completed twice");
    // Each slot holds the last WRITE into it.
    for slot in 0..slots.min(written) {
        let last = slot + (written - 1 - slot) / slots * slots;
        let mut got = [0u8; 8];
        mr_a.read(slot * len, &mut got).unwrap();
        assert_eq!(u64::from_le_bytes(got), last, "slot {slot} ({outcomes:?})");
    }
    written
}

/// Exercise one send/recv round trip over an established pair.
fn roundtrip_send(p: &Pair, msg: &[u8]) {
    static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(7000);
    let id = NEXT_ID.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
    p.qp_b
        .post_recv(RecvWr::new(id, p.mr_b.sge(0, 1 << 16)))
        .unwrap();
    p.mr_a.write(0, msg).unwrap();
    p.qp_a
        .post_send(SendWr::send(id + 1, p.mr_a.sge(0, msg.len() as u32)))
        .unwrap();
    let rwc = p.cq_b.wait_one(T).expect("recv completion");
    assert!(rwc.status.is_ok(), "recv errored: {rwc:?}");
    let swc = p.cq_a.wait_one(T).expect("send completion");
    assert!(swc.status.is_ok(), "send errored: {swc:?}");
    let mut got = vec![0u8; msg.len()];
    p.mr_b.read(0, &mut got).unwrap();
    assert_eq!(got, msg);
}

/// Spin until `cond` holds or the deadline passes.
fn wait_for(timeout: Duration, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + timeout;
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
}

// --- exactly once across a failover ------------------------------------------

/// Refusals `host`'s agent sent back to its containers so far.
fn nacked(cluster: &FreeFlowCluster, host: freeflow_types::HostId) -> u64 {
    let agent = cluster.agent_of(host).unwrap();
    let n = agent.stats().nacked.load(Ordering::Relaxed);
    n
}

/// A WRITE of `data` at `off` in B's region.
fn write_to_b(p: &Pair, wr_id: u64, off: u64, data: &[u8]) -> SendWr {
    p.mr_a.write(off, data).unwrap();
    SendWr::write(
        wr_id,
        p.mr_a.sge(off, data.len() as u32),
        p.mr_b.addr() + off,
        p.mr_b.rkey(),
    )
}

/// A relayed WRITE from `src` into B's region, as a raw relay message.
fn raw_write(p: &Pair, src: WireEp, op_id: u64, off: u64, data: &'static [u8]) -> RelayMsg {
    RelayMsg::Write {
        src,
        dst: p.qp_b.endpoint().wire(),
        wr_id: op_id,
        addr: p.mr_b.addr() + off,
        rkey: p.mr_b.rkey(),
        imm: None,
        payload: RelayPayload::Inline(bytes::Bytes::from_static(data)),
    }
}

fn read_b(p: &Pair, off: u64, len: usize) -> Vec<u8> {
    let mut got = vec![0u8; len];
    p.mr_b.read(off, &mut got).unwrap();
    got
}

/// Wait for `n` completions on `cq`; each `(wr_id, status)` in order.
fn completions(cq: &freeflow_verbs::CompletionQueue, n: usize) -> Vec<(u64, WcStatus)> {
    (0..n)
        .map(|_| {
            let wc = cq.wait_one(T).expect("a completion, not a hang");
            (wc.wr_id, wc.status)
        })
        .collect()
}

#[test]
fn a_settled_path_resends_nothing() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    for i in 0..100u64 {
        p.qp_a
            .post_send(write_to_b(&p, i, i * 64, &[i as u8; 64]))
            .unwrap();
        assert_eq!(completions(&p.cq_a, 1), [(i, WcStatus::Success)]);
    }
    for i in 0..100u64 {
        assert_eq!(read_b(&p, i * 64, 64), [i as u8; 64]);
    }
    assert_eq!(p.qp_b.accepted(), 100, "each op accepted once, in order");
    assert_eq!((p.qp_a.resent_count(), p.qp_b.resent_count()), (0, 0));
    let snap = cluster.telemetry();
    assert_eq!(snap.counter_total("ff_qp_resent_total"), 0);
    assert_eq!(snap.counter_total("ff_qp_refused_total"), 0);
    let resends = (snap.events.iter()).filter(|te| matches!(te.event, Event::QpResend { .. }));
    assert_eq!(resends.count(), 0);
}

#[test]
fn failover_resends_the_unanswered_suffix_once_in_order() {
    // Three SENDs park at B for receives: accepted, unanswered. Then the
    // RDMA wire goes down and two WRITEs are refused on the stale route,
    // and only then the NIC dies: the QP fails over with all five
    // unanswered, whichever of the post and the health change its pump
    // sees first. The failover re-sends all five, oldest first: B drops
    // the SENDs' duplicates (they stay parked once) and executes the
    // WRITEs in order.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let h0 = p.a.host();
    for i in 1..=3u64 {
        p.mr_a.write(i * 64, &[i as u8; 8]).unwrap();
        let send = SendWr::send(i, p.mr_a.sge(i * 64, 8));
        p.qp_a.post_send(send).unwrap();
    }
    wait_until("three sends parked at B", || p.qp_b.parked_inbound() == 3);
    let agent = cluster.agent_of(h0).unwrap();
    let rdma = agent.wire_of_kind(p.b.host(), TransportKind::Rdma).unwrap();
    agent.set_wire_up(rdma, false).unwrap();
    let n0 = nacked(&cluster, h0);
    let writes = vec![
        write_to_b(&p, 4, 1024, b"fourth"),
        write_to_b(&p, 5, 2048, b"fifth!"),
    ];
    p.qp_a.post_send_batch(writes).unwrap();
    wait_until("the writes refused", || nacked(&cluster, h0) >= n0 + 2);
    assert_eq!(
        p.qp_a.failover_count(),
        0,
        "a stale route alone stays bound"
    );
    cluster.fail_nic(h0).unwrap();
    wait_until("the failover", || p.qp_a.failover_count() == 1);
    assert!(
        p.cq_a.poll_one().is_none(),
        "nothing answers on a stale route"
    );
    cluster.refresh_routes();
    assert_eq!(
        completions(&p.cq_a, 2),
        [(4, WcStatus::Success), (5, WcStatus::Success)]
    );
    assert_eq!(read_b(&p, 1024, 6), b"fourth");
    assert_eq!(read_b(&p, 2048, 6), b"fifth!");
    assert!(p.qp_a.resent_count() >= 5, "all five went again");
    assert_eq!((p.qp_b.parked_inbound(), p.qp_b.accepted()), (3, 5));
    // The parked SENDs' answers come through the relay sink, once each.
    for i in 1..=3u64 {
        let recv = RecvWr::new(10 + i, p.mr_b.sge(4096 + i * 64, 64));
        p.qp_b.post_recv(recv).unwrap();
        let rwc = p.cq_b.wait_one(T).expect("recv completion");
        assert_eq!(
            (rwc.wr_id, rwc.status, rwc.byte_len),
            (10 + i, WcStatus::Success, 8)
        );
        assert_eq!(read_b(&p, 4096 + i * 64, 8), [i as u8; 8]);
    }
    assert_eq!(
        completions(&p.cq_a, 3),
        [1, 2, 3].map(|i| (i, WcStatus::Success))
    );
    std::thread::sleep(RESEND_INTERVAL + Duration::from_millis(50));
    assert!(p.cq_a.poll_one().is_none(), "no surplus send completions");
    assert!(p.cq_b.poll_one().is_none(), "no surplus recv completions");
    assert_eq!(p.qp_a.unanswered(), 0);
}

#[test]
fn a_second_failure_arms_recovery_again() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let h0 = p.a.host();
    let rdma = |qp: &crate::FfQp| matches!(qp.path(), FfPath::Remote { transport, .. } if transport == TransportKind::Rdma);
    for round in 1..=2u64 {
        cluster.fail_nic(h0).unwrap();
        let data = [round as u8; 16];
        p.qp_a
            .post_send(write_to_b(&p, round, round * 64, &data))
            .unwrap();
        wait_until("the failover", || p.qp_a.failover_count() == round);
        cluster.refresh_routes();
        assert_eq!(completions(&p.cq_a, 1), [(round, WcStatus::Success)]);
        assert_eq!(read_b(&p, round * 64, 16), data);
        // The NIC comes back: a planned upgrade returns the QP to RDMA.
        cluster.restore_nic(h0).unwrap();
        cluster.refresh_routes();
        wait_for(T, || rdma(&p.qp_a));
    }
    assert_eq!(p.qp_a.failover_count(), 2);
    assert!(p.qp_a.resent_count() >= 2, "each failure re-sent its op");
    assert_eq!(p.qp_b.accepted(), 2);
    roundtrip_send(&p, b"settled again");
}

#[test]
fn duplicates_are_answered_again_and_gaps_refused() {
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let a_ep = p.qp_a.endpoint().wire();
    p.qp_a.post_send(write_to_b(&p, 1, 0, b"first!")).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    // A duplicate of op 1 is answered again, not executed; an op past a
    // gap is refused, and so is the next one, silently.
    p.a.lib().send_raw(&[
        raw_write(&p, a_ep, 1, 0, b"again!"),
        raw_write(&p, a_ep, 5, 64, b"gap..."),
        raw_write(&p, a_ep, 6, 64, b"gap..."),
    ]);
    // The real op 2 rides behind them on the same rings: it executes.
    p.qp_a.post_send(write_to_b(&p, 2, 128, b"second")).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(2, WcStatus::Success)]);
    assert_eq!(read_b(&p, 0, 6), b"first!", "a duplicate executed");
    assert_eq!(read_b(&p, 64, 6), [0u8; 6], "an op past a gap executed");
    assert_eq!(read_b(&p, 128, 6), b"second");
    assert_eq!(p.qp_b.accepted(), 2);
    // A duplicate of an op parked for a receive is dropped: the receive
    // is taken once, and the send completes once.
    p.mr_a.write(256, b"parked").unwrap();
    p.qp_a
        .post_send(SendWr::send(3, p.mr_a.sge(256, 6)))
        .unwrap();
    wait_until("the send parked", || p.qp_b.parked_inbound() == 1);
    p.a.lib().send_raw(&[RelayMsg::Send {
        src: a_ep,
        dst: p.qp_b.endpoint().wire(),
        wr_id: 3,
        imm: None,
        payload: RelayPayload::Inline(bytes::Bytes::from_static(b"twice!")),
    }]);
    p.qp_a.post_send(write_to_b(&p, 4, 512, b"fourth")).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(4, WcStatus::Success)]);
    assert_eq!(p.qp_b.parked_inbound(), 1, "the duplicate parked again");
    for id in [20, 21] {
        p.qp_b
            .post_recv(RecvWr::new(id, p.mr_b.sge(1024 + (id - 20) * 64, 64)))
            .unwrap();
    }
    let rwc = p.cq_b.wait_one(T).expect("recv completion");
    assert_eq!((rwc.wr_id, rwc.byte_len), (20, 6));
    assert_eq!(read_b(&p, 1024, 6), b"parked");
    assert_eq!(completions(&p.cq_a, 1), [(3, WcStatus::Success)]);
    assert_eq!(
        p.qp_b.capture_record().posted_recvs,
        1,
        "the duplicate took a receive"
    );
    assert_eq!(p.qp_b.accepted(), 4);
}

/// A pair whose RDMA wire is down while the orchestrator still picks
/// RDMA (a flapping link): every send is refused as a stale route, and
/// the QP stays bound. Returns the wire to bring back up.
fn flapped_pair(cluster: &FreeFlowCluster) -> (Pair, usize) {
    let p = connected_pair(cluster, false);
    p.qp_a.set_relay_timeout(Duration::from_secs(5));
    let agent = cluster.agent_of(p.a.host()).unwrap();
    let rdma = agent.wire_of_kind(p.b.host(), TransportKind::Rdma).unwrap();
    agent.set_wire_up(rdma, false).unwrap();
    (p, rdma)
}

#[test]
fn the_stale_route_resend_waits_out_its_interval() {
    let cluster = FreeFlowCluster::with_defaults();
    let (p, rdma) = flapped_pair(&cluster);
    let h0 = p.a.host();
    let n0 = nacked(&cluster, h0);
    p.qp_a.post_send(write_to_b(&p, 1, 0, b"waited")).unwrap();
    wait_until("the post refused", || nacked(&cluster, h0) > n0);
    let refused = std::time::Instant::now();
    // The route is stale on the transport the orchestrator still picks:
    // the op waits out the interval instead of spinning against it.
    std::thread::sleep(RESEND_INTERVAL / 2);
    assert_eq!(nacked(&cluster, h0), n0 + 1, "re-sent inside the interval");
    wait_until("the next round", || nacked(&cluster, h0) > n0 + 1);
    assert!(
        refused.elapsed() >= RESEND_INTERVAL - Duration::from_millis(50),
        "re-sent after {:?}",
        refused.elapsed()
    );
    assert_eq!(p.qp_a.failover_count(), 0, "a stale route is no failover");
    assert_eq!(p.qp_a.state(), QpState::Rts);
    (cluster.agent_of(h0).unwrap())
        .set_wire_up(rdma, true)
        .unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    assert_eq!(read_b(&p, 0, 6), b"waited");
}

#[test]
fn the_resend_interval_counts_time_not_calls() {
    let cluster = FreeFlowCluster::with_defaults();
    let (p, rdma) = flapped_pair(&cluster);
    let h0 = p.a.host();
    let n0 = nacked(&cluster, h0);
    p.qp_a.post_send(write_to_b(&p, 1, 0, b"timely")).unwrap();
    wait_until("the post refused", || nacked(&cluster, h0) > n0);
    let (t0, r0) = (std::time::Instant::now(), p.qp_a.resent_count());
    // Blocked waiters sweep in a tight loop; only time re-sends.
    for _ in 0..1_000 {
        p.qp_a.sweep_timeouts();
    }
    if t0.elapsed() < RESEND_INTERVAL / 2 {
        assert_eq!(p.qp_a.resent_count(), r0, "re-sent by calls, not time");
    }
    std::thread::sleep(RESEND_INTERVAL + Duration::from_millis(20));
    let rounds = p.qp_a.resent_count() - r0;
    assert!((1..=2).contains(&rounds), "{rounds} rounds in one interval");
    (cluster.agent_of(h0).unwrap())
        .set_wire_up(rdma, true)
        .unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
}

#[test]
fn an_answer_lost_on_a_stale_route_is_asked_for_again() {
    // A's SEND parks at B. The NIC dies, and B's answer to it dies on
    // B's route, still at the dead wire. A posts nothing: the health
    // change makes it re-send what is unanswered, which fails it over;
    // once the routes converge, B answers the duplicate again.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.mr_a.write(0, b"asked twice").unwrap();
    p.qp_a
        .post_send(SendWr::send(1, p.mr_a.sge(0, 11)))
        .unwrap();
    wait_until("the send parked", || p.qp_b.parked_inbound() == 1);
    let h1 = p.b.host();
    let n0 = nacked(&cluster, h1);
    cluster.fail_nic(p.a.host()).unwrap();
    p.qp_b.post_recv(RecvWr::new(9, p.mr_b.sge(0, 64))).unwrap();
    let rwc = p.cq_b.wait_one(T).expect("recv completion");
    assert_eq!(
        (rwc.wr_id, rwc.status, rwc.byte_len),
        (9, WcStatus::Success, 11)
    );
    wait_until("the failover", || p.qp_a.failover_count() == 1);
    assert!(p.cq_a.poll_one().is_none(), "the answer arrived");
    assert_eq!(nacked(&cluster, h1), n0, "an answer is never refused back");
    cluster.refresh_routes();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    assert_eq!(read_b(&p, 0, 11), b"asked twice");
    assert_eq!(p.qp_b.parked_inbound(), 0, "the duplicate parked");
    assert!(p.cq_b.poll_one().is_none(), "a second receive completed");
}

#[test]
fn a_forged_src_neither_executes_nor_moves_the_mark() {
    // A third container C writes well-formed frames at B's QP, naming
    // itself, or A's IP with another QPN, as their `src`, with the next op
    // id. B hears only its connected peer: nothing executes, the mark
    // stays, and A's next op executes. A forged answer to A's op does not
    // complete it either.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let c = cluster.launch(tenant(), p.b.host()).unwrap();
    let a_ep = p.qp_a.endpoint().wire();
    p.qp_a.post_send(write_to_b(&p, 1, 0, b"first!")).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    let forged = [WireEp::new(c.ip(), 77), WireEp::new(p.a.ip(), a_ep.qpn + 1)];
    let labels = |x: &Container| {
        freeflow_telemetry::LabelSet::host(x.host().raw()).with_container(x.id().raw())
    };
    let refused = |x: &Container| {
        (cluster.telemetry())
            .counter_value("ff_qp_refused_total", labels(x))
            .unwrap_or(0)
    };
    for src in forged {
        c.lib().send_raw(&[raw_write(&p, src, 2, 64, b"forged")]);
    }
    wait_until("both refused", || refused(&p.b) == 2);
    assert_eq!(read_b(&p, 64, 6), [0u8; 6], "a forged write executed");
    assert_eq!(p.qp_b.accepted(), 1, "a forged op moved the mark");
    p.qp_a.post_send(write_to_b(&p, 2, 64, b"second")).unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(2, WcStatus::Success)]);
    assert_eq!(read_b(&p, 64, 6), b"second");
    // A parked SEND is op 3; C's answer to it is refused at A.
    p.mr_a.write(128, b"third!").unwrap();
    p.qp_a
        .post_send(SendWr::send(3, p.mr_a.sge(128, 6)))
        .unwrap();
    wait_until("the send parked", || p.qp_b.parked_inbound() == 1);
    c.lib().send_raw(&[RelayMsg::Ack {
        src: forged[0],
        dst: a_ep,
        wr_id: 3,
        byte_len: 6,
    }]);
    wait_until("the forged answer refused", || refused(&p.a) == 1);
    assert!(
        p.cq_a.poll_one().is_none(),
        "a forged answer completed an op"
    );
    p.qp_b
        .post_recv(RecvWr::new(5, p.mr_b.sge(256, 64)))
        .unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(3, WcStatus::Success)]);
    assert_eq!(p.qp_b.accepted(), 3);
}

#[test]
fn chains_posted_across_a_failover_complete_each_op_once() {
    // Chains of WRITEs go out back to back while another thread fails the
    // NIC under them, and converges the routes only once the QP failed
    // over; the second half is posted after the failure. A chain is
    // registered whole before a re-send can see it, so no re-send
    // overtakes an op still being posted: every op completes once, B
    // accepts each once, and its region ends byte-identical.
    const CHAINS: u64 = 16;
    const LEN: u64 = 4;
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    p.qp_a.set_relay_timeout(T);
    let data = |i: u64| [i as u8 ^ 0x5a; 64];
    let failed = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            wait_until("two chains accepted", || p.qp_b.accepted() >= 2 * LEN);
            cluster.fail_nic(p.a.host()).unwrap();
            failed.store(true, Ordering::Release);
            wait_until("the failover", || p.qp_a.failover_count() == 1);
            cluster.refresh_routes();
        });
        for c in 0..CHAINS {
            if c == CHAINS / 2 {
                wait_until("the NIC failed", || failed.load(Ordering::Acquire));
            }
            let wrs = (c * LEN..(c + 1) * LEN)
                .map(|i| write_to_b(&p, i, i * 64, &data(i)))
                .collect();
            p.qp_a.post_send_batch(wrs).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let n = CHAINS * LEN;
    let mut done = completions(&p.cq_a, n as usize);
    done.sort_unstable_by_key(|&(id, _)| id);
    let want: Vec<_> = (0..n).map(|i| (i, WcStatus::Success)).collect();
    assert_eq!(done, want);
    std::thread::sleep(RESEND_INTERVAL + Duration::from_millis(50));
    assert!(p.cq_a.poll_one().is_none(), "no surplus send completions");
    for i in 0..n {
        assert_eq!(read_b(&p, i * 64, 64), data(i), "WR {i}");
    }
    assert_eq!(p.qp_b.accepted(), n, "each op accepted once");
    assert_eq!(p.qp_a.failover_count(), 1);
    assert!(p.qp_a.resent_count() >= 1, "nothing went again");
    assert_eq!(p.qp_a.unanswered(), 0);
}

#[test]
fn chains_posted_from_two_threads_on_a_settled_qp_resend_nothing() {
    // Two threads post chains on one QP at once. A chain's op ids are
    // assigned and its messages put on the agent ring in one step, so the
    // ring carries the ops in op-id order: the responder never refuses one
    // for overtaking its predecessor, and the settled path re-sends
    // nothing.
    const CHAINS: u64 = 200;
    const LEN: u64 = 4;
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let n = 2 * CHAINS * LEN;
    let data = |i: u64| [(i % 251) as u8; 16];
    let mut done = Vec::new();
    std::thread::scope(|s| {
        for t in 0..2 {
            let p = &p;
            s.spawn(move || {
                for c in 0..CHAINS {
                    let first = (2 * c + t) * LEN;
                    let wrs: Vec<SendWr> = (first..first + LEN)
                        .map(|i| write_to_b(p, i, i * 16, &data(i)))
                        .collect();
                    // Retry while the send queue is full.
                    while let Err(e) = p.qp_a.post_send_batch(wrs.clone()) {
                        assert!(matches!(e, VerbsError::QueueFull { .. }), "{e}");
                        std::thread::yield_now();
                    }
                }
            });
        }
        done = completions(&p.cq_a, n as usize);
    });
    done.sort_unstable_by_key(|&(id, _)| id);
    let want: Vec<_> = (0..n).map(|i| (i, WcStatus::Success)).collect();
    assert_eq!(done, want);
    for i in 0..n {
        assert_eq!(read_b(&p, i * 16, 16), data(i), "WR {i}");
    }
    assert_eq!(p.qp_b.accepted(), n, "each op accepted once");
    assert_eq!(p.qp_a.resent_count(), 0, "an op overtook another");
    assert_eq!(cluster.telemetry().counter_total("ff_qp_resent_total"), 0);
}

#[test]
fn a_nic_death_after_a_flap_in_the_same_epoch_still_fails_over() {
    // The RDMA wire flaps while the orchestrator still picks RDMA: the op
    // waits on the bound path and goes through once the wire is back. The
    // NIC then dies for real, in the same epoch: the QP fails over onto
    // TCP instead of re-sending onto the dead wire until its op deadline.
    let cluster = FreeFlowCluster::with_defaults();
    let (p, rdma) = flapped_pair(&cluster);
    let h0 = p.a.host();
    let n0 = nacked(&cluster, h0);
    p.qp_a.post_send(write_to_b(&p, 1, 0, b"flap")).unwrap();
    wait_until("the post refused", || nacked(&cluster, h0) > n0);
    (cluster.agent_of(h0).unwrap())
        .set_wire_up(rdma, true)
        .unwrap();
    assert_eq!(completions(&p.cq_a, 1), [(1, WcStatus::Success)]);
    assert_eq!((p.qp_a.failover_count(), p.qp_a.epoch()), (0, 1));
    cluster.fail_nic(h0).unwrap();
    p.qp_a.post_send(write_to_b(&p, 2, 64, b"dies")).unwrap();
    wait_until("the failover", || p.qp_a.failover_count() == 1);
    cluster.refresh_routes();
    assert_eq!(completions(&p.cq_a, 1), [(2, WcStatus::Success)]);
    assert_eq!(read_b(&p, 64, 4), b"dies");
    assert!(!p.qp_a.path().transport().unwrap().kernel_bypass());
    assert_eq!(p.qp_a.state(), QpState::Rts);
    assert_eq!(p.qp_b.accepted(), 2, "each op accepted once");
}

#[test]
fn a_restore_that_loses_the_sequence_mark_is_refused() {
    // The responder's mark is half of the exactly-once contract: a QP
    // whose mark reset would refuse its peer's next op as a gap for good.
    // The checkpoint carries it, and a restore that lost it is refused.
    use crate::migrate::{MigrateError, MigrationCheckpoint};
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    roundtrip_send(&p, b"one");
    roundtrip_send(&p, b"two");
    let cp = MigrationCheckpoint::capture(&p.b, p.b.host());
    let rec = (cp.qps.iter()).find(|r| r.qpn == p.qp_b.qp_num()).unwrap();
    assert_eq!(rec.accepted, 2);
    assert_eq!(cp.verify_restore(&p.b), Ok(()));
    let mut reset = cp.clone();
    for rec in &mut reset.qps {
        rec.accepted = 0;
    }
    assert_eq!(
        reset.verify_restore(&p.b),
        Err(MigrateError::RestoreMismatch("sequence mark"))
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// One generated WR: a WRITE, or a SEND into a receive B posted first,
    /// of `len` bytes.
    type Op = (usize, bool);

    fn chains() -> impl Strategy<Value = Vec<Vec<Op>>> {
        let op = (1usize..3000, any::<bool>());
        prop::collection::vec(prop::collection::vec(op, 1..5), 1..8)
    }

    /// A relay pair with 1 MiB regions, B's receives posted for every
    /// SEND of `chains`: WR i gathers from A's offset `8192 * i` and lands
    /// at B's, a WRITE directly, a SEND through its receive.
    fn setup(cluster: &FreeFlowCluster, chains: &[Vec<Op>]) -> Pair {
        let h0 = cluster.add_host(HostCaps::paper_testbed());
        let h1 = cluster.add_host(HostCaps::paper_testbed());
        let (a, b) = (
            cluster.launch(tenant(), h0).unwrap(),
            cluster.launch(tenant(), h1).unwrap(),
        );
        let (mr_a, mr_b) = (
            a.register(1 << 20, AccessFlags::all()).unwrap(),
            b.register(1 << 20, AccessFlags::all()).unwrap(),
        );
        let (cq_a, cq_b) = (a.create_cq(256), b.create_cq(256));
        let qp_a = a.create_qp(&cq_a, &cq_a, 64, 64).unwrap();
        let qp_b = b.create_qp(&cq_b, &cq_b, 64, 64).unwrap();
        qp_a.connect(qp_b.endpoint()).unwrap();
        qp_b.connect(qp_a.endpoint()).unwrap();
        qp_a.set_relay_timeout(Duration::from_secs(10));
        let ops = chains.iter().flatten().enumerate();
        for (i, _) in ops.filter(|(_, &(_, send))| send) {
            let at = 8192 * i as u64;
            qp_b.post_recv(RecvWr::new(i as u64, mr_b.sge(at, 8192)))
                .unwrap();
        }
        Pair {
            a,
            b,
            mr_a,
            mr_b,
            cq_a,
            cq_b,
            qp_a,
            qp_b,
        }
    }

    fn pattern(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j * 7) as u8).collect()
    }

    /// Post chain `c`, whose first WR is the `first`-th overall.
    fn post(p: &Pair, chain: &[Op], first: usize) {
        let wrs = chain.iter().enumerate().map(|(k, &(len, send))| {
            let i = first + k;
            let at = 8192 * i as u64;
            p.mr_a.write(at, &pattern(i, len)).unwrap();
            let sge = p.mr_a.sge(at, len as u32);
            match send {
                true => SendWr::send(i as u64, sge),
                false => SendWr::write(i as u64, sge, p.mr_b.addr() + at, p.mr_b.rkey()),
            }
        });
        p.qp_a.post_send_batch(wrs.collect()).unwrap();
    }

    /// Every WR completed `Success` exactly once, every SEND took exactly
    /// its receive, and B's region holds exactly each WR's bytes.
    fn check(p: &Pair, chains: &[Vec<Op>]) -> Result<(), TestCaseError> {
        let n = chains.iter().map(Vec::len).sum::<usize>();
        let mut done = completions(&p.cq_a, n);
        done.sort_unstable_by_key(|&(id, _)| id);
        let want: Vec<_> = (0..n as u64).map(|i| (i, WcStatus::Success)).collect();
        prop_assert_eq!(done, want);
        let sends: Vec<_> = (chains.iter().flatten().enumerate())
            .filter(|(_, op)| op.1)
            .map(|(i, _)| (i as u64, WcStatus::Success))
            .collect();
        prop_assert_eq!(completions(&p.cq_b, sends.len()), sends);
        prop_assert_eq!(p.qp_b.parked_inbound(), 0, "a SEND parked twice");
        for (i, &(len, _)) in chains.iter().flatten().enumerate() {
            prop_assert_eq!(read_b(p, 8192 * i as u64, len), pattern(i, len), "WR {}", i);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Arbitrary chains of WRITEs and SENDs on a settled relay path
        /// land byte-identical, each completing once, with nothing re-sent.
        #[test]
        fn settled_chains_land_byte_identical_with_nothing_resent(chains in chains()) {
            let cluster = FreeFlowCluster::with_defaults();
            let p = setup(&cluster, &chains);
            let mut first = 0;
            for chain in &chains {
                post(&p, chain, first);
                first += chain.len();
            }
            check(&p, &chains)?;
            prop_assert_eq!(p.qp_b.accepted(), first as u64);
            prop_assert_eq!(cluster.telemetry().counter_total("ff_qp_resent_total"), 0);
        }

        /// A NIC failure cut anywhere in the op stream, with ops in
        /// flight and routes converging at once or only after the QP
        /// failed over, then duplicates of answered ops injected at B:
        /// every WR completes once and B's region ends byte-identical.
        #[test]
        fn a_failure_cut_with_duplicates_ends_byte_identical(
            chains in chains(),
            cut in any::<usize>(),
            late in any::<bool>(),
            dups in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let cluster = FreeFlowCluster::with_defaults();
            let p = setup(&cluster, &chains);
            let cut = cut % (chains.len() + 1);
            let mut first = 0;
            for (c, chain) in chains.iter().enumerate() {
                if c == cut {
                    cluster.fail_nic(p.a.host()).unwrap();
                    if !late {
                        cluster.refresh_routes();
                    }
                }
                post(&p, chain, first);
                first += chain.len();
            }
            if cut == chains.len() {
                cluster.fail_nic(p.a.host()).unwrap();
            }
            if late || cut == chains.len() {
                // Late: converge once the QP failed over — or had nothing
                // left to fail over for.
                wait_for(T, || p.qp_a.failover_count() > 0 || p.qp_a.unanswered() == 0);
                cluster.refresh_routes();
            }
            check(&p, &chains)?;
            // Duplicates of answered ops, carrying other bytes: answered
            // again, never executed. A marker WRITE behind them on the
            // same rings shows they were handled.
            let a_ep = p.qp_a.endpoint().wire();
            let forged: Vec<_> = (dups.iter())
                .map(|d| raw_write(&p, a_ep, 1 + (*d % first) as u64, 0, b"duplicate"))
                .collect();
            p.a.lib().send_raw(&forged);
            let marker = 8192 * first as u64;
            p.mr_a.write(marker, b"marker").unwrap();
            let wr = SendWr::write(99, p.mr_a.sge(marker, 6), p.mr_b.addr() + marker, p.mr_b.rkey());
            p.qp_a.post_send(wr).unwrap();
            prop_assert_eq!(completions(&p.cq_a, 1), [(99, WcStatus::Success)]);
            for (i, &(len, _)) in chains.iter().flatten().enumerate() {
                prop_assert_eq!(read_b(&p, 8192 * i as u64, len), pattern(i, len), "WR {}", i);
            }
            prop_assert_eq!(p.qp_b.accepted(), first as u64 + 1);
        }
    }
}

//! Core-library tests: the paper's §5 flows end to end, on both data
//! planes, plus path selection, failure handling and migration.

use crate::cluster::FreeFlowCluster;
use crate::migrate::{reconnect, ContainerImage};
use crate::qp::FfPath;
use crate::Container;
use freeflow_orchestrator::PolicyConfig;
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
fn arena_descriptor_outside_the_arena_delivers_nothing() {
    // A co-located container hands its agent a SEND whose arena
    // descriptor lies outside the host arena. The receiving library must
    // refuse it (the sender gets REMOTE_ACCESS), not complete a receive
    // with zeros; the same sender's next, well-formed SEND — behind it on
    // the same ring — is the first thing the receive sees.
    let cluster = FreeFlowCluster::with_defaults();
    let p = connected_pair(&cluster, false);
    let hostile = cluster.launch(tenant(), p.b.host()).unwrap();
    p.qp_b
        .post_recv(RecvWr::new(1, p.mr_b.sge(0, 1 << 16)))
        .unwrap();
    let (src, dst) = (
        freeflow_agent::proto::WireEp::new(hostile.ip(), 99),
        p.qp_b.endpoint().wire(),
    );
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
/// occupies is a guarded no-op — no blackout, no drain on the container's
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

    // No drain or rebind happened anywhere: epochs and generation are
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

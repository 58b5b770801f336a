//! Property-based tests for the FreeFlow core: arbitrary message
//! sequences over the *relay* path (the hardest path: shm channel → agent
//! → wire → agent → shm channel) must arrive intact, in order, with
//! balanced completions.

use freeflow::binding::BindingPhase;
use freeflow::cache::LocationCache;
use freeflow::migrate::{
    ContainerImage, LedgerRecord, MigrationCheckpoint, MigrationCrashPoint, MigrationOutcome,
    MigrationPhase, MrRecord, QpRecord,
};
use freeflow::orch_client::{OrchClient, OrchClientConfig};
use freeflow::FreeFlowCluster;
use freeflow_orchestrator::{
    ContainerLocation, FeedPoll, FeedSubscription, IpAssign, Orchestrator, OrchestratorEvent,
};
use freeflow_types::{ContainerId, Error, HostCaps, HostId, OverlayIp, TenantId, TransportKind};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(20);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random payload sizes (spanning the inline/arena staging boundary)
    /// and random recv-first/send-first orderings: every message arrives
    /// byte-exact and in order across the relay.
    #[test]
    fn relay_path_preserves_messages(
        msgs in prop::collection::vec(
            (any::<bool>(), 1usize..20_000), 1..12),
    ) {
        let cluster = FreeFlowCluster::with_defaults();
        let h0 = cluster.add_host(HostCaps::paper_testbed());
        let h1 = cluster.add_host(HostCaps::paper_testbed());
        let a = cluster.launch(TenantId::new(1), h0).unwrap();
        let b = cluster.launch(TenantId::new(1), h1).unwrap();
        let mr_a = a.register(32 << 10, AccessFlags::all()).unwrap();
        let mr_b = b.register(32 << 10, AccessFlags::all()).unwrap();
        let cq_a = a.create_cq(64);
        let cq_b = b.create_cq(64);
        let qp_a = a.create_qp(&cq_a, &cq_a, 32, 32).unwrap();
        let qp_b = b.create_qp(&cq_b, &cq_b, 32, 32).unwrap();
        qp_a.connect(qp_b.endpoint()).unwrap();
        qp_b.connect(qp_a.endpoint()).unwrap();

        for (i, (recv_first, len)) in msgs.iter().enumerate() {
            let i = i as u64;
            let payload: Vec<u8> = (0..*len).map(|k| ((k + *len) % 251) as u8).collect();
            if *recv_first {
                qp_b.post_recv(RecvWr::new(i, mr_b.sge(0, 32 << 10))).unwrap();
            }
            mr_a.write(0, &payload).unwrap();
            qp_a.post_send(SendWr::send(i, mr_a.sge(0, *len as u32))).unwrap();
            if !*recv_first {
                // RNR: the send parks at the receiver until a recv shows up.
                qp_b.post_recv(RecvWr::new(i, mr_b.sge(0, 32 << 10))).unwrap();
            }
            let rwc = cq_b.wait_one(T).expect("recv completion");
            prop_assert!(rwc.status.is_ok(), "{:?}", rwc.status);
            prop_assert_eq!(rwc.wr_id, i);
            prop_assert_eq!(rwc.byte_len, *len as u64);
            let swc = cq_a.wait_one(T).expect("send completion");
            prop_assert!(swc.status.is_ok());
            prop_assert_eq!(swc.wr_id, i);
            let mut out = vec![0u8; *len];
            mr_b.read(0, &mut out).unwrap();
            prop_assert_eq!(out, payload);
        }
        // Balanced: nothing left over.
        prop_assert!(cq_a.poll_one().is_none());
        prop_assert!(cq_b.poll_one().is_none());
    }

    /// One-sided WRITEs of arbitrary sizes/offsets across the relay land
    /// exactly where addressed, or fail cleanly when out of bounds.
    #[test]
    fn relay_write_bounds(
        offset in 0u64..40_000,
        len in 1usize..16_000,
    ) {
        let cluster = FreeFlowCluster::with_defaults();
        let h0 = cluster.add_host(HostCaps::paper_testbed());
        let h1 = cluster.add_host(HostCaps::paper_testbed());
        let a = cluster.launch(TenantId::new(1), h0).unwrap();
        let b = cluster.launch(TenantId::new(1), h1).unwrap();
        let mr_a = a.register(16 << 10, AccessFlags::all()).unwrap();
        let mr_b = b.register(32 << 10, AccessFlags::all()).unwrap();
        let cq_a = a.create_cq(16);
        let cq_b = b.create_cq(16);
        let qp_a = a.create_qp(&cq_a, &cq_a, 8, 8).unwrap();
        let qp_b = b.create_qp(&cq_b, &cq_b, 8, 8).unwrap();
        qp_a.connect(qp_b.endpoint()).unwrap();
        qp_b.connect(qp_a.endpoint()).unwrap();

        let fits = offset + len as u64 <= 32 << 10;
        let payload: Vec<u8> = (0..len).map(|k| (k % 249) as u8).collect();
        mr_a.write(0, &payload).unwrap();
        qp_a.post_send(SendWr::write(
            7,
            mr_a.sge(0, len as u32),
            mr_b.addr() + offset,
            mr_b.rkey(),
        ))
        .unwrap();
        let wc = cq_a.wait_one(T).expect("write completion");
        if fits {
            prop_assert!(wc.status.is_ok(), "{:?}", wc.status);
            let mut out = vec![0u8; len];
            mr_b.read(offset, &mut out).unwrap();
            prop_assert_eq!(out, payload);
        } else {
            prop_assert!(!wc.status.is_ok(), "out-of-bounds write must fail");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Posting a message stream as arbitrary chained batches is
    /// observationally identical to posting each WR singly: the peer sees
    /// the same bytes in the same order, and exactly one completion per
    /// signaled WR lands on each side — completion conservation across
    /// every batch boundary. Payload sizes straddle the inline/arena
    /// staging threshold so both relay encodings ride inside one batch.
    #[test]
    fn batched_relay_equals_single_and_conserves_completions(
        lens in prop::collection::vec(1usize..9_000, 2..16),
        splits in prop::collection::vec(1usize..6, 1..16),
    ) {
        const SLOT: usize = 16 << 10;
        let payloads: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|k| ((k * 7 + i * 13) % 251) as u8).collect())
            .collect();
        let n = payloads.len();

        // Run the same stream twice — once singly, once batched — and
        // compare the streams each receiver observed.
        let run = |batched: bool| {
            let cluster = FreeFlowCluster::with_defaults();
            let h0 = cluster.add_host(HostCaps::paper_testbed());
            let h1 = cluster.add_host(HostCaps::paper_testbed());
            let a = cluster.launch(TenantId::new(1), h0).unwrap();
            let b = cluster.launch(TenantId::new(1), h1).unwrap();
            let mr_a = a.register((n * SLOT) as u64, AccessFlags::all()).unwrap();
            let mr_b = b.register((n * SLOT) as u64, AccessFlags::all()).unwrap();
            let cq_a = a.create_cq(64);
            let cq_b = b.create_cq(64);
            let qp_a = a.create_qp(&cq_a, &cq_a, 32, 32).unwrap();
            let qp_b = b.create_qp(&cq_b, &cq_b, 32, 32).unwrap();
            qp_a.connect(qp_b.endpoint()).unwrap();
            qp_b.connect(qp_a.endpoint()).unwrap();

            for (i, payload) in payloads.iter().enumerate() {
                qp_b.post_recv(RecvWr::new(
                    i as u64,
                    mr_b.sge((i * SLOT) as u64, SLOT as u32),
                ))
                .unwrap();
                mr_a.write((i * SLOT) as u64, payload).unwrap();
            }
            let wrs: Vec<SendWr> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| SendWr::send(i as u64, mr_a.sge((i * SLOT) as u64, p.len() as u32)))
                .collect();
            if batched {
                let mut it = wrs.into_iter().peekable();
                let mut si = 0usize;
                while it.peek().is_some() {
                    let sz = splits[si % splits.len()];
                    si += 1;
                    let chunk: Vec<SendWr> = it.by_ref().take(sz).collect();
                    qp_a.post_send_batch(chunk).unwrap();
                }
            } else {
                for wr in wrs {
                    qp_a.post_send(wr).unwrap();
                }
            }

            // The receiver's stream, in completion order.
            let mut stream: Vec<(u64, Vec<u8>)> = Vec::new();
            for _ in 0..n {
                let rwc = cq_b.wait_one(T).expect("recv completion");
                assert!(rwc.status.is_ok(), "{:?}", rwc.status);
                let mut out = vec![0u8; rwc.byte_len as usize];
                mr_b.read(rwc.wr_id * SLOT as u64, &mut out).unwrap();
                stream.push((rwc.wr_id, out));
            }
            // Conservation: every signaled send completes exactly once.
            let mut send_ids: Vec<u64> = (0..n)
                .map(|_| {
                    let swc = cq_a.wait_one(T).expect("send completion");
                    assert!(swc.status.is_ok(), "{:?}", swc.status);
                    swc.wr_id
                })
                .collect();
            send_ids.sort_unstable();
            assert!(cq_a.poll_one().is_none(), "extra send completion");
            assert!(cq_b.poll_one().is_none(), "extra recv completion");
            (stream, send_ids)
        };

        let (single_stream, single_sends) = run(false);
        let (batched_stream, batched_sends) = run(true);
        // Byte-identical streams, identical completion sets.
        prop_assert_eq!(&batched_stream, &single_stream);
        prop_assert_eq!(&batched_sends, &single_sends);
        prop_assert_eq!(batched_sends, (0..n as u64).collect::<Vec<u64>>());
        for (i, (wr_id, bytes)) in batched_stream.iter().enumerate() {
            prop_assert_eq!(*wr_id, i as u64, "receives match in posted order");
            prop_assert_eq!(bytes, &payloads[i]);
        }
    }
}

/// Regression: non-64-byte-aligned payloads staged through the arena must
/// not leak allocator padding — after many unaligned relays both host
/// arenas return to their baseline occupancy.
#[test]
fn unaligned_arena_staging_does_not_leak() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let a = cluster.launch(TenantId::new(1), h0).unwrap();
    let b = cluster.launch(TenantId::new(1), h1).unwrap();
    let mr_a = a.register(16 << 10, AccessFlags::all()).unwrap();
    let mr_b = b.register(16 << 10, AccessFlags::all()).unwrap();
    let cq_a = a.create_cq(32);
    let cq_b = b.create_cq(32);
    let qp_a = a.create_qp(&cq_a, &cq_a, 16, 16).unwrap();
    let qp_b = b.create_qp(&cq_b, &cq_b, 16, 16).unwrap();
    qp_a.connect(qp_b.endpoint()).unwrap();
    qp_b.connect(qp_a.endpoint()).unwrap();

    // 5000 is above ZERO_COPY_THRESHOLD and not a multiple of 64.
    let len = 5000u32;
    mr_a.write(0, &vec![0xEE; len as usize]).unwrap();
    let baseline0 = cluster.agent_of(h0).unwrap().arena().allocated();
    let baseline1 = cluster.agent_of(h1).unwrap().arena().allocated();
    for i in 0..200u64 {
        qp_a.post_send(SendWr::write(i, mr_a.sge(0, len), mr_b.addr(), mr_b.rkey()))
            .unwrap();
        assert!(cq_a.wait_one(T).unwrap().status.is_ok());
    }
    assert_eq!(
        cluster.agent_of(h0).unwrap().arena().allocated(),
        baseline0,
        "sender-host arena back to baseline"
    );
    assert_eq!(
        cluster.agent_of(h1).unwrap().arena().allocated(),
        baseline1,
        "receiver-host arena back to baseline"
    );
}

/// One step of the control-plane interleaving exercised by
/// [`cache_never_disagrees_with_registry_after_convergence`].
#[derive(Debug, Clone, Copy)]
enum ControlOp {
    /// Resolve peer `dst` the way `NetLibrary::resolve` does (cache hit,
    /// authoritative miss, or degraded fallback).
    Resolve(usize),
    /// Migrate container `c` to host `h` (the registry store stays
    /// writable during outages — exactly the deaf-migration case).
    Move(usize, usize),
    /// Cluster-wide orchestrator outage / recovery.
    FailControl,
    RestoreControl,
    /// Per-host control partition of the observer's host / its heal.
    Partition,
    Heal,
    /// Drain the event feed the way the library pump does.
    Drain,
    /// Snapshot-resync if a gap was observed and control answers.
    Resync,
}

fn control_op() -> impl Strategy<Value = ControlOp> {
    prop_oneof![
        (1usize..4).prop_map(ControlOp::Resolve),
        ((1usize..4), (0usize..3)).prop_map(|(c, h)| ControlOp::Move(c, h)),
        Just(ControlOp::FailControl),
        Just(ControlOp::RestoreControl),
        Just(ControlOp::Partition),
        Just(ControlOp::Heal),
        Just(ControlOp::Drain),
        Just(ControlOp::Resync),
    ]
}

/// Apply one feed event to the cache exactly as the library pump does: a
/// cached decision is a *pair* decision, so events about the observer's
/// own host clear the whole cache.
fn apply_event(cache: &LocationCache, my_host: HostId, ev: OrchestratorEvent) {
    match ev {
        OrchestratorEvent::ContainerMoved { ip, .. }
        | OrchestratorEvent::ContainerDown { ip, .. } => cache.invalidate(ip),
        OrchestratorEvent::HostHealthChanged { host, .. }
        | OrchestratorEvent::PathUpdated { host } => {
            if host == my_host {
                cache.clear();
            } else {
                cache.invalidate_host(host);
            }
        }
        OrchestratorEvent::ContainerUp { .. } | OrchestratorEvent::ControlRestored { .. } => {}
    }
}

fn drain_feed(
    cache: &LocationCache,
    my_host: HostId,
    sub: &mut FeedSubscription,
    needs_resync: &mut bool,
) {
    loop {
        match sub.try_next() {
            FeedPoll::Event(ev) => apply_event(cache, my_host, ev),
            FeedPoll::Gap { event, .. } => {
                *needs_resync = true;
                apply_event(cache, my_host, event);
            }
            FeedPoll::Empty | FeedPoll::Disconnected => break,
        }
    }
}

fn resolve_like_library(
    cache: &LocationCache,
    client: &OrchClient,
    src: OverlayIp,
    dst: OverlayIp,
) -> Result<(), Error> {
    if let Some(hit) = cache.lookup(dst) {
        if hit.degraded && client.reachable() {
            // Degraded entries self-heal the moment control answers.
            cache.invalidate(dst);
        } else {
            return Ok(());
        }
    }
    match client.resolve_route(src, dst) {
        Ok((host, registry_gen, transport)) => {
            cache.insert(dst, host, registry_gen, transport);
            Ok(())
        }
        Err(Error::Unavailable(_)) => {
            cache.insert_degraded(dst, TransportKind::TcpHost);
            Ok(())
        }
        Err(e) => Err(e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of publishes (migrations), delivery drops
    /// (outages / partitions), pump drains and snapshot-resyncs never
    /// leave a non-degraded cache entry whose placement generation
    /// disagrees with the orchestrator registry — neither at any quiescent
    /// point mid-run (feed drained, no pending resync, control reachable)
    /// nor after final convergence.
    #[test]
    fn cache_never_disagrees_with_registry_after_convergence(
        ops in prop::collection::vec(control_op(), 1..48),
    ) {
        let orch = Orchestrator::with_defaults();
        let hosts: Vec<HostId> = (0..3u64).map(HostId::new).collect();
        for &h in &hosts {
            orch.add_host(h, HostCaps::paper_testbed()).unwrap();
        }
        let my_host = hosts[0];
        // Tight deadlines: the interleaving exercises many unreachable
        // calls and must not sleep the wall clock for each.
        let client = OrchClient::with_config(
            Arc::clone(&orch),
            Some(my_host),
            orch.telemetry_hub(),
            OrchClientConfig {
                op_deadline: Duration::from_micros(200),
                max_attempts: 2,
                backoff_base: Duration::from_micros(10),
                backoff_cap: Duration::from_micros(50),
            },
        );
        let cache = LocationCache::new();
        let mut sub = client.subscribe(Arc::default());
        let mut needs_resync = false;

        let ids: Vec<ContainerId> = (0..4).map(|i| ContainerId::new(i as u64)).collect();
        let mut ips: Vec<OverlayIp> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let ip = orch
                .register_container(
                    id,
                    TenantId::new(1),
                    ContainerLocation::BareMetal(hosts[i % hosts.len()]),
                    IpAssign::Auto,
                )
                .unwrap();
            ips.push(ip);
        }
        let src = ips[0];

        let check_agreement = |cache: &LocationCache, degraded_ok: bool| {
            for (i, &ip) in ips.iter().enumerate() {
                if let Some(hit) = cache.lookup(ip) {
                    if hit.degraded {
                        prop_assert!(degraded_ok, "degraded entry survived convergence");
                        continue;
                    }
                    let rec = orch.whois(ip).unwrap();
                    prop_assert_eq!(
                        hit.registry_gen, rec.generation,
                        "container {} cached gen {} vs registry {}",
                        i, hit.registry_gen, rec.generation
                    );
                    prop_assert_eq!(hit.host, orch.locate(rec.id).unwrap());
                }
            }
            Ok(())
        };

        for op in ops {
            match op {
                ControlOp::Resolve(d) => {
                    resolve_like_library(&cache, &client, src, ips[d]).unwrap();
                }
                ControlOp::Move(c, h) => {
                    let _ = orch.move_container(ids[c], ContainerLocation::BareMetal(hosts[h]));
                }
                ControlOp::FailControl => orch.fail_control(),
                ControlOp::RestoreControl => orch.restore_control(),
                ControlOp::Partition => orch.partition_control(my_host),
                ControlOp::Heal => orch.heal_control(my_host),
                ControlOp::Drain => {
                    drain_feed(&cache, my_host, &mut sub, &mut needs_resync);
                    // Quiescent point: feed drained, nothing pending.
                    if client.reachable() && !needs_resync {
                        check_agreement(&cache, true)?;
                    }
                }
                ControlOp::Resync => {
                    if needs_resync && client.reachable() {
                        if let Ok(snap) = client.snapshot(my_host) {
                            cache.reconcile(&snap);
                            sub.advance_to(snap.seq);
                            needs_resync = false;
                        }
                    }
                }
            }
        }

        // Converge: restore control, drain the reveal-the-gap events,
        // resync if deaf, and let every degraded decision self-heal.
        orch.restore_control();
        orch.heal_control(my_host);
        drain_feed(&cache, my_host, &mut sub, &mut needs_resync);
        if needs_resync {
            let snap = client.snapshot(my_host).unwrap();
            cache.reconcile(&snap);
            sub.advance_to(snap.seq);
        }
        for dst in ips.iter().skip(1) {
            resolve_like_library(&cache, &client, src, *dst).unwrap();
        }
        check_agreement(&cache, false)?;
    }
}

// --- migration checkpoint / restore / fault interleavings -------------------

/// Binding-phase names the checkpoint wire format interns (the same set
/// `migrate::PHASES` encodes by index).
const PHASE_NAMES: [&str; 5] = ["unbound", "bound", "draining", "rebinding", "error"];

fn qp_record() -> impl Strategy<Value = QpRecord> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), 0usize..5),
        (any::<u64>(), any::<u64>(), any::<u8>()),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (qpn, peer_ip, peer_qpn, phase),
                (epoch, generation, transport_rank),
                (parked_sends, posted_recvs, inbound_pending, in_flight, next_op_id),
            )| QpRecord {
                qpn,
                peer_octets: u32::to_le_bytes(peer_ip),
                peer_qpn,
                phase: PHASE_NAMES[phase],
                epoch,
                generation,
                transport_rank,
                parked_sends,
                posted_recvs,
                inbound_pending,
                in_flight,
                next_op_id,
            },
        )
}

fn mr_record() -> impl Strategy<Value = MrRecord> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
        0u8..8,
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(
            |((lkey, rkey, base_va, len), access_bits, arena_backed, bytes)| MrRecord {
                lkey,
                rkey,
                base_va,
                len,
                access_bits,
                arena_backed,
                bytes,
            },
        )
}

fn ledger_record() -> impl Strategy<Value = LedgerRecord> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(
            |(qpn, tx_next_seq, tx_in_flight, rx_received, rx_parked)| LedgerRecord {
                qpn,
                tx_next_seq,
                tx_in_flight,
                rx_received,
                rx_parked,
            },
        )
}

fn checkpoint() -> impl Strategy<Value = MigrationCheckpoint> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<u64>()),
        prop::collection::vec(qp_record(), 0..4),
        prop::collection::vec(mr_record(), 0..3),
        prop::collection::vec(ledger_record(), 0..4),
    )
        .prop_map(|((id, tenant, ip), (from, to), qps, mrs, ledgers)| {
            let ip = u32::to_le_bytes(ip);
            // Ledgers ride in through the public builder — the same path
            // the socket layer uses to attach its exported records.
            MigrationCheckpoint {
                image: ContainerImage {
                    id: ContainerId::new(id),
                    tenant: TenantId::new(tenant),
                    ip: OverlayIp::from_octets(ip[0], ip[1], ip[2], ip[3]),
                },
                from_host: HostId::new(from),
                to_host: HostId::new(to),
                qps,
                mrs,
                ledgers: Vec::new(),
            }
            .with_ledgers(ledgers)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The checkpoint wire format round-trips arbitrary states exactly,
    /// and any torn write (truncation at any interior point) or single
    /// flipped byte is *detected* — decode refuses rather than restoring
    /// garbage, which is what lets a crash mid-checkpoint abort in place.
    #[test]
    fn checkpoint_roundtrips_and_detects_any_tear(
        cp in checkpoint(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let bytes = cp.encode();
        let back = MigrationCheckpoint::decode(&bytes).expect("intact checkpoint decodes");
        prop_assert_eq!(&back, &cp, "wire roundtrip is lossless");

        // Torn write: a strict prefix never decodes.
        let cut = (cut_frac * (bytes.len() - 1) as f64) as usize;
        prop_assert!(
            MigrationCheckpoint::decode(&bytes[..cut]).is_err(),
            "truncation at {} of {} must be detected", cut, bytes.len()
        );

        // Corruption: flipping any single bit trips the checksum (or the
        // magic); nothing corrupt ever restores.
        let mut torn = bytes.clone();
        let at = (flip_frac * (torn.len() - 1) as f64) as usize;
        torn[at] ^= 1u8 << flip_bit;
        prop_assert!(
            MigrationCheckpoint::decode(&torn).is_err(),
            "bit flip at byte {} must be detected", at
        );
    }
}

/// One step of the migration/fault interleaving exercised below.
#[derive(Debug, Clone, Copy)]
enum MigOp {
    /// One send/recv round trip over the pair (asserting exactly-once
    /// completion and byte-exact delivery).
    Traffic,
    /// Migrate the receiver to `hosts[1 + target]`, optionally tearing
    /// the 2PC at the given crash point.
    Migrate(usize, Option<MigrationCrashPoint>),
}

fn mig_op() -> impl Strategy<Value = MigOp> {
    prop_oneof![
        Just(MigOp::Traffic),
        Just(MigOp::Traffic),
        (
            0usize..2,
            prop_oneof![
                Just(None),
                Just(Some(MigrationCrashPoint::SourceCheckpoint)),
                Just(Some(MigrationCrashPoint::TargetRestore)),
            ]
        )
            .prop_map(|(t, c)| MigOp::Migrate(t, c)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary interleavings of traffic, commits, guarded no-ops and
    /// crash-torn migrations: every signaled WR completes exactly once
    /// with byte-exact payloads, every migration resolves to Committed or
    /// cleanly Aborted (never a wedged QP), the orchestrator's placement
    /// always matches the resolution, and the flight-recorder counters
    /// agree with the outcome tally.
    #[test]
    fn migration_interleavings_conserve_completions(
        ops in prop::collection::vec(mig_op(), 1..8),
    ) {
        let cluster = FreeFlowCluster::with_defaults();
        let hosts: Vec<_> = (0..3).map(|_| cluster.add_host(HostCaps::paper_testbed())).collect();
        let a = cluster.launch(TenantId::new(1), hosts[0]).unwrap();
        let mut b = cluster.launch(TenantId::new(1), hosts[1]).unwrap();
        let mr_a = a.register(8 << 10, AccessFlags::all()).unwrap();
        let mr_b = b.register(8 << 10, AccessFlags::all()).unwrap();
        let cq_a = a.create_cq(64);
        let cq_b = b.create_cq(64);
        let qp_a = a.create_qp(&cq_a, &cq_a, 32, 32).unwrap();
        let qp_b = b.create_qp(&cq_b, &cq_b, 32, 32).unwrap();
        qp_a.connect(qp_b.endpoint()).unwrap();
        qp_b.connect(qp_a.endpoint()).unwrap();

        let bound = |deadline: Duration| {
            let until = std::time::Instant::now() + deadline;
            while !(qp_a.binding_phase() == BindingPhase::Bound
                && qp_b.binding_phase() == BindingPhase::Bound)
            {
                assert!(std::time::Instant::now() < until, "bindings never settled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        let mut wr = 0u64;
        let mut committed = 0u64;
        let mut aborted = 0u64;
        for op in ops {
            match op {
                MigOp::Traffic => {
                    wr += 1;
                    let msg: Vec<u8> = (0..64).map(|k| ((k as u64 + wr) % 251) as u8).collect();
                    qp_b.post_recv(RecvWr::new(wr, mr_b.sge(0, 8 << 10))).unwrap();
                    mr_a.write(0, &msg).unwrap();
                    qp_a.post_send(SendWr::send(wr, mr_a.sge(0, 64))).unwrap();
                    let rwc = cq_b.wait_one(T).expect("recv completion");
                    prop_assert!(rwc.status.is_ok(), "{:?}", rwc.status);
                    prop_assert_eq!(rwc.wr_id, wr, "exactly-once, in order");
                    let swc = cq_a.wait_one(T).expect("send completion");
                    prop_assert!(swc.status.is_ok(), "{:?}", swc.status);
                    prop_assert_eq!(swc.wr_id, wr);
                    let mut out = vec![0u8; 64];
                    mr_b.read(0, &mut out).unwrap();
                    prop_assert_eq!(out, msg);
                }
                MigOp::Migrate(t, crash) => {
                    let from = cluster.orchestrator().locate(b.id()).unwrap();
                    let to = hosts[1 + t];
                    let (moved, report) = cluster.migrate_with(b, to, crash).unwrap();
                    b = moved;
                    if from == to {
                        // Guarded no-op — even with a crash injected, the
                        // guard fires before any phase can tear.
                        prop_assert_eq!(report.outcome, MigrationOutcome::Committed);
                        prop_assert_eq!(report.phase_reached, MigrationPhase::Prepare);
                        prop_assert!(!report.moved);
                    } else {
                        match crash {
                            None => {
                                prop_assert_eq!(report.outcome, MigrationOutcome::Committed);
                                prop_assert!(report.moved);
                                committed += 1;
                            }
                            Some(MigrationCrashPoint::SourceCheckpoint) => {
                                prop_assert_eq!(report.outcome, MigrationOutcome::Aborted);
                                prop_assert_eq!(report.phase_reached, MigrationPhase::Checkpoint);
                                prop_assert!(!report.moved);
                                aborted += 1;
                            }
                            Some(MigrationCrashPoint::TargetRestore) => {
                                prop_assert_eq!(report.outcome, MigrationOutcome::Aborted);
                                prop_assert_eq!(report.phase_reached, MigrationPhase::Restore);
                                prop_assert!(!report.moved);
                                aborted += 1;
                            }
                        }
                    }
                    let resolved = if report.moved { to } else { from };
                    prop_assert_eq!(b.host(), resolved, "handle agrees with resolution");
                    prop_assert_eq!(
                        cluster.orchestrator().locate(b.id()).unwrap(),
                        resolved,
                        "placement agrees with resolution"
                    );
                    bound(T);
                }
            }
        }

        // Conservation at quiescence: no surplus completions anywhere,
        // and the flight-recorder tally matches what actually happened.
        prop_assert!(cq_a.poll_one().is_none(), "extra send completion");
        prop_assert!(cq_b.poll_one().is_none(), "extra recv completion");
        let snap = cluster.telemetry();
        prop_assert_eq!(snap.counter_total("ff_migrations_committed_total"), committed);
        prop_assert_eq!(snap.counter_total("ff_migrations_aborted_total"), aborted);
        let blackouts = snap
            .histogram("ff_migration_blackout_ns", freeflow_telemetry::LabelSet::none())
            .map(|h| h.count())
            .unwrap_or(0);
        prop_assert_eq!(blackouts, committed + aborted, "every real 2PC records a blackout");
    }
}

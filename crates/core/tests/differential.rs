//! Differential suite: one Verbs program, three data planes, one answer.
//!
//! FreeFlow's claim is that an unmodified Verbs application cannot tell
//! which data plane it got. Each program here runs on a co-located pair
//! (shared memory), on a cross-host pair relayed over RDMA
//! (`paper_testbed` hosts) and on one relayed over TCP (`commodity`
//! hosts). The suite compares, per completion queue and in order, every
//! completion's `wr_id`, status, opcode, `byte_len` and immediate; every
//! post's result; and the final bytes of both memory regions.
//!
//! Programs are seeded. A generated program posts receives, WR chains
//! (SEND, WRITE, WRITE_WITH_IMM, READ; signaled or not) with lengths
//! across the 4 KiB arena threshold and the 1 MiB inline-relay bound, bad
//! lkeys and rkeys, out-of-bounds and wrapping addresses, short and empty
//! receives, receives posted in INIT, operations parked for a receive
//! (RNR), and `enter_error` on either side. It ends with both QPs in the
//! error state, so nothing is left in flight.
//!
//! Every generated program also gets a seeded fault step: on the RDMA
//! relay plane the sender's NIC dies while its operations are in flight
//! (parked at the receiver, or posted into the outage), with routes
//! converging at once or only after the sender's QP failed over, and the
//! NIC comes back later, which upgrades the sender back onto RDMA. Every
//! rebind — the failover and the upgrade alike — carries what is
//! unanswered across and re-sends it without waiting for an answer, and
//! the responder executes each operation once, so the trace must still
//! equal the shared-memory run's. The fault step waits until the
//! sender's library has applied the NIC's death, so what follows meets
//! the same binding on every run. On the other planes the step is a
//! no-op.
//!
//! The shared-memory run is synchronous: its completion counts after each
//! step are the reference the relayed runs wait for before the next step,
//! so every run sees the same interleaving of posts and answers. A
//! failure prints the seed, the program and the first difference.

use freeflow::binding::BindingPhase;
use freeflow::{Container, FfQp, FreeFlowCluster};
use freeflow_types::{HostCaps, TenantId, TransportKind};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr, Sge, WorkCompletion, WrOpcode};
use freeflow_verbs::{CompletionQueue, MemoryRegion, QpState, VerbsResult};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Each side's memory region.
const MR_LEN: u32 = 4 << 20;
/// The upper half of each region: B's receive buffers, A's READ
/// destinations. One-sided ops target B's lower half, and A's other WRs
/// gather from its lower half — a WR's buffer is the application's to
/// leave alone until it completes, so no READ lands where a later WR of
/// its chain gathers.
const HALF: u32 = 2 << 20;
/// The relay's inline bound (`FfQp::MAX_INLINE_RELAY`).
const INLINE: u32 = 1 << 20;
/// Lengths a generated op picks from: both sides of the arena threshold
/// and of the inline-relay bound.
const LENS: [u32; 10] = [
    0,
    1,
    64,
    4095,
    4096,
    4097,
    65536,
    INLINE,
    INLINE + 1,
    2 << 20,
];
/// How long a relayed run may take to catch up with the reference.
const SETTLE: Duration = Duration::from_secs(5);
/// Programs per tier-1 run; the long (ignored) run does ten times as many.
const PROGRAMS: u64 = 48;

/// A data plane under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plane {
    Shm,
    RelayRdma,
    RelayTcp,
}

const PLANES: [Plane; 3] = [Plane::Shm, Plane::RelayRdma, Plane::RelayTcp];

/// What a generated WR gets wrong, if anything.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    BadLkey,
    LocalOob,
    BadRkey,
    RemoteOob,
    RemoteWrap,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Send,
    Write,
    WriteImm,
    Read,
}

#[derive(Debug, Clone)]
struct Wr {
    kind: Kind,
    len: u32,
    /// Offset of the local SGE in A's region (in its upper half for a
    /// READ).
    local: u32,
    /// Offset of the remote address in B's region.
    remote: u32,
    signaled: bool,
    fault: Fault,
}

#[derive(Debug, Clone)]
enum Step {
    /// Post receives on B, one per capacity (0: an empty receive).
    Recv(Vec<u32>),
    /// Post one chain on A.
    Chain(Vec<Wr>),
    /// `enter_error` on A (`true`) or on B.
    Fail(bool),
    /// The RDMA relay plane's sender NIC dies; routes converge at once,
    /// or (`late`) only after A's QP failed over.
    Fault { late: bool },
    /// The NIC comes back, and routes converge onto it.
    Restore,
}

#[derive(Debug, Clone, Default)]
struct Program {
    /// Receives B posts in INIT, before either side connects.
    early: Vec<u32>,
    steps: Vec<Step>,
}

/// splitmix64: seeded, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A length, weighted toward the cheap ones.
    fn len(&mut self) -> u32 {
        if self.chance(80) {
            LENS[self.below(7) as usize]
        } else {
            LENS[7 + self.below(3) as usize]
        }
    }
}

/// `prog` with a fault step and, after it, a restore step, at seeded
/// positions. The positions come from their own stream, so the program
/// around them is the one `generate` made.
fn with_fault(mut prog: Program, seed: u64) -> Program {
    let mut rng = Rng(seed ^ 0xFA17_FA17);
    let n = prog.steps.len() as u64;
    let at = rng.below(n + 1) as usize;
    let late = rng.chance(50);
    let back = at + 1 + rng.below(n - at as u64 + 1) as usize;
    prog.steps.insert(at, Step::Fault { late });
    prog.steps.insert(back, Step::Restore);
    prog
}

fn generate(seed: u64) -> Program {
    let mut rng = Rng(seed);
    let recvs = |rng: &mut Rng| -> Vec<u32> {
        (0..1 + rng.below(3))
            .map(|_| match rng.below(4) {
                0 => 0,
                1 => 64,
                _ => rng.len(),
            })
            .collect()
    };
    let early = if rng.chance(30) {
        recvs(&mut rng)
    } else {
        Vec::new()
    };
    let steps = (0..2 + rng.below(5))
        .map(|_| match rng.below(10) {
            0..=2 => Step::Recv(recvs(&mut rng)),
            3..=8 => Step::Chain(
                (0..1 + rng.below(3))
                    .map(|_| {
                        let len = rng.len();
                        let room = |area: u32| (area - len.min(area)) as u64;
                        Wr {
                            kind: [Kind::Send, Kind::Write, Kind::WriteImm, Kind::Read]
                                [rng.below(4) as usize],
                            len,
                            local: rng.below(room(HALF) + 1) as u32,
                            remote: rng.below(room(HALF) + 1) as u32,
                            signaled: rng.chance(75),
                            fault: if rng.chance(80) {
                                Fault::None
                            } else {
                                [
                                    Fault::BadLkey,
                                    Fault::LocalOob,
                                    Fault::BadRkey,
                                    Fault::RemoteOob,
                                    Fault::RemoteWrap,
                                ][rng.below(5) as usize]
                            },
                        }
                    })
                    .collect(),
            ),
            _ => Step::Fail(rng.chance(50)),
        })
        .collect();
    Program { early, steps }
}

/// A completion as the suite compares it.
type Wc = (u64, String, String, u64, Option<u32>);

fn wc(w: WorkCompletion) -> Wc {
    (
        w.wr_id,
        format!("{:?}", w.status),
        format!("{:?}", w.opcode),
        w.byte_len,
        w.imm,
    )
}

/// A call's result: `Ok`, or the error's variant name.
fn outcome(r: VerbsResult<()>) -> String {
    match r {
        Ok(()) => "Ok".into(),
        Err(e) => format!("{e:?}")
            .split([' ', '{', '('])
            .next()
            .unwrap_or_default()
            .to_string(),
    }
}

/// Everything a run can observe.
#[derive(Debug, PartialEq)]
struct Trace {
    calls: Vec<String>,
    /// A's send and receive CQs, then B's.
    cqs: [Vec<Wc>; 4],
    mr_a: Vec<u8>,
    mr_b: Vec<u8>,
}

/// The seeded initial contents of A's region (`false`) or B's.
fn pattern(b: bool) -> &'static [u8] {
    static PATTERNS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    let [a, b_] = PATTERNS.get_or_init(|| {
        let mut rng = Rng(0xF4EE_F10E);
        let mut fill = || -> Vec<u8> {
            (0..MR_LEN / 8)
                .flat_map(|_| rng.next().to_le_bytes())
                .collect()
        };
        [fill(), fill()]
    });
    if b {
        b_
    } else {
        a
    }
}

/// One side of a pair.
struct Side {
    c: Container,
    mr: Arc<MemoryRegion>,
    scq: Arc<CompletionQueue>,
    rcq: Arc<CompletionQueue>,
    qp: Arc<FfQp>,
}

fn side(cluster: &FreeFlowCluster, host: freeflow_types::HostId, b: bool) -> Side {
    let c = cluster.launch(TenantId::new(1), host).unwrap();
    let mr = c.register(MR_LEN.into(), AccessFlags::all()).unwrap();
    mr.write(0, pattern(b)).unwrap();
    let (scq, rcq) = (c.create_cq(256), c.create_cq(256));
    let qp = c.create_qp(&scq, &rcq, 16, 16).unwrap();
    // Compare answers, not deadlines: no relayed op may time out.
    qp.set_relay_timeout(Duration::from_secs(60));
    Side {
        c,
        mr,
        scq,
        rcq,
        qp,
    }
}

/// Run `prog` on `plane`. With `reference` (per-step completion counts
/// of the shared-memory run), wait for each step to catch up before the
/// next; return this run's own counts.
fn run(plane: Plane, prog: &Program, reference: Option<&[[usize; 4]]>) -> (Trace, Vec<[usize; 4]>) {
    let cluster = FreeFlowCluster::with_defaults();
    let caps = match plane {
        Plane::RelayTcp => HostCaps::commodity(),
        _ => HostCaps::paper_testbed(),
    };
    let h0 = cluster.add_host(caps);
    let h1 = match plane {
        Plane::Shm => h0,
        _ => cluster.add_host(caps),
    };
    let faults = plane == Plane::RelayRdma;
    let (a, b) = (side(&cluster, h0, false), side(&cluster, h1, true));
    let mut calls = Vec::new();
    let mut cqs: [Vec<Wc>; 4] = Default::default();
    let mut counts = Vec::new();
    let queues = [&a.scq, &a.rcq, &b.scq, &b.rcq];
    let mut next_recv = 0u32;
    let mut post_recvs = |calls: &mut Vec<String>, caps: &[u32], id: &mut u64| {
        for &cap in caps {
            *id += 1;
            let wr = match cap {
                0 => RecvWr::empty(*id),
                _ => {
                    let off = HALF + next_recv % (MR_LEN - HALF - cap.min(HALF) + 1);
                    next_recv = next_recv.wrapping_add(4099);
                    RecvWr::new(*id, b.mr.sge(off.into(), cap.min(HALF)))
                }
            };
            calls.push(outcome(b.qp.post_recv(wr)));
        }
    };
    let settle = |cqs: &mut [Vec<Wc>; 4], step: usize| {
        let want = reference.map(|r| r[step]);
        let deadline = Instant::now() + SETTLE;
        // Nothing of A's is on its way: every op it still waits on is
        // parked at B for a receive.
        while a.qp.unanswered() > b.qp.parked_inbound() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        for (i, cq) in queues.iter().enumerate() {
            while let Some(w) = cq.poll_one() {
                cqs[i].push(wc(w));
            }
            while want.is_some_and(|w| cqs[i].len() < w[i]) {
                let left = deadline.saturating_duration_since(Instant::now());
                match cq.wait_one(left) {
                    Some(w) => cqs[i].push(wc(w)),
                    None => break,
                }
            }
        }
        [cqs[0].len(), cqs[1].len(), cqs[2].len(), cqs[3].len()]
    };

    // Step 0: INIT, receives posted in INIT, connect.
    let mut recv_id = 1000u64;
    calls.push(outcome(a.qp.modify_to_init()));
    calls.push(outcome(b.qp.modify_to_init()));
    post_recvs(&mut calls, &prog.early, &mut recv_id);
    for (me, peer) in [(&a, &b), (&b, &a)] {
        calls.push(outcome(me.qp.modify_to_rtr(peer.qp.endpoint())));
    }
    calls.push(outcome(a.qp.modify_to_rts()));
    calls.push(outcome(b.qp.modify_to_rts()));
    counts.push(settle(&mut cqs, 0));

    let mut wr_id = 0u64;
    // Late convergence owed.
    let mut stale = false;
    let last = [Step::Fail(true), Step::Fail(false)];
    for (i, step) in prog.steps.iter().chain(&last).enumerate() {
        // Routes converge before B answers anything, so no answer of B's
        // dies on the dead wire with nothing of A's to ask again.
        if stale && !matches!(step, Step::Chain(_)) {
            cluster.refresh_routes();
            stale = false;
        }
        match step {
            Step::Recv(caps) => post_recvs(&mut calls, caps, &mut recv_id),
            Step::Chain(wrs) => {
                let chain: Vec<SendWr> = (wrs.iter())
                    .map(|w| {
                        wr_id += 1;
                        send_wr(wr_id, w, &a.mr, &b.mr)
                    })
                    .collect();
                calls.push(outcome(a.qp.post_send_batch(chain)));
                if stale {
                    // Converge once A failed over, or has nothing left
                    // that could: after its own re-send met the stale
                    // route too.
                    let deadline = Instant::now() + SETTLE;
                    while a.qp.failover_count() == 0
                        && a.qp.unanswered() > 0
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    cluster.refresh_routes();
                    stale = false;
                }
            }
            Step::Fail(on_a) => match on_a {
                true => a.qp.enter_error(),
                false => b.qp.enter_error(),
            },
            Step::Fault { late } if faults => {
                // A's library drops its entry for B when it applies the
                // NIC's death, and its walk that follows resolves B
                // again, under a fresh generation.
                let cache = a.c.lib().cache();
                let entry = cache.generation_of(b.c.ip());
                let applied = || {
                    cache
                        .generation_of(b.c.ip())
                        .is_some_and(|g| Some(g) != entry)
                };
                cluster.fail_nic(h0).unwrap();
                match late {
                    true => stale = true,
                    false => cluster.refresh_routes(),
                }
                // The health change fails A over off RDMA if it has ops
                // unanswered; if not, its next send meets the dead wire.
                let deadline = Instant::now() + SETTLE;
                while a.qp.state() != QpState::Error
                    && (!applied()
                        || (a.qp.unanswered() > 0
                            && a.qp.path().transport() == Some(TransportKind::Rdma)))
                    && Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            Step::Restore if faults => {
                cluster.restore_nic(h0).unwrap();
                cluster.refresh_routes();
                // A planned upgrade back onto RDMA follows at once.
                let deadline = Instant::now() + SETTLE;
                while !(a.qp.state() == QpState::Error
                    || (a.qp.binding_phase() == BindingPhase::Bound
                        && a.qp.path().transport() == Some(TransportKind::Rdma)))
                    && Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            Step::Fault { .. } | Step::Restore => {}
        }
        counts.push(settle(&mut cqs, i + 1));
    }
    let trace = Trace {
        calls,
        cqs,
        mr_a: a.mr.snapshot(),
        mr_b: b.mr.snapshot(),
    };
    (trace, counts)
}

fn send_wr(wr_id: u64, w: &Wr, mr_a: &MemoryRegion, mr_b: &MemoryRegion) -> SendWr {
    let local = match w.kind {
        Kind::Read => HALF + w.local,
        _ => w.local,
    };
    let mut sge = Sge {
        addr: mr_a.addr() + u64::from(local),
        len: w.len,
        lkey: mr_a.lkey(),
    };
    let (mut addr, mut rkey) = (mr_b.addr() + u64::from(w.remote), mr_b.rkey());
    match w.fault {
        Fault::None => {}
        Fault::BadLkey => sge.lkey = mr_a.lkey() + 1000,
        Fault::LocalOob => sge.addr = mr_a.addr() + u64::from(MR_LEN) - 1,
        Fault::BadRkey => rkey = mr_b.rkey() + 1000,
        Fault::RemoteOob => addr = mr_b.addr() + u64::from(MR_LEN) - u64::from(w.len / 2),
        Fault::RemoteWrap => addr = u64::MAX - 3,
    }
    if w.fault == Fault::LocalOob && w.len < 2 {
        sge.len = 2;
    }
    if w.fault == Fault::RemoteOob && w.len < 2 {
        addr = mr_b.addr() + u64::from(MR_LEN) + 1;
    }
    let opcode = match w.kind {
        Kind::Send => WrOpcode::Send,
        Kind::Write => WrOpcode::Write {
            remote_addr: addr,
            rkey,
        },
        Kind::WriteImm => WrOpcode::WriteWithImm {
            remote_addr: addr,
            rkey,
            imm: wr_id as u32 ^ 0xABCD,
        },
        Kind::Read => WrOpcode::Read {
            remote_addr: addr,
            rkey,
        },
    };
    SendWr {
        wr_id,
        opcode,
        sge: vec![sge],
        inline_data: None,
        signaled: w.signaled,
    }
}

/// Where two traces first differ, for the failure message.
fn first_difference(a: &Trace, b: &Trace) -> String {
    if a.calls != b.calls {
        return format!("post results:\n  {:?}\n  {:?}", a.calls, b.calls);
    }
    for (i, name) in ["A send", "A recv", "B send", "B recv"].iter().enumerate() {
        if a.cqs[i] != b.cqs[i] {
            return format!("{name} CQ:\n  {:?}\n  {:?}", a.cqs[i], b.cqs[i]);
        }
    }
    for (name, x, y) in [("A", &a.mr_a, &b.mr_a), ("B", &a.mr_b, &b.mr_b)] {
        if let Some(at) = (0..x.len()).find(|&i| x[i] != y[i]) {
            return format!("{name}'s region first differs at byte {at}");
        }
    }
    "no difference".into()
}

/// Run `prog` on every plane and require one answer. Returns the
/// shared-memory trace.
fn differential(what: &str, prog: &Program) -> Trace {
    let (reference, counts) = run(Plane::Shm, prog, None);
    for plane in &PLANES[1..] {
        let (trace, _) = run(*plane, prog, Some(&counts));
        assert!(
            trace == reference,
            "{what}: {plane:?} differs from Shm\n{prog:#?}\n{}",
            first_difference(&reference, &trace)
        );
    }
    reference
}

fn generated(programs: u64) {
    for seed in 0..programs {
        differential(&format!("seed {seed}"), &with_fault(generate(seed), seed));
    }
}

#[test]
fn generated_programs_answer_alike_on_every_plane() {
    generated(PROGRAMS);
}

#[test]
#[ignore = "long run: ten times the tier-1 programs"]
fn generated_programs_answer_alike_on_every_plane_long() {
    generated(10 * PROGRAMS);
}

fn wr(kind: Kind, len: u32) -> Wr {
    Wr {
        kind,
        len,
        local: 0,
        remote: 0,
        signaled: true,
        fault: Fault::None,
    }
}

// --- named regressions: each once answered differently on shm and relay ---

#[test]
fn a_send_into_a_short_receive_fails_the_sender_alike() {
    let prog = Program {
        early: Vec::new(),
        steps: vec![
            Step::Recv(vec![64]),
            Step::Chain(vec![wr(Kind::Send, 1000)]),
        ],
    };
    let t = differential("short receive", &prog);
    assert_eq!(t.cqs[0][0].1, "RemoteOperationError");
    assert_eq!(t.cqs[3][0].1, "LocalLengthError");
}

#[test]
fn write_with_imm_reports_its_length_on_both_sides() {
    let prog = Program {
        early: Vec::new(),
        steps: vec![
            Step::Recv(vec![0]),
            Step::Chain(vec![wr(Kind::WriteImm, 64)]),
        ],
    };
    let t = differential("write with imm", &prog);
    assert_eq!((t.cqs[0][0].1.as_str(), t.cqs[0][0].3), ("Success", 64));
    assert_eq!(
        (t.cqs[3][0].2.as_str(), t.cqs[3][0].3),
        ("RecvRdmaWithImm", 64)
    );
}

#[test]
fn a_two_mib_read_succeeds_on_every_plane() {
    let prog = Program {
        early: Vec::new(),
        steps: vec![Step::Chain(vec![wr(Kind::Read, 2 << 20)])],
    };
    let t = differential("2 MiB read", &prog);
    assert_eq!(
        (t.cqs[0][0].1.as_str(), t.cqs[0][0].3),
        ("Success", 2 << 20)
    );
}

#[test]
fn a_receive_posted_in_init_is_kept() {
    let prog = Program {
        early: vec![4096],
        steps: vec![Step::Chain(vec![wr(Kind::Send, 100)])],
    };
    let t = differential("receive in INIT", &prog);
    assert_eq!((t.cqs[3][0].1.as_str(), t.cqs[3][0].3), ("Success", 100));
    assert_eq!(t.cqs[0][0].1, "Success");
}

#[test]
fn a_parked_send_fails_when_the_receiver_enters_error() {
    let prog = Program {
        early: Vec::new(),
        steps: vec![Step::Chain(vec![wr(Kind::Send, 64)]), Step::Fail(false)],
    };
    let t = differential("parked send, receiver fails", &prog);
    assert_eq!(t.cqs[0][0].1, "RetryExcError");
}

#[test]
fn a_wrapping_remote_address_is_an_access_error() {
    for kind in [Kind::Write, Kind::Read] {
        let prog = Program {
            early: Vec::new(),
            steps: vec![Step::Chain(vec![Wr {
                fault: Fault::RemoteWrap,
                ..wr(kind, 8)
            }])],
        };
        let t = differential("wrapping remote address", &prog);
        assert_eq!(t.cqs[0][0].1, "RemoteAccessError");
    }
}

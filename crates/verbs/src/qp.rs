//! Reliable-connected queue pairs.
//!
//! The QP is where Verbs semantics live: the
//! `RESET → INIT → RTR → RTS` state machine, bounded send/receive queues,
//! the four operations (`SEND`/`RECV`, `WRITE`, `READ`, `WRITE_WITH_IMM`)
//! and their completion rules. Operations execute immediately against the
//! peer QP found through the [`crate::network::VerbsNetwork`] — timing is
//! the simulator's concern (`freeflow-netsim`), semantics are this
//! module's.
//!
//! There is one send path, [`QueuePair::post_send_chain`]: as in
//! `ibv_post_send`, which takes a WR list, a single post is a chain of
//! one. A payload leaves through the one gather (`Device::gather`),
//! which resolves the requester's SGEs and moves no byte, and lands
//! through the one scatter ([`Device::scatter`]) or, for a WRITE, its
//! target MR. Either way its bytes are copied once, straight from the
//! requester's MRs into the responder's, with no buffer between; a READ
//! copies the responder's MR straight into the requester's SGEs. Only a
//! SEND parked for a receive keeps a copy of its own.
//!
//! There is one responder too: a QP's receive side
//! ([`QueuePair::answer_send`], [`QueuePair::answer_write`],
//! [`QueuePair::answer_read`]) answers a peer on this fabric and an
//! operation FreeFlow relayed from another host alike, so the two data
//! planes cannot answer differently. A relayed operation that parks is
//! answered later through the QP's [`RelaySink`]. Operations parked here
//! when the QP enters the error state are answered
//! [`WcStatus::RetryExcError`].
//!
//! ## Deviations from `libibverbs`, documented
//!
//! * Local gather errors (bad lkey, out-of-bounds SGE) are *synchronous*
//!   `Err` returns from the post instead of async completions — clearer
//!   for a safe-Rust API, same observable effect (the WR does not run and
//!   gives back its send-queue slot).
//! * Receiver-not-ready: incoming `SEND`s (and `WRITE_WITH_IMM`
//!   notifications) queue at the target until a receive is posted,
//!   modelling the common `rnr_retry = 7` (infinite) configuration. The
//!   sender's completion is generated when the match happens, as it would
//!   be on real RC hardware after the retry succeeds.

use crate::cq::CompletionQueue;
use crate::device::Device;
use crate::error::{VerbsError, VerbsResult, WcStatus};
use crate::mr::{MemoryRegion, Payload, Span};
use crate::wr::{RecvWr, SendWr, WcOpcode, WorkCompletion, WrOpcode};
use freeflow_types::OverlayIp;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// QP connection states (subset of `ibv_qp_state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Fresh; nothing may be posted.
    Reset,
    /// Initialized; receives may be posted.
    Init,
    /// Ready to receive; the peer endpoint is known.
    Rtr,
    /// Ready to send (fully connected).
    Rts,
    /// Broken; all work is flushed.
    Error,
}

impl QpState {
    /// Short name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            QpState::Reset => "RESET",
            QpState::Init => "INIT",
            QpState::Rtr => "RTR",
            QpState::Rts => "RTS",
            QpState::Error => "ERROR",
        }
    }
}

/// The (overlay address, QPN) pair that identifies a QP fabric-wide —
/// what peers exchange out of band to connect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpEndpoint {
    /// Overlay IP of the owning device.
    pub addr: OverlayIp,
    /// Queue-pair number on that device.
    pub qpn: u32,
}

impl fmt::Display for QpEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.addr, self.qpn)
    }
}

/// Who waits on an inbound operation's answer: a QP on this fabric, whose
/// WR the engine completes itself, or an operation FreeFlow relayed from
/// another host, answered through the QP's [`RelaySink`] if it parks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requester {
    /// The requesting QP.
    pub qp: QpEndpoint,
    /// Its WR's cookie; for a relayed operation, the relay's op id.
    pub wr_id: u64,
    /// Whether the operation was relayed.
    pub relayed: bool,
}

/// The receive side's answer to one inbound operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Answered at once: the status the requester's completion carries.
    Now(WcStatus),
    /// Parked for a receive (RNR): answered when one is posted, or with
    /// [`WcStatus::RetryExcError`] if this QP enters the error state first.
    Parked,
}

/// Answers a parked relayed operation: its requester, the requester's
/// status and the bytes delivered.
pub type RelaySink = Box<dyn Fn(Requester, WcStatus, u64) + Send + Sync>;

/// An inbound two-sided operation parked until a receive is posted.
struct PendingInbound {
    from: Requester,
    /// `Some` for SEND payload; `None` for WRITE_WITH_IMM (data already
    /// placed).
    payload: Option<Vec<u8>>,
    byte_len: u64,
    imm: Option<u32>,
}

struct QpInner {
    state: QpState,
    peer: Option<QpEndpoint>,
    rq: VecDeque<RecvWr>,
    inbound_pending: VecDeque<PendingInbound>,
    sq_outstanding: usize,
    /// Sends parked at the peer waiting for a receive (`wr_id`,
    /// `signaled`, opcode), in post order. Tracked so that a QP entering
    /// the error state can flush them — otherwise a dead transport leaves
    /// them in limbo and the application hangs waiting for completions.
    sq_deferred: Vec<(u64, bool, WcOpcode)>,
    /// The requester this QP last refused. Its later operations are
    /// answered [`WcStatus::WrFlushError`] unexecuted, as its own engine
    /// flushes the rest of a chain after a remote error: a relayed chain
    /// is already on its way when the refusal reaches its sender.
    refused: Option<QpEndpoint>,
}

/// A reliable-connected queue pair.
pub struct QueuePair {
    qpn: u32,
    pd_id: u32,
    device: Arc<Device>,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    sq_depth: usize,
    rq_depth: usize,
    inner: Mutex<QpInner>,
    relay_sink: OnceLock<RelaySink>,
    /// See [`QueuePair::set_fabric_open`].
    fabric_open: AtomicBool,
}

impl QueuePair {
    pub(crate) fn create(
        device: Arc<Device>,
        pd_id: u32,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        sq_depth: usize,
        rq_depth: usize,
    ) -> VerbsResult<Arc<Self>> {
        let qpn = device.alloc_qpn();
        let qp = Arc::new(Self {
            qpn,
            pd_id,
            device: Arc::clone(&device),
            send_cq,
            recv_cq,
            sq_depth: sq_depth.max(1),
            rq_depth: rq_depth.max(1),
            inner: Mutex::new(QpInner {
                state: QpState::Reset,
                peer: None,
                rq: VecDeque::new(),
                inbound_pending: VecDeque::new(),
                sq_outstanding: 0,
                sq_deferred: Vec::new(),
                refused: None,
            }),
            relay_sink: OnceLock::new(),
            fabric_open: AtomicBool::new(true),
        });
        device.register_qp(&qp)?;
        Ok(qp)
    }

    /// Queue-pair number.
    pub fn qp_num(&self) -> u32 {
        self.qpn
    }

    /// Protection-domain id this QP belongs to.
    pub fn pd_id(&self) -> u32 {
        self.pd_id
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        self.inner.lock().state
    }

    /// This QP's fabric endpoint (exchange it out of band).
    pub fn endpoint(&self) -> QpEndpoint {
        QpEndpoint {
            addr: self.device.addr(),
            qpn: self.qpn,
        }
    }

    /// The connected peer, once in RTR or later.
    pub fn peer(&self) -> Option<QpEndpoint> {
        self.inner.lock().peer
    }

    /// The send completion queue.
    pub fn send_cq(&self) -> &Arc<CompletionQueue> {
        &self.send_cq
    }

    /// The receive completion queue.
    pub fn recv_cq(&self) -> &Arc<CompletionQueue> {
        &self.recv_cq
    }

    /// Open (the default) or close this QP to its peer on the fabric,
    /// whose posts then fail as if it were absent; a closed QP still
    /// answers what is handed to its responder. FreeFlow keeps a relayed
    /// QP closed: both halves of a Remote→Local collapse open theirs and
    /// wait for the other's.
    pub fn set_fabric_open(&self, open: bool) {
        self.fabric_open.store(open, Ordering::Release);
    }

    /// Whether this QP is open to its peer on the fabric.
    pub fn fabric_open(&self) -> bool {
        self.fabric_open.load(Ordering::Acquire)
    }

    // --- state machine -------------------------------------------------

    fn transition(&self, from: &[QpState], to: QpState) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        if !from.contains(&inner.state) {
            return Err(VerbsError::InvalidQpState {
                actual: inner.state.name(),
                required: from.first().map(|s| s.name()).unwrap_or("?"),
            });
        }
        inner.state = to;
        Ok(())
    }

    /// `RESET → INIT`.
    pub fn modify_to_init(&self) -> VerbsResult<()> {
        self.transition(&[QpState::Reset], QpState::Init)
    }

    /// `INIT → RTR`, binding the peer endpoint.
    pub fn modify_to_rtr(&self, peer: QpEndpoint) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        if inner.state != QpState::Init {
            return Err(VerbsError::InvalidQpState {
                actual: inner.state.name(),
                required: "INIT",
            });
        }
        inner.peer = Some(peer);
        inner.state = QpState::Rtr;
        Ok(())
    }

    /// `RTR → RTS`.
    pub fn modify_to_rts(&self) -> VerbsResult<()> {
        self.transition(&[QpState::Rtr], QpState::Rts)
    }

    /// Convenience: `RESET → INIT → RTR(peer) → RTS`.
    pub fn connect(&self, peer: QpEndpoint) -> VerbsResult<()> {
        self.modify_to_init()?;
        self.modify_to_rtr(peer)?;
        self.modify_to_rts()
    }

    /// Force the QP into the error state, flushing posted receives, the
    /// sends still parked at the peer, and the inbound operations parked
    /// here.
    ///
    /// Receives flush with [`WcStatus::WrFlushError`] as in real verbs.
    /// Parked sends flush with [`WcStatus::RetryExcError`], and so does
    /// every requester whose operation was parked here — from the
    /// sender's perspective the transport stopped responding, which is
    /// exactly what `IBV_WC_RETRY_EXC_ERR` reports, and it is the signal
    /// FreeFlow's router uses to re-path the connection.
    pub fn enter_error(&self) {
        self.fail_with(&self.send_cq, &[]);
    }

    /// Enter the error state, *then* push `first` onto `cq`, then flush as
    /// [`QueuePair::enter_error`] does. Verbs order: whoever observes an
    /// error completion finds the QP already in `Error`, exactly as a NIC
    /// moves the QP before it writes the CQE. A QP already in `Error` only
    /// pushes `first`.
    pub fn fail_with(&self, cq: &CompletionQueue, first: &[WorkCompletion]) {
        for p in self.fail(cq, first) {
            self.answer(&p, WcStatus::RetryExcError);
        }
    }

    /// [`QueuePair::fail_with`], but hand back the inbound operations
    /// parked here instead of answering them: a failed match answers its
    /// own requester first.
    fn fail(&self, cq: &CompletionQueue, first: &[WorkCompletion]) -> VecDeque<PendingInbound> {
        let flushed = {
            let mut inner = self.inner.lock();
            (inner.state != QpState::Error).then(|| {
                inner.state = QpState::Error;
                let sends = std::mem::take(&mut inner.sq_deferred);
                inner.sq_outstanding = inner.sq_outstanding.saturating_sub(sends.len());
                let recvs = std::mem::take(&mut inner.rq);
                (sends, recvs, std::mem::take(&mut inner.inbound_pending))
            })
        };
        cq.push_batch(first);
        let Some((sends, recvs, inbound)) = flushed else {
            return VecDeque::new();
        };
        // Failed sends always complete, signaled or not.
        let sends: Vec<_> = (sends.into_iter())
            .map(|(wr_id, _, opcode)| self.wc(wr_id, WcStatus::RetryExcError, opcode, 0))
            .collect();
        self.send_cq.push_batch(&sends);
        let recvs: Vec<_> = (recvs.into_iter())
            .map(|wr| self.wc(wr.wr_id, WcStatus::WrFlushError, WcOpcode::Recv, 0))
            .collect();
        self.recv_cq.push_batch(&recvs);
        inbound
    }

    // --- receive path ---------------------------------------------------

    /// Post a receive. Allowed in INIT, RTR and RTS.
    ///
    /// If inbound operations are parked waiting for a receive (the RNR
    /// case), the oldest is matched immediately and its requester is
    /// answered.
    pub fn post_recv(&self, wr: RecvWr) -> VerbsResult<()> {
        let p = {
            let mut inner = self.inner.lock();
            match inner.state {
                QpState::Init | QpState::Rtr | QpState::Rts => {}
                s => {
                    return Err(VerbsError::InvalidQpState {
                        actual: s.name(),
                        required: "INIT/RTR/RTS",
                    })
                }
            }
            match inner.inbound_pending.pop_front() {
                Some(p) => p,
                None => {
                    if inner.rq.len() >= self.rq_depth {
                        return Err(VerbsError::QueueFull { which: "recv" });
                    }
                    inner.rq.push_back(wr);
                    return Ok(());
                }
            }
        };
        let payload = p.payload.as_deref().map(Payload::Bytes);
        let matched = self.match_recv(wr, p.from.qp, payload, p.byte_len, p.imm);
        // A failed match answers its own requester before those of the
        // operations it left parked.
        let status = match matched {
            Ok(()) => WcStatus::Success,
            Err(_) => WcStatus::RemoteOperationError,
        };
        self.answer(&p, status);
        for q in matched.err().into_iter().flatten() {
            self.answer(&q, WcStatus::RetryExcError);
        }
        Ok(())
    }

    /// Number of receives currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.inner.lock().rq.len()
    }

    /// Number of inbound operations parked for a receive (RNR).
    pub fn parked_inbound(&self) -> usize {
        self.inner.lock().inbound_pending.len()
    }

    /// Whether `from`'s operation is parked here for a receive: accepted,
    /// and answered when one is posted.
    pub fn parks(&self, from: Requester) -> bool {
        (self.inner.lock().inbound_pending.iter()).any(|p| p.from == from)
    }

    /// Match one inbound operation with one receive WR: scatter its
    /// payload (a WRITE_WITH_IMM notification carries none; one that does
    /// not fit lands nothing) and complete the receive. A failed match
    /// moves this QP to the error state and refuses `from`, whose answer
    /// is then `RemoteOperationError`; the operations still parked here
    /// are handed back, to be flushed once `from` has it.
    fn match_recv(
        &self,
        wr: RecvWr,
        from: QpEndpoint,
        payload: Option<Payload<'_>>,
        byte_len: u64,
        imm: Option<u32>,
    ) -> Result<(), VecDeque<PendingInbound>> {
        let opcode = match payload {
            Some(_) => WcOpcode::Recv,
            None => WcOpcode::RecvRdmaWithImm,
        };
        let status = match payload {
            None => WcStatus::Success,
            Some(data) if wr.capacity() < data.len() => {
                data.discard();
                WcStatus::LocalLengthError
            }
            Some(data) => match self.device.scatter(&wr.sge, data) {
                Ok(()) => WcStatus::Success,
                Err(_) => WcStatus::LocalProtectionError,
            },
        };
        let wc = WorkCompletion {
            imm,
            ..self.wc(wr.wr_id, status, opcode, byte_len)
        };
        if status.is_ok() {
            self.recv_cq.push(wc);
            return Ok(());
        }
        self.inner.lock().refused = Some(from);
        Err(self.fail(&self.recv_cq, &[wc]))
    }

    /// Give a parked operation's requester its answer: a local sender
    /// completes its deferred send, a relayed one hears through the sink.
    fn answer(&self, p: &PendingInbound, status: WcStatus) {
        let byte_len = if status.is_ok() { p.byte_len } else { 0 };
        if p.from.relayed {
            if let Some(sink) = self.relay_sink.get() {
                sink(p.from, status, byte_len);
            }
        } else if let Some(sender) = self.device.network().find_qp(p.from.qp) {
            sender.finish_deferred_send(p.from.wr_id, status, byte_len);
        }
    }

    /// Called on the *sender* when a deferred (RNR-parked) send is
    /// answered. A failure is this QP's error cause: deferred sends posted
    /// after it flush with [`WcStatus::WrFlushError`], as the rest of a
    /// chain does, and those posted before it with
    /// [`WcStatus::RetryExcError`] — all of them when the failure is
    /// itself `RetryExcError`, a transport gone.
    fn finish_deferred_send(&self, wr_id: u64, status: WcStatus, byte_len: u64) {
        let (signaled, opcode, later) = {
            let mut inner = self.inner.lock();
            let Some(i) = inner.sq_deferred.iter().position(|&(id, ..)| id == wr_id) else {
                // Already flushed by an error, which delivered its
                // completion: don't complete a second time.
                return;
            };
            let (_, signaled, opcode) = inner.sq_deferred.remove(i);
            let later: Vec<_> = match status {
                WcStatus::Success | WcStatus::RetryExcError => Vec::new(),
                _ => inner.sq_deferred.drain(i..).collect(),
            };
            inner.sq_outstanding = (inner.sq_outstanding).saturating_sub(1 + later.len());
            (signaled, opcode, later)
        };
        if status.is_ok() {
            if signaled {
                self.send_cq.push(self.wc(wr_id, status, opcode, byte_len));
            }
            return;
        }
        let first: Vec<_> = std::iter::once(self.wc(wr_id, status, opcode, 0))
            .chain(
                (later.into_iter()).map(|(id, _, op)| self.wc(id, WcStatus::WrFlushError, op, 0)),
            )
            .collect();
        self.fail_with(&self.send_cq, &first);
    }

    /// A completion on this QP carrying no immediate.
    fn wc(&self, wr_id: u64, status: WcStatus, opcode: WcOpcode, byte_len: u64) -> WorkCompletion {
        WorkCompletion {
            wr_id,
            status,
            opcode,
            byte_len,
            imm: None,
            qp_num: self.qpn,
        }
    }

    // --- send path -------------------------------------------------------

    /// Post a send-side work request: a chain of one (see
    /// [`QueuePair::post_send_chain`]). Requires RTS.
    pub fn post_send(&self, wr: SendWr) -> VerbsResult<()> {
        self.post_send_chain(std::iter::once(wr))
    }

    /// Post a chain of send work requests (see
    /// [`QueuePair::post_send_chain`]). Requires RTS.
    pub fn post_send_batch(&self, wrs: Vec<SendWr>) -> VerbsResult<()> {
        self.post_send_chain(wrs.into_iter())
    }

    /// Post a chain of send work requests — the one send path, as in
    /// `ibv_post_send`, which takes a WR list: a single post is a chain of
    /// one. Requires RTS.
    ///
    /// * **All-or-nothing admission.** The whole chain reserves send-queue
    ///   space up front; if it does not fit, nothing posts and
    ///   [`VerbsError::QueueFull`] is returned (mirroring a chained
    ///   `ibv_post_send` rejected at the first WR that exceeds the SQ).
    /// * **Ordering and signaling.** WRs execute strictly in chain order;
    ///   signaled WRs complete in that order, unsignaled WRs complete only
    ///   on failure.
    /// * **Amortized cost.** One fabric lookup and one lkey/rkey table hit
    ///   serve the whole chain, and its sender-side
    ///   completions land with one CQ lock acquisition and one doorbell
    ///   ring ([`CompletionQueue::push_batch`]).
    ///
    /// A local error (bad lkey, out-of-bounds SGE, oversized inline data,
    /// a READ destination that is not writable) is returned synchronously:
    /// that WR and the rest of the chain are un-posted and give back their
    /// send-queue slots, while earlier WRs stand, their completions
    /// intact. A remote failure moves the QP to the error state, then
    /// completes the failing WR with its error status and flushes the
    /// remainder of the chain with [`WcStatus::WrFlushError`].
    pub fn post_send_chain(
        &self,
        mut wrs: impl ExactSizeIterator<Item = SendWr>,
    ) -> VerbsResult<()> {
        if wrs.len() == 0 {
            return Ok(());
        }
        let posted_at = std::time::Instant::now();
        let peer = {
            let mut inner = self.inner.lock();
            if inner.state != QpState::Rts {
                return Err(VerbsError::InvalidQpState {
                    actual: inner.state.name(),
                    required: "RTS",
                });
            }
            if inner.sq_outstanding + wrs.len() > self.sq_depth {
                return Err(VerbsError::QueueFull { which: "send" });
            }
            inner.sq_outstanding += wrs.len();
            inner.peer.expect("RTS implies peer")
        };

        let mut completions: Vec<WorkCompletion> = Vec::with_capacity(wrs.len());
        // WRs that resolved inside this call (completed or failed — not
        // deferred): their SQ reservation is released in one step below.
        let mut settled = 0usize;
        let mut errored = false;
        let mut result = Ok(());
        let remote = (self.device.network().find_qp(peer)).filter(|r| r.fabric_open());
        let mut cache = ChainCache::default();
        while let Some(wr) = wrs.next() {
            let opcode = wr.opcode.completes_as();
            let outcome = match &remote {
                Some(r) => self.execute(&wr, r, &mut cache),
                None => Ok(Answer::Now(WcStatus::RemoteOperationError)),
            };
            match outcome {
                Ok(Answer::Now(WcStatus::Success)) => {
                    let byte_len = wr.total_len();
                    settled += 1;
                    // Ops execute synchronously against the peer QP, so the
                    // elapsed time *is* the WR's service latency.
                    self.send_cq
                        .record_wr_latency(posted_at.elapsed().as_nanos() as u64);
                    if wr.signaled {
                        completions.push(self.wc(wr.wr_id, WcStatus::Success, opcode, byte_len));
                    }
                }
                Ok(Answer::Parked) => {
                    // Completes when the peer answers — or flushes if this
                    // QP enters the error state first. Stays outstanding.
                    (self.inner.lock().sq_deferred).push((wr.wr_id, wr.signaled, opcode));
                }
                Err(e) => {
                    // Synchronous local error (documented deviation): this
                    // WR and the unexecuted remainder are un-posted.
                    settled += 1 + wrs.len();
                    result = Err(e);
                    break;
                }
                Ok(Answer::Now(status)) => {
                    settled += 1 + wrs.len();
                    completions.push(self.wc(wr.wr_id, status, opcode, 0));
                    // The rest of the chain flushes — failed WRs always
                    // complete, signaled or not — up to a WR whose local
                    // side is bad: that one and the rest are un-posted, as
                    // on the relay, which stages a whole chain before any
                    // answer comes back.
                    for rem in wrs.by_ref() {
                        if let Err(e) = self.device.check_local(&rem) {
                            result = Err(e);
                            break;
                        }
                        let opcode = rem.opcode.completes_as();
                        completions.push(self.wc(rem.wr_id, WcStatus::WrFlushError, opcode, 0));
                    }
                    errored = true;
                    break;
                }
            }
        }
        {
            let mut inner = self.inner.lock();
            inner.sq_outstanding = inner.sq_outstanding.saturating_sub(settled);
        }
        // Chain completions land before the error-state flush of any
        // deferred WRs, preserving chain order on the CQ.
        if errored {
            self.fail_with(&self.send_cq, &completions);
        } else {
            self.send_cq.push_batch(&completions);
        }
        result
    }

    /// Execute one WR of a chain against the resolved peer's responder,
    /// reusing the chain's MR lookups; `Err` is a local error. The local
    /// side is vetted first, then the remote, and only then do bytes move.
    /// A WRITE target is vetted (remote state, rkey, access) when the
    /// chain first uses its rkey — the chain is admitted as a unit,
    /// mirroring hardware that validates at doorbell time.
    fn execute(&self, wr: &SendWr, remote: &QueuePair, cx: &mut ChainCache) -> VerbsResult<Answer> {
        let me = self.endpoint();
        let from = Requester {
            qp: me,
            wr_id: wr.wr_id,
            relayed: false,
        };
        if let WrOpcode::Read { remote_addr, rkey } = wr.opcode {
            // A READ's SGEs are its destination: vet them, then copy the
            // responder's bytes straight into them.
            self.device.check_scatter(&wr.sge)?;
            let len = wr.total_len();
            let read = remote.answer_read(me, remote_addr, rkey, len, |mr| {
                let source = Span::new(Arc::clone(mr), remote_addr, len)?;
                let local = std::slice::from_ref(&source);
                Ok(self.device.scatter(&wr.sge, Payload::Local(local)))
            });
            return match read {
                Ok(landed) => landed.map(|()| Answer::Now(WcStatus::Success)),
                Err(status) => Ok(Answer::Now(status)),
            };
        }
        let payload = self.device.gather(wr, &mut cx.spans)?;
        let (remote_addr, rkey, imm) = match wr.opcode {
            WrOpcode::Write { remote_addr, rkey } => (remote_addr, rkey, None),
            WrOpcode::WriteWithImm {
                remote_addr,
                rkey,
                imm,
            } => (remote_addr, rkey, Some(imm)),
            _ => return Ok(remote.answer_send(from, payload, None)),
        };
        let mr: &Arc<MemoryRegion> = match &cx.rkey {
            Some(mr) if mr.rkey() == rkey => mr,
            _ => match remote.target(me, rkey, true) {
                Ok(mr) => cx.rkey.insert(mr),
                Err(s) => return Ok(Answer::Now(s)),
            },
        };
        Ok(remote.place(from, mr, remote_addr, payload, imm))
    }

    // --- the responder: every inbound operation, local or relayed --------

    /// Install the sink that answers this QP's parked relayed operations.
    /// Once per QP: a later sink is ignored.
    pub fn set_relay_sink(&self, sink: RelaySink) {
        let _ = self.relay_sink.set(sink);
    }

    /// Answer an inbound SEND: match the oldest posted receive, or park
    /// until one is posted (RNR). The payload is copied only if it parks.
    pub fn answer_send(&self, from: Requester, payload: Payload<'_>, imm: Option<u32>) -> Answer {
        let len = payload.len();
        self.deliver(from, Some(payload), len, imm)
    }

    /// Answer an inbound WRITE — a WRITE_WITH_IMM when `imm` is set, whose
    /// notification then consumes a receive as a SEND does.
    pub fn answer_write(
        &self,
        from: Requester,
        addr: u64,
        rkey: u32,
        data: Payload<'_>,
        imm: Option<u32>,
    ) -> Answer {
        match self.target(from.qp, rkey, true) {
            Ok(mr) => self.place(from, &mr, addr, data, imm),
            Err(s) => {
                data.discard();
                Answer::Now(s)
            }
        }
    }

    /// Answer an inbound READ of `len` bytes at `addr`: vet it, then hand
    /// the MR to `read`, which copies the bytes out — straight into a
    /// local requester's SGEs, or for a relayed READ into a `Vec` or an
    /// arena block. `len` is the requester's choice: the MR's bounds check
    /// runs before `read` allocates anything. The READ's error status when
    /// it is refused, or when `read` fails.
    pub fn answer_read<T>(
        &self,
        from: QpEndpoint,
        addr: u64,
        rkey: u32,
        len: u64,
        read: impl FnOnce(&Arc<MemoryRegion>) -> VerbsResult<T>,
    ) -> Result<T, WcStatus> {
        let mr = self.target(from, rkey, false)?;
        (mr.va_to_offset(addr, len).and_then(|_| read(&mr)))
            .map_err(|_| self.refuse(from, WcStatus::RemoteAccessError))
    }

    /// Vet the MR behind `rkey` for an inbound one-sided op from `from`:
    /// this QP must admit it and the MR must grant the remote WRITE (or
    /// READ).
    fn target(
        &self,
        from: QpEndpoint,
        rkey: u32,
        write: bool,
    ) -> Result<Arc<MemoryRegion>, WcStatus> {
        self.inner.lock().admit(from)?;
        let granted = |mr: &MemoryRegion| match write {
            true => mr.access().remote_write,
            false => mr.access().remote_read,
        };
        match self.device.mr_by_rkey(rkey) {
            Ok(mr) if granted(&mr) => Ok(mr),
            _ => Err(self.refuse(from, WcStatus::RemoteAccessError)),
        }
    }

    /// Place a WRITE's `data` in the vetted `mr`; a WRITE_WITH_IMM's
    /// notification is then delivered.
    fn place(
        &self,
        from: Requester,
        mr: &MemoryRegion,
        addr: u64,
        data: Payload<'_>,
        imm: Option<u32>,
    ) -> Answer {
        let len = data.len();
        if mr.dma_land(addr, data).is_err() {
            return Answer::Now(self.refuse(from.qp, WcStatus::RemoteAccessError));
        }
        match imm {
            Some(_) => self.deliver(from, None, len, imm),
            None => Answer::Now(WcStatus::Success),
        }
    }

    /// Deliver an inbound SEND (or WRITE_WITH_IMM notification, with no
    /// payload): match the oldest posted receive, or park until one is
    /// posted (RNR), keeping a copy of the payload.
    fn deliver(
        &self,
        from: Requester,
        payload: Option<Payload<'_>>,
        byte_len: u64,
        imm: Option<u32>,
    ) -> Answer {
        let wr = {
            let mut inner = self.inner.lock();
            if let Err(s) = inner.admit(from.qp) {
                if let Some(unlanded) = payload {
                    unlanded.discard();
                }
                return Answer::Now(s);
            }
            match inner.rq.pop_front() {
                Some(wr) => wr,
                None => {
                    let payload = match payload.map(Payload::into_vec) {
                        // The arena refused the block: nothing parks.
                        Some(None) => return Answer::Now(WcStatus::RemoteAccessError),
                        kept => kept.flatten(),
                    };
                    inner.inbound_pending.push_back(PendingInbound {
                        from,
                        payload,
                        byte_len,
                        imm,
                    });
                    return Answer::Parked;
                }
            }
        };
        // A receive was waiting, so nothing else is parked here.
        match self.match_recv(wr, from.qp, payload, byte_len, imm) {
            Ok(()) => Answer::Now(WcStatus::Success),
            Err(_) => Answer::Now(WcStatus::RemoteOperationError),
        }
    }

    /// Refuse `from` with `status`: its later operations flush.
    fn refuse(&self, from: QpEndpoint, status: WcStatus) -> WcStatus {
        self.inner.lock().refused = Some(from);
        status
    }
}

impl QpInner {
    /// Whether an inbound operation from `from` may run; its refusal
    /// otherwise. A QP that is not receiving refuses the requester.
    fn admit(&mut self, from: QpEndpoint) -> Result<(), WcStatus> {
        if self.refused == Some(from) {
            return Err(WcStatus::WrFlushError);
        }
        if !matches!(self.state, QpState::Rtr | QpState::Rts) {
            self.refused = Some(from);
            return Err(WcStatus::RemoteOperationError);
        }
        Ok(())
    }
}

/// What a chain pays for once instead of once per WR: its gathers' lkey
/// lookups, through the list each resolves into, and the last rkey's.
#[derive(Default)]
struct ChainCache {
    spans: Vec<Span>,
    rkey: Option<Arc<MemoryRegion>>,
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        self.device.unregister_qp(self.qpn);
    }
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueuePair")
            .field("qpn", &self.qpn)
            .field("state", &self.state().name())
            .field("peer", &self.peer().map(|p| p.to_string()))
            .finish()
    }
}

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
//! one. Payloads leave through the one gather
//! ([`Device::gather_into`]) and land through the one scatter
//! ([`Device::scatter`]).
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
use crate::mr::MemoryRegion;
use crate::wr::{RecvWr, SendWr, WcOpcode, WorkCompletion, WrOpcode};
use freeflow_types::OverlayIp;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

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

/// An inbound two-sided operation: matched against a receive at once, or
/// parked until one is posted.
struct PendingInbound {
    src: QpEndpoint,
    src_wr_id: u64,
    src_signaled: bool,
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
    /// `signaled`). Tracked so that a QP entering the error state can
    /// flush them — otherwise a dead transport leaves them in limbo and
    /// the application hangs waiting for completions.
    sq_deferred: Vec<(u64, bool)>,
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
            }),
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

    /// Force the QP into the error state, flushing posted receives and
    /// any sends still parked at the peer.
    ///
    /// Receives flush with [`WcStatus::WrFlushError`] as in real verbs.
    /// Parked sends flush with [`WcStatus::RetryExcError`] — from the
    /// sender's perspective the transport stopped responding, which is
    /// exactly what `IBV_WC_RETRY_EXC_ERR` reports, and it is the signal
    /// FreeFlow's router uses to re-path the connection.
    pub fn enter_error(&self) {
        let (flushed_recvs, flushed_sends) = {
            let mut inner = self.inner.lock();
            if inner.state == QpState::Error {
                return;
            }
            inner.state = QpState::Error;
            let sends: Vec<(u64, bool)> = inner.sq_deferred.drain(..).collect();
            inner.sq_outstanding = inner.sq_outstanding.saturating_sub(sends.len());
            let recvs: Vec<RecvWr> = inner.rq.drain(..).collect();
            (recvs, sends)
        };
        for (wr_id, _signaled) in flushed_sends {
            // Failed sends always complete, signaled or not.
            let wc = self.wc(wr_id, WcStatus::RetryExcError, WcOpcode::Send, 0);
            self.send_cq.push(wc);
        }
        for wr in flushed_recvs {
            let wc = self.wc(wr.wr_id, WcStatus::WrFlushError, WcOpcode::Recv, 0);
            self.recv_cq.push(wc);
        }
    }

    // --- receive path ---------------------------------------------------

    /// Post a receive. Allowed in INIT, RTR and RTS.
    ///
    /// If inbound operations are parked waiting for a receive (the RNR
    /// case), the oldest is matched immediately and its sender completes.
    pub fn post_recv(&self, wr: RecvWr) -> VerbsResult<()> {
        let pending = {
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
        let status = self.match_recv(wr, &pending);
        // Complete the sender (possibly on another device).
        if let Some(sender) = self.device.network().find_qp(pending.src) {
            sender.finish_deferred_send(pending.src_wr_id, pending.src_signaled, status);
        }
        Ok(())
    }

    /// Number of receives currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.inner.lock().rq.len()
    }

    /// Match one inbound operation with one receive WR: scatter its
    /// payload (a WRITE_WITH_IMM notification carries none) and complete
    /// the receive. A failed match moves this QP to the error state.
    /// Returns the status the sender's completion carries.
    fn match_recv(&self, wr: RecvWr, p: &PendingInbound) -> WcStatus {
        let status = match &p.payload {
            Some(data) if wr.capacity() < data.len() as u64 => WcStatus::LocalLengthError,
            Some(data) if self.device.scatter(&wr.sge, data).is_err() => {
                WcStatus::LocalProtectionError
            }
            _ => WcStatus::Success,
        };
        let opcode = match p.payload {
            Some(_) => WcOpcode::Recv,
            None => WcOpcode::RecvRdmaWithImm,
        };
        self.recv_cq.push(WorkCompletion {
            imm: p.imm,
            ..self.wc(wr.wr_id, status, opcode, p.byte_len)
        });
        if status.is_ok() {
            return WcStatus::Success;
        }
        self.enter_error();
        WcStatus::RemoteOperationError
    }

    /// Called on the *sender* when a deferred (RNR-parked) send finally
    /// matches at the receiver.
    fn finish_deferred_send(&self, wr_id: u64, signaled: bool, status: WcStatus) {
        {
            let mut inner = self.inner.lock();
            match inner.sq_deferred.iter().position(|&(id, _)| id == wr_id) {
                Some(i) => {
                    inner.sq_deferred.remove(i);
                }
                // Already flushed by enter_error(): the failed completion
                // was delivered there, don't complete a second time.
                None if inner.state == QpState::Error => return,
                None => {}
            }
            inner.sq_outstanding = inner.sq_outstanding.saturating_sub(1);
        }
        if signaled || !status.is_ok() {
            self.send_cq.push(self.wc(wr_id, status, WcOpcode::Send, 0));
        }
        if !status.is_ok() {
            self.enter_error();
        }
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
    /// * **Amortized cost.** One fabric lookup, one gather scratch and one
    ///   lkey/rkey table hit serve the whole chain, and its sender-side
    ///   completions land with one CQ lock acquisition and one doorbell
    ///   ring ([`CompletionQueue::push_batch`]).
    ///
    /// A local gather error (bad lkey, out-of-bounds SGE, oversized inline
    /// data) is returned synchronously: that WR and the rest of the chain
    /// are un-posted and give back their send-queue slots, while earlier
    /// WRs stand, their completions intact. A remote failure completes the
    /// failing WR with its error status, flushes the remainder of the
    /// chain with [`WcStatus::WrFlushError`], and moves the QP to the error
    /// state.
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
        let remote = self.device.network().find_qp(peer);
        let mut cache = ChainCache::default();
        while let Some(wr) = wrs.next() {
            let outcome = match &remote {
                Some(r) => self.execute(&wr, r, &mut cache),
                None => Err(ExecError::Remote(WcStatus::RemoteOperationError)),
            };
            match outcome {
                Ok(SendOutcome::Completed { opcode, byte_len }) => {
                    settled += 1;
                    // Ops execute synchronously against the peer QP, so the
                    // elapsed time *is* the WR's service latency.
                    self.send_cq
                        .record_wr_latency(posted_at.elapsed().as_nanos() as u64);
                    if wr.signaled {
                        completions.push(self.wc(wr.wr_id, WcStatus::Success, opcode, byte_len));
                    }
                }
                Ok(SendOutcome::Deferred) => {
                    // Completes at the RNR match — or flushes if this QP
                    // enters the error state first. Stays outstanding.
                    self.inner.lock().sq_deferred.push((wr.wr_id, wr.signaled));
                }
                Err(ExecError::Local(e)) => {
                    // Synchronous local error (documented deviation): this
                    // WR and the unexecuted remainder are un-posted.
                    settled += 1 + wrs.len();
                    result = Err(e);
                    break;
                }
                Err(ExecError::Remote(status)) => {
                    settled += 1 + wrs.len();
                    completions.push(self.wc(wr.wr_id, status, WcOpcode::Send, 0));
                    // The rest of the chain flushes: failed WRs always
                    // complete, signaled or not.
                    completions.extend(
                        wrs.by_ref().map(|rem| {
                            self.wc(rem.wr_id, WcStatus::WrFlushError, WcOpcode::Send, 0)
                        }),
                    );
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
        self.send_cq.push_batch(&completions);
        if errored {
            self.enter_error();
        }
        result
    }

    /// Execute one WR of a chain against the resolved peer, reusing the
    /// chain's scratch and MR lookups. A WRITE target is vetted (remote
    /// state, rkey, access) when the chain first uses its rkey — the chain
    /// is admitted as a unit, mirroring hardware that validates at
    /// doorbell time.
    fn execute(
        &self,
        wr: &SendWr,
        remote: &QueuePair,
        cx: &mut ChainCache,
    ) -> Result<SendOutcome, ExecError> {
        cx.scratch.clear();
        if let WrOpcode::Read { remote_addr, rkey } = wr.opcode {
            // A READ's SGEs are its destination: pull, then scatter.
            remote
                .target(rkey, false)
                .and_then(|mr| {
                    mr.dma_read_into(remote_addr, wr.total_len(), &mut cx.scratch)
                        .map_err(|_| WcStatus::RemoteAccessError)
                })
                .map_err(ExecError::Remote)?;
            self.device
                .scatter(&wr.sge, &cx.scratch)
                .map_err(ExecError::Local)?;
            return Ok(SendOutcome::Completed {
                opcode: WcOpcode::RdmaRead,
                byte_len: cx.scratch.len() as u64,
            });
        }
        self.device
            .gather_into(wr, &mut cx.lkey, &mut cx.scratch)
            .map_err(ExecError::Local)?;
        let byte_len = cx.scratch.len() as u64;
        let imm = match wr.opcode {
            WrOpcode::Write { remote_addr, rkey }
            | WrOpcode::WriteWithImm {
                remote_addr, rkey, ..
            } => {
                let mr: &Arc<MemoryRegion> = match &cx.rkey {
                    Some(mr) if mr.rkey() == rkey => mr,
                    _ => cx
                        .rkey
                        .insert(remote.target(rkey, true).map_err(ExecError::Remote)?),
                };
                mr.dma_write(remote_addr, &cx.scratch)
                    .map_err(|_| ExecError::Remote(WcStatus::RemoteAccessError))?;
                match wr.opcode {
                    WrOpcode::WriteWithImm { imm, .. } => Some(imm),
                    _ => {
                        return Ok(SendOutcome::Completed {
                            opcode: WcOpcode::RdmaWrite,
                            byte_len,
                        })
                    }
                }
            }
            _ => None,
        };
        // A SEND hands its payload over (the peer may park it; the scratch
        // regrows on the next SEND). A WRITE_WITH_IMM's data is already
        // placed: its notification consumes a receive without scattering.
        let (payload, opcode) = match imm {
            None => (Some(std::mem::take(&mut cx.scratch)), WcOpcode::Send),
            Some(_) => (None, WcOpcode::RdmaWrite),
        };
        match remote.deliver_send(PendingInbound {
            src: self.endpoint(),
            src_wr_id: wr.wr_id,
            src_signaled: wr.signaled,
            payload,
            byte_len,
            imm,
        }) {
            Delivery::Matched => Ok(SendOutcome::Completed { opcode, byte_len }),
            Delivery::Parked => Ok(SendOutcome::Deferred),
            Delivery::Refused(s) => Err(ExecError::Remote(s)),
        }
    }

    // --- fabric-facing entry points (called by the peer QP) --------------

    /// Vet the MR behind `rkey` for an inbound one-sided op: this QP must
    /// be in RTR/RTS and the MR must grant the remote WRITE (or READ).
    fn target(&self, rkey: u32, write: bool) -> Result<Arc<MemoryRegion>, WcStatus> {
        if !matches!(self.state(), QpState::Rtr | QpState::Rts) {
            return Err(WcStatus::RemoteOperationError);
        }
        let mr = self
            .device
            .mr_by_rkey(rkey)
            .map_err(|_| WcStatus::RemoteAccessError)?;
        let access = mr.access();
        if (write && access.remote_write) || (!write && access.remote_read) {
            Ok(mr)
        } else {
            Err(WcStatus::RemoteAccessError)
        }
    }

    /// Deliver an inbound SEND (or WRITE_WITH_IMM notification): match the
    /// oldest posted receive, or park until one is posted (RNR).
    fn deliver_send(&self, p: PendingInbound) -> Delivery {
        let wr = {
            let mut inner = self.inner.lock();
            match inner.state {
                QpState::Rtr | QpState::Rts => {}
                _ => return Delivery::Refused(WcStatus::RemoteOperationError),
            }
            match inner.rq.pop_front() {
                Some(wr) => wr,
                None => {
                    inner.inbound_pending.push_back(p);
                    return Delivery::Parked;
                }
            }
        };
        // The sender completes on `Matched` itself.
        match self.match_recv(wr, &p) {
            WcStatus::Success => Delivery::Matched,
            s => Delivery::Refused(s),
        }
    }
}

/// What a chain pays for once instead of once per WR: the payload
/// scratch and the last lkey and rkey lookups.
#[derive(Default)]
struct ChainCache {
    scratch: Vec<u8>,
    lkey: Option<Arc<MemoryRegion>>,
    rkey: Option<Arc<MemoryRegion>>,
}

enum SendOutcome {
    Completed { opcode: WcOpcode, byte_len: u64 },
    Deferred,
}

enum ExecError {
    Local(VerbsError),
    Remote(WcStatus),
}

enum Delivery {
    Matched,
    Parked,
    Refused(WcStatus),
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

//! Cross-host live migration of RDMA state (the paper's Discussion §7).
//!
//! The paper: *"FreeFlow could be a key enabler for containers to achieve
//! both high-performance and capability for live migration. It will
//! require the network library to interact with the orchestrator more
//! frequently, and may require maintaining additional per-connection
//! state within the library. We are currently investigating this
//! further."*
//!
//! This module is that per-connection state, made portable. A container
//! with live QPs, registered MRs and in-flight socket streams moves
//! between physical hosts through a two-phase commit driven by
//! [`crate::cluster::FreeFlowCluster::migrate_with`]:
//!
//! 1. **Prepare** — every QP's [`crate::binding::PathBinding`] is frozen
//!    through the ordinary `Draining` path
//!    (`RebindReason::Migrate`): new work parks, in-flight work settles,
//!    and the pump holds the binding in place. A binding that cannot
//!    freeze (see the *un-collapse boundary* below) rides the move
//!    unfrozen; a freeze that cannot settle in bounded time aborts the
//!    migration before anything moved.
//! 2. **Checkpoint** — a [`MigrationCheckpoint`] captures the container's
//!    identity, every QP's binding epoch/phase/parked-WR counts
//!    ([`QpRecord`]), every MR's keys, VA and full contents
//!    ([`MrRecord`]), and the socket layer's sequence ledgers
//!    ([`LedgerRecord`]). The checkpoint is serialized with a checksum —
//!    a torn write (source crash mid-checkpoint) fails [`MigrationCheckpoint::decode`]
//!    and the migration aborts with the container resumed in place.
//! 3. **Transfer + restore** — the device (QPs, CQs, MRs, keys) is
//!    adopted by the target host's fabric, the library is re-homed
//!    (agent channel, arena, control-plane identity), and arena-backed
//!    MRs are *re-registered* onto the target arena by copying their
//!    bytes (`MemoryRegion::rehome`). The orchestrator's
//!    `ContainerMoved` event fans out over the gap-free feed; peers
//!    drain-and-rebind exactly as for any other move. The restored state
//!    is verified against the checkpoint — a mismatch (target crash
//!    mid-restore) rolls the container back onto the source host.
//! 4. **Commit** — bindings thaw; parked and unconfirmed work replays
//!    exactly once through the existing replay machinery (QP parked
//!    chains, socket resync ledgers). The blackout — freeze to thaw — is
//!    recorded in the `ff_migration_blackout_ns` histogram, and
//!    `Migration{Begin,Commit,Abort}` flight-recorder events bracket the
//!    whole protocol.
//!
//! Every outcome — commit, source abort, target rollback — is a legal
//! `PathBinding` transition sequence; a migration can never wedge a QP.
//!
//! ## The un-collapse boundary
//!
//! A binding that already *collapsed* onto intra-host shared memory
//! (`FfPath::Local`) cannot be torn back out into a relayed path: its
//! receive queue lives inside the host-verbs QP. Such a binding refuses
//! the freeze and rides the migration untouched; if the move separates
//! the pair, both ends observe staleness
//! ([`crate::qp::FfQp::path_is_current`] turns false) and the
//! application re-establishes explicitly via [`reconnect`] — exactly the
//! pre-migration contract. Every *relayed* binding, in contrast,
//! migrates transparently. This is the one remaining boundary of this
//! reproduction's migration story.
//!
//! ## Explicit re-establishment
//!
//! [`reconnect`] remains for applications that prefer an explicit
//! endpoint re-exchange over transparent migration; the new path is
//! re-selected from scratch, so a pair that was shared-memory before the
//! move can come back as RDMA, and vice versa.

use crate::container::Container;
use crate::endpoint::FfEndpoint;
use crate::qp::FfQp;
use freeflow_types::{ContainerId, HostId, OverlayIp, TenantId};
use freeflow_verbs::VerbsResult;

/// Re-establish a connection between two (possibly migrated) QPs.
///
/// Both QPs must be freshly created (RESET); the helper performs the
/// standard three-step transition on each with the other's endpoint.
pub fn reconnect(a: &FfQp, b: &FfQp) -> VerbsResult<()> {
    a.connect(b.endpoint())?;
    b.connect(a.endpoint())
}

/// A portable description of a migrated container's identity — what a
/// checkpoint carries between hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerImage {
    /// The container's stable id.
    pub id: ContainerId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Its overlay IP (unchanged across moves — the portability property).
    pub ip: OverlayIp,
}

impl ContainerImage {
    /// Snapshot a container's identity.
    pub fn of(c: &Container) -> Self {
        Self {
            id: c.id(),
            tenant: c.tenant(),
            ip: c.ip(),
        }
    }
}

/// Helper for tests and examples: the endpoint a migrated peer should
/// redial, given the restored container's fresh QP.
pub fn redial_target(qp: &FfQp) -> FfEndpoint {
    qp.endpoint()
}

// --- the migration protocol types ---------------------------------------

/// Where the two-phase commit currently stands (or how far it got before
/// resolving). Also the vocabulary of crash injection: a
/// [`MigrationCrashPoint`] names the phase that dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigrationPhase {
    /// Freezing every binding through `Draining` and waiting for
    /// in-flight work to settle.
    Prepare,
    /// Capturing and serializing the [`MigrationCheckpoint`] on the
    /// source host.
    Checkpoint,
    /// Re-creating state on the target: device adoption, library
    /// re-home, MR re-registration, restore verification.
    Restore,
    /// Bindings thawed on the target; parked work replaying.
    Commit,
}

impl MigrationPhase {
    /// Interned name (label value / flight-recorder detail).
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Prepare => "prepare",
            MigrationPhase::Checkpoint => "checkpoint",
            MigrationPhase::Restore => "restore",
            MigrationPhase::Commit => "commit",
        }
    }
}

/// How a migration resolved. There is no third state: a crash mid-flight
/// is driven to one of these by the coordinator (abort on source failure,
/// rollback on target failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// The container runs on the target host; every binding thawed there.
    Committed,
    /// The container runs on the *source* host, exactly as before the
    /// attempt; every binding thawed in place.
    Aborted,
}

/// Fault injection for crash-safety tests: which participant dies, and
/// when. Passed to [`crate::cluster::FreeFlowCluster::migrate_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCrashPoint {
    /// The source agent dies mid-checkpoint: the serialized checkpoint is
    /// torn (checksum fails) and the migration must abort with the
    /// container resumed in place.
    SourceCheckpoint,
    /// The target agent dies mid-restore: restore verification fails and
    /// the migration must roll the container back onto the source host.
    TargetRestore,
}

/// What a migration attempt did, as measured by the coordinator.
/// Returned alongside the container by
/// [`crate::cluster::FreeFlowCluster::migrate_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// How the protocol resolved.
    pub outcome: MigrationOutcome,
    /// The furthest phase the protocol entered before resolving.
    pub phase_reached: MigrationPhase,
    /// Whether the container actually changed hosts (false for aborts
    /// and for the guarded same-host no-op).
    pub moved: bool,
    /// Freeze-to-thaw blackout in nanoseconds (zero for the same-host
    /// no-op, which freezes nothing).
    pub blackout_ns: u64,
    /// Serialized checkpoint size in bytes (zero if the protocol
    /// resolved before checkpointing).
    pub checkpoint_bytes: u64,
    /// QPs captured in the checkpoint.
    pub qps: u32,
    /// MRs captured in the checkpoint.
    pub mrs: u32,
}

/// One QP's portion of a checkpoint: binding identity and the counts a
/// restore must conserve (parked chains replay exactly once; posted
/// receives survive; nothing in flight at capture time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpRecord {
    /// Queue pair number (stable across the move — the device migrates).
    pub qpn: u32,
    /// Peer overlay IP (octets; unspecified when unbound).
    pub peer_octets: [u8; 4],
    /// Peer QPN (zero when unbound).
    pub peer_qpn: u32,
    /// Binding phase at capture (interned `BindingPhase::name()` value;
    /// normally `"draining"` — the freeze parks it there).
    pub phase: &'static str,
    /// Binding epoch at capture.
    pub epoch: u64,
    /// Location-cache generation the current path resolved under.
    pub generation: u64,
    /// Transport rank of the current path (`u8::MAX` when unbound).
    pub transport_rank: u8,
    /// Send WRs parked behind the drain, to be replayed exactly once.
    pub parked_sends: u32,
    /// Receives posted and not yet consumed.
    pub posted_recvs: u32,
    /// Inbound payloads parked waiting for receives.
    pub inbound_pending: u32,
    /// Operations in flight at capture — **zero** for a settled freeze;
    /// nonzero marks a checkpoint taken from a crash, which restore
    /// refuses.
    pub in_flight: u32,
    /// Next work-request op id (exactly-once replay bookkeeping).
    pub next_op_id: u64,
}

/// One memory region's portion of a checkpoint: identity plus full
/// contents, so the target host can rebuild the registration byte for
/// byte in its own arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrRecord {
    /// Local key (stable across the move).
    pub lkey: u32,
    /// Remote key (stable across the move — peers' rkeys stay valid).
    pub rkey: u32,
    /// Base virtual address.
    pub base_va: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Access flags, packed (`1` local_write, `2` remote_write,
    /// `4` remote_read).
    pub access_bits: u8,
    /// Whether the region was arena-backed (zero-copy) on the source.
    pub arena_backed: bool,
    /// The region's full contents at capture.
    pub bytes: Vec<u8>,
}

/// One socket channel's reliability-ledger watermarks: what the resync
/// handshake needs so streams cross the migration without reconnecting.
/// Captured by the socket layer (which owns the ledgers) and verified
/// byte-for-byte after restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerRecord {
    /// QPN of the channel carrying the ledgers.
    pub qpn: u32,
    /// Sender: next sequence number to assign.
    pub tx_next_seq: u64,
    /// Sender: frames posted and not yet confirmed (replayed via resync).
    pub tx_in_flight: u32,
    /// Receiver: frames delivered in order (the resync-ack watermark).
    pub rx_received: u64,
    /// Receiver: out-of-order frames parked for reassembly.
    pub rx_parked: u32,
}

/// Everything a container needs to resume on another host: identity,
/// placement, QP bindings, MR contents and socket ledgers. Serialized
/// with [`MigrationCheckpoint::encode`] (checksummed — a torn checkpoint
/// is detected, not restored) and rebuilt with
/// [`MigrationCheckpoint::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationCheckpoint {
    /// The migrating container's identity.
    pub image: ContainerImage,
    /// Host the container is leaving.
    pub from_host: HostId,
    /// Host the container is moving to.
    pub to_host: HostId,
    /// Per-QP state.
    pub qps: Vec<QpRecord>,
    /// Per-MR state (full contents).
    pub mrs: Vec<MrRecord>,
    /// Per-channel socket ledgers (attached by the socket layer via
    /// [`MigrationCheckpoint::with_ledgers`]; empty when the container
    /// runs no streams).
    pub ledgers: Vec<LedgerRecord>,
}

/// Why a checkpoint failed to decode or a migration failed to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// The byte stream ended mid-field (torn write).
    Truncated,
    /// The leading magic/version didn't match — not a checkpoint.
    BadMagic,
    /// The trailing checksum didn't match the contents (corruption or a
    /// crash mid-checkpoint).
    BadChecksum,
    /// A field held a value outside its domain.
    BadValue(&'static str),
    /// Restore verification found live state diverging from the
    /// checkpoint.
    RestoreMismatch(&'static str),
    /// The migration could not even start (e.g. a collapsed local binding
    /// refused to freeze — the un-collapse boundary).
    CannotFreeze(&'static str),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Truncated => write!(f, "checkpoint truncated"),
            MigrateError::BadMagic => write!(f, "not a migration checkpoint (bad magic)"),
            MigrateError::BadChecksum => write!(f, "checkpoint checksum mismatch (torn write)"),
            MigrateError::BadValue(what) => write!(f, "checkpoint field out of domain: {what}"),
            MigrateError::RestoreMismatch(what) => {
                write!(f, "restored state diverges from checkpoint: {what}")
            }
            MigrateError::CannotFreeze(what) => write!(f, "cannot freeze for migration: {what}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// Checkpoint wire-format magic: `"FFM1"`.
const MAGIC: u32 = 0x4646_4D31;

/// Interned binding-phase names, in wire order (`BindingPhase::name()`).
const PHASES: [&str; 5] = ["unbound", "bound", "draining", "rebinding", "error"];

/// FNV-1a over the serialized body — cheap, deterministic, and exactly
/// strong enough to catch the torn writes a crash mid-checkpoint leaves.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], MigrateError> {
        let end = self.at.checked_add(n).ok_or(MigrateError::Truncated)?;
        if end > self.bytes.len() {
            return Err(MigrateError::Truncated);
        }
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, MigrateError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, MigrateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, MigrateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u32` record count, bounded by what the remaining bytes can
    /// hold at `min_record` encoded bytes apiece — a corrupt count that
    /// somehow survived the checksum still cannot over-allocate.
    fn count(&mut self, min_record: usize, what: &'static str) -> Result<usize, MigrateError> {
        let count = self.u32()? as usize;
        if count > (self.bytes.len() - self.at) / min_record {
            return Err(MigrateError::BadValue(what));
        }
        Ok(count)
    }
}

/// Encoded size of one [`QpRecord`], of an [`MrRecord`] with no bytes, and
/// of one [`LedgerRecord`]: the floor each decoded count is checked against.
const QP_RECORD_LEN: usize = 54;
const MR_RECORD_MIN_LEN: usize = 34;
const LEDGER_RECORD_LEN: usize = 28;

impl MigrationCheckpoint {
    /// Capture a frozen container's state. The caller (the cluster's 2PC
    /// driver) has already frozen every binding; capture only reads.
    pub(crate) fn capture(container: &Container, to_host: HostId) -> Self {
        let lib = container.lib();
        let qps = lib
            .live_qps()
            .iter()
            .map(|qp| qp.capture_record())
            .collect();
        let mrs = lib
            .device()
            .mrs()
            .iter()
            .map(|mr| {
                let access = mr.access();
                MrRecord {
                    lkey: mr.lkey(),
                    rkey: mr.rkey(),
                    base_va: mr.addr(),
                    len: mr.len(),
                    access_bits: (access.local_write as u8)
                        | (access.remote_write as u8) << 1
                        | (access.remote_read as u8) << 2,
                    arena_backed: mr.is_arena_backed(),
                    bytes: mr.snapshot(),
                }
            })
            .collect();
        Self {
            image: ContainerImage::of(container),
            from_host: container.host(),
            to_host,
            qps,
            mrs,
            ledgers: Vec::new(),
        }
    }

    /// Attach socket-layer ledger records (the socket crate sits above
    /// this one, so it exports its own ledgers — see
    /// `freeflow_socket::SocketStack::export_ledgers`).
    pub fn with_ledgers(mut self, ledgers: Vec<LedgerRecord>) -> Self {
        self.ledgers = ledgers;
        self
    }

    /// Total MR payload carried (the dominant term of checkpoint size).
    pub fn mr_bytes(&self) -> u64 {
        self.mrs.iter().map(|m| m.bytes.len() as u64).sum()
    }

    /// Serialize to the checksummed wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.mr_bytes() as usize);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.image.id.raw().to_le_bytes());
        out.extend_from_slice(&self.image.tenant.raw().to_le_bytes());
        out.extend_from_slice(&self.image.ip.octets());
        out.extend_from_slice(&self.from_host.raw().to_le_bytes());
        out.extend_from_slice(&self.to_host.raw().to_le_bytes());
        out.extend_from_slice(&(self.qps.len() as u32).to_le_bytes());
        for qp in &self.qps {
            out.extend_from_slice(&qp.qpn.to_le_bytes());
            out.extend_from_slice(&qp.peer_octets);
            out.extend_from_slice(&qp.peer_qpn.to_le_bytes());
            let phase = PHASES.iter().position(|p| *p == qp.phase).unwrap_or(0) as u8;
            out.push(phase);
            out.extend_from_slice(&qp.epoch.to_le_bytes());
            out.extend_from_slice(&qp.generation.to_le_bytes());
            out.push(qp.transport_rank);
            out.extend_from_slice(&qp.parked_sends.to_le_bytes());
            out.extend_from_slice(&qp.posted_recvs.to_le_bytes());
            out.extend_from_slice(&qp.inbound_pending.to_le_bytes());
            out.extend_from_slice(&qp.in_flight.to_le_bytes());
            out.extend_from_slice(&qp.next_op_id.to_le_bytes());
        }
        out.extend_from_slice(&(self.mrs.len() as u32).to_le_bytes());
        for mr in &self.mrs {
            out.extend_from_slice(&mr.lkey.to_le_bytes());
            out.extend_from_slice(&mr.rkey.to_le_bytes());
            out.extend_from_slice(&mr.base_va.to_le_bytes());
            out.extend_from_slice(&mr.len.to_le_bytes());
            out.push(mr.access_bits);
            out.push(mr.arena_backed as u8);
            out.extend_from_slice(&(mr.bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&mr.bytes);
        }
        out.extend_from_slice(&(self.ledgers.len() as u32).to_le_bytes());
        for ledger in &self.ledgers {
            out.extend_from_slice(&ledger.qpn.to_le_bytes());
            out.extend_from_slice(&ledger.tx_next_seq.to_le_bytes());
            out.extend_from_slice(&ledger.tx_in_flight.to_le_bytes());
            out.extend_from_slice(&ledger.rx_received.to_le_bytes());
            out.extend_from_slice(&ledger.rx_parked.to_le_bytes());
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Rebuild a checkpoint from its wire format, verifying the checksum.
    /// A crash mid-checkpoint leaves a truncated or torn byte stream —
    /// decode fails and the coordinator aborts instead of restoring
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self, MigrateError> {
        if bytes.len() < 8 + 4 {
            return Err(MigrateError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != want {
            return Err(MigrateError::BadChecksum);
        }
        let mut c = Cursor { bytes: body, at: 0 };
        if c.u32()? != MAGIC {
            return Err(MigrateError::BadMagic);
        }
        let id = ContainerId::new(c.u64()?);
        let tenant = TenantId::new(c.u64()?);
        let ip_octets: [u8; 4] = c.take(4)?.try_into().unwrap();
        let from_host = HostId::new(c.u64()?);
        let to_host = HostId::new(c.u64()?);
        let qp_count = c.count(QP_RECORD_LEN, "qp count")?;
        let mut qps = Vec::with_capacity(qp_count);
        for _ in 0..qp_count {
            let qpn = c.u32()?;
            let peer_octets: [u8; 4] = c.take(4)?.try_into().unwrap();
            let peer_qpn = c.u32()?;
            let phase_idx = c.u8()? as usize;
            let phase = *PHASES
                .get(phase_idx)
                .ok_or(MigrateError::BadValue("binding phase"))?;
            qps.push(QpRecord {
                qpn,
                peer_octets,
                peer_qpn,
                phase,
                epoch: c.u64()?,
                generation: c.u64()?,
                transport_rank: c.u8()?,
                parked_sends: c.u32()?,
                posted_recvs: c.u32()?,
                inbound_pending: c.u32()?,
                in_flight: c.u32()?,
                next_op_id: c.u64()?,
            });
        }
        let mr_count = c.count(MR_RECORD_MIN_LEN, "mr count")?;
        let mut mrs = Vec::with_capacity(mr_count);
        for _ in 0..mr_count {
            let lkey = c.u32()?;
            let rkey = c.u32()?;
            let base_va = c.u64()?;
            let len = c.u64()?;
            let access_bits = c.u8()?;
            let arena_backed = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(MigrateError::BadValue("arena flag")),
            };
            let n = c.u64()? as usize;
            let bytes = c.take(n)?.to_vec();
            mrs.push(MrRecord {
                lkey,
                rkey,
                base_va,
                len,
                access_bits,
                arena_backed,
                bytes,
            });
        }
        let ledger_count = c.count(LEDGER_RECORD_LEN, "ledger count")?;
        let mut ledgers = Vec::with_capacity(ledger_count);
        for _ in 0..ledger_count {
            ledgers.push(LedgerRecord {
                qpn: c.u32()?,
                tx_next_seq: c.u64()?,
                tx_in_flight: c.u32()?,
                rx_received: c.u64()?,
                rx_parked: c.u32()?,
            });
        }
        if c.at != body.len() {
            return Err(MigrateError::BadValue("trailing bytes"));
        }
        Ok(Self {
            image: ContainerImage {
                id,
                tenant,
                ip: OverlayIp::from_octets(ip_octets[0], ip_octets[1], ip_octets[2], ip_octets[3]),
            },
            from_host,
            to_host,
            qps,
            mrs,
            ledgers,
        })
    }

    /// Verify live state on the target against this checkpoint: same
    /// identity, every checkpointed QP alive with its epoch and parked
    /// counts intact, every MR present with byte-identical contents.
    /// Called after restore; a mismatch triggers rollback.
    pub(crate) fn verify_restore(&self, container: &Container) -> Result<(), MigrateError> {
        if ContainerImage::of(container) != self.image {
            return Err(MigrateError::RestoreMismatch("identity"));
        }
        let lib = container.lib();
        let live = lib.live_qps();
        for rec in &self.qps {
            let Some(qp) = live.iter().find(|qp| qp.qp_num() == rec.qpn) else {
                return Err(MigrateError::RestoreMismatch("qp missing"));
            };
            if rec.in_flight != 0 {
                return Err(MigrateError::RestoreMismatch("unsettled checkpoint"));
            }
            let now = qp.capture_record();
            if now.epoch < rec.epoch {
                return Err(MigrateError::RestoreMismatch("epoch regressed"));
            }
            if now.parked_sends != rec.parked_sends
                || now.posted_recvs != rec.posted_recvs
                || now.next_op_id != rec.next_op_id
            {
                return Err(MigrateError::RestoreMismatch("work conservation"));
            }
        }
        let device = lib.device();
        for rec in &self.mrs {
            let Ok(mr) = device.mr_by_lkey(rec.lkey) else {
                return Err(MigrateError::RestoreMismatch("mr missing"));
            };
            if mr.rkey() != rec.rkey || mr.addr() != rec.base_va || mr.len() != rec.len {
                return Err(MigrateError::RestoreMismatch("mr identity"));
            }
            if mr.snapshot() != rec.bytes {
                return Err(MigrateError::RestoreMismatch("mr contents"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MigrationCheckpoint {
        MigrationCheckpoint {
            image: ContainerImage {
                id: ContainerId::new(7),
                tenant: TenantId::new(1),
                ip: OverlayIp::from_octets(10, 0, 0, 7),
            },
            from_host: HostId::new(0),
            to_host: HostId::new(2),
            qps: vec![QpRecord {
                qpn: 3,
                peer_octets: [10, 0, 0, 9],
                peer_qpn: 5,
                phase: "draining",
                epoch: 4,
                generation: 11,
                transport_rank: 1,
                parked_sends: 2,
                posted_recvs: 8,
                inbound_pending: 0,
                in_flight: 0,
                next_op_id: 42,
            }],
            mrs: vec![MrRecord {
                lkey: 1,
                rkey: 2,
                base_va: 0x1000_0000,
                len: 16,
                access_bits: 0b111,
                arena_backed: true,
                bytes: b"migration bytes!".to_vec(),
            }],
            ledgers: vec![LedgerRecord {
                qpn: 3,
                tx_next_seq: 100,
                tx_in_flight: 3,
                rx_received: 97,
                rx_parked: 1,
            }],
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let cp = sample();
        let bytes = cp.encode();
        assert_eq!(MigrationCheckpoint::decode(&bytes).unwrap(), cp);
    }

    #[test]
    fn count_floors_match_the_encoded_record_sizes() {
        // The per-record floors `decode` bounds its counts with must be
        // what `encode` writes, or valid checkpoints would be refused.
        let full = sample();
        let len_without = |strip: fn(&mut MigrationCheckpoint)| {
            let mut cp = sample();
            strip(&mut cp);
            cp.encode().len()
        };
        let total = full.encode().len();
        let (qps, mrs) = (full.qps.len(), full.mrs.len());
        assert_eq!(
            total - len_without(|cp| cp.qps.clear()),
            qps * QP_RECORD_LEN
        );
        assert_eq!(
            total - len_without(|cp| cp.mrs.clear()),
            mrs * MR_RECORD_MIN_LEN + full.mr_bytes() as usize
        );
        assert_eq!(
            total - len_without(|cp| cp.ledgers.clear()),
            full.ledgers.len() * LEDGER_RECORD_LEN
        );
    }

    #[test]
    fn torn_checkpoint_is_detected() {
        let bytes = sample().encode();
        // Truncation at every prefix must fail, never panic or succeed.
        for cut in 0..bytes.len() {
            assert!(MigrationCheckpoint::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            MigrationCheckpoint::decode(&bytes),
            Err(MigrateError::BadChecksum)
        ));
    }

    #[test]
    fn bad_magic_is_not_a_checkpoint() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        // Checksum is over the corrupted body too, so recompute it to
        // isolate the magic check.
        let n = bytes.len();
        let sum = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            MigrationCheckpoint::decode(&bytes),
            Err(MigrateError::BadMagic)
        ));
    }

    #[test]
    fn phase_names_are_the_wire_order() {
        for (i, name) in PHASES.iter().enumerate() {
            let cp = MigrationCheckpoint {
                qps: vec![QpRecord {
                    phase: name,
                    ..sample().qps[0]
                }],
                ..sample()
            };
            let back = MigrationCheckpoint::decode(&cp.encode()).unwrap();
            assert_eq!(back.qps[0].phase, *name, "phase index {i}");
        }
    }
}

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
//! with live QPs, registered MRs and open socket streams moves
//! between physical hosts through a two-phase commit driven by
//! [`crate::cluster::FreeFlowCluster::migrate_with`]:
//!
//! 1. **Prepare** — every QP's [`crate::binding::PathBinding`] is frozen
//!    in the ordinary `Rebinding` phase (`RebindReason::Migrate`): new
//!    work parks and the pump holds the binding in place, while it keeps
//!    taking answers and peers' requests in. Nothing is waited for: an op
//!    still unanswered — one parked at the peer for a receive, say —
//!    crosses with the binding, as MigrOS resumes a connection from its
//!    sequence numbers.
//!    A binding that cannot freeze (see the *un-collapse boundary*
//!    below) rides the move unfrozen.
//! 2. **Checkpoint** — a [`MigrationCheckpoint`] captures the container's
//!    identity, every QP's binding epoch/phase/parked-WR counts, its
//!    unanswered ops and both halves of its op sequence — the next op id
//!    it sends and the last one it accepted ([`QpRecord`]) — and every
//!    MR's keys, VA and full contents ([`MrRecord`]). Socket streams need
//!    nothing of their own: they ride their channel's QP, whose relayed
//!    ops are exactly-once across any rebind. The checkpoint is
//!    serialized with a checksum — a torn write (source crash
//!    mid-checkpoint) fails [`MigrationCheckpoint::decode`] and the
//!    migration aborts with the container resumed in place.
//! 3. **Transfer + restore** — the device (QPs, CQs, MRs, keys) is
//!    adopted by the target host's fabric, the library is re-homed
//!    (agent channel, arena, control-plane identity), and arena-backed
//!    MRs are *re-registered* onto the target arena by copying their
//!    bytes (`MemoryRegion::rehome`). The orchestrator's
//!    `ContainerMoved` event fans out over the gap-free feed; peers
//!    re-path exactly as for any other move, and re-send their own
//!    unanswered ops: what was in flight to or from the source host may
//!    be lost, and the source host refuses what reaches it late as a
//!    stale route. The restored state is verified against the
//!    checkpoint — a mismatch (target crash mid-restore) rolls the
//!    container back onto the source host.
//! 4. **Commit** — bindings thaw. Each re-sends the
//!    ops it carried, even on an unchanged transport — their answers
//!    went to the source host's agent — and the responder executes each
//!    once; then parked work replays exactly once. The blackout — freeze
//!    to thaw — is recorded in the `ff_migration_blackout_ns` histogram,
//!    and `Migration{Begin,Commit,Abort}` flight-recorder events bracket
//!    the whole protocol.
//!
//! Every outcome — commit, source abort, target rollback — is a legal
//! `PathBinding` transition sequence; a migration can never wedge a QP.
//!
//! ## The un-collapse boundary
//!
//! A binding that already *collapsed* onto intra-host shared memory
//! (`FfPath::Local`) is not torn back out into a relayed path: its peer
//! posts straight into the host-verbs QP, with no relay in between. Such
//! a binding refuses the freeze and rides the migration untouched; if the
//! move separates the pair, both ends observe staleness
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
use crate::qp::FfQp;
use freeflow_types::wire::{self, Reader, WireError, Writer};
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

// --- the migration protocol types ---------------------------------------

/// Where the two-phase commit currently stands (or how far it got before
/// resolving). Also the vocabulary of crash injection: a
/// [`MigrationCrashPoint`] names the phase that dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigrationPhase {
    /// Freezing every binding in `Rebinding`.
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
/// receives survive; unanswered ops go again after the thaw).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpRecord {
    /// Queue pair number (stable across the move — the device migrates).
    pub qpn: u32,
    /// Peer overlay IP (octets; unspecified when unbound).
    pub peer_octets: [u8; 4],
    /// Peer QPN (zero when unbound).
    pub peer_qpn: u32,
    /// Binding phase at capture (interned `BindingPhase::name()` value;
    /// normally `"rebinding"` — the freeze holds it there).
    pub phase: &'static str,
    /// Binding epoch at capture.
    pub epoch: u64,
    /// Location-cache generation the current path resolved under.
    pub generation: u64,
    /// Transport rank of the current path (`u8::MAX` when unbound).
    pub transport_rank: u8,
    /// Send WRs parked behind the freeze, to be replayed exactly once.
    pub parked_sends: u32,
    /// Receives posted and not yet consumed (the verbs QP's, on every
    /// binding).
    pub posted_recvs: u32,
    /// Inbound operations parked at the verbs QP waiting for receives.
    pub inbound_pending: u32,
    /// Relayed operations unanswered at capture. They cross with the
    /// binding and go again after the thaw. Answers keep arriving through
    /// the freeze and no op is issued in it, so the restored QP holds at
    /// most this many: a subset of these.
    pub in_flight: u32,
    /// Next work-request op id: the requester's half of the QP's
    /// exactly-once sequence.
    pub next_op_id: u64,
    /// The peer's relayed ops accepted through this op id: the
    /// responder's half. A mark that resets refuses the peer's next op as
    /// a gap for good.
    pub accepted: u64,
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

/// Everything a container needs to resume on another host: identity,
/// placement, QP bindings and MR contents. Serialized
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

impl From<WireError> for MigrateError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => MigrateError::Truncated,
            WireError::Count => MigrateError::BadValue("record count"),
            WireError::Trailing => MigrateError::BadValue("trailing bytes"),
            WireError::Checksum => MigrateError::BadChecksum,
        }
    }
}

/// Checkpoint wire-format magic: `"FFM1"`.
const MAGIC: u32 = 0x4646_4D31;

/// Interned binding-phase names, in wire order (`BindingPhase::name()`).
const PHASES: [&str; 4] = ["unbound", "bound", "rebinding", "error"];

/// Encoded size of one [`QpRecord`] and of an [`MrRecord`] with no bytes:
/// the floor each decoded count is checked against.
const QP_RECORD_LEN: usize = 62;
const MR_RECORD_MIN_LEN: usize = 34;

/// A count-prefixed run of records, each at least `min_len` bytes.
fn records<'a, T>(
    r: &mut Reader<'a>,
    min_len: usize,
    mut one: impl FnMut(&mut Reader<'a>) -> Result<T, MigrateError>,
) -> Result<Vec<T>, MigrateError> {
    let n = r.count(min_len)?;
    (0..n).map(|_| one(r)).collect()
}

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
        }
    }

    /// Total MR payload carried (the dominant term of checkpoint size).
    pub fn mr_bytes(&self) -> u64 {
        self.mrs.iter().map(|m| m.bytes.len() as u64).sum()
    }

    /// Serialize to the checksummed wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.mr_bytes() as usize);
        out.u32(MAGIC)
            .u64(self.image.id.raw())
            .u64(self.image.tenant.raw())
            .u32(self.image.ip.raw())
            .u64(self.from_host.raw())
            .u64(self.to_host.raw())
            .count(self.qps.len());
        for qp in &self.qps {
            let phase = PHASES.iter().position(|p| *p == qp.phase).unwrap_or(0) as u8;
            out.u32(qp.qpn)
                .put(&qp.peer_octets)
                .u32(qp.peer_qpn)
                .u8(phase)
                .u64(qp.epoch)
                .u64(qp.generation)
                .u8(qp.transport_rank)
                .u32(qp.parked_sends)
                .u32(qp.posted_recvs)
                .u32(qp.inbound_pending)
                .u32(qp.in_flight)
                .u64(qp.next_op_id)
                .u64(qp.accepted);
        }
        out.count(self.mrs.len());
        for mr in &self.mrs {
            out.u32(mr.lkey)
                .u32(mr.rkey)
                .u64(mr.base_va)
                .u64(mr.len)
                .u8(mr.access_bits)
                .u8(mr.arena_backed as u8)
                .long_slice(&mr.bytes);
        }
        wire::seal(&mut out);
        out
    }

    /// Rebuild a checkpoint from its wire format, verifying the checksum.
    /// A crash mid-checkpoint leaves a truncated or torn byte stream —
    /// decode fails and the coordinator aborts instead of restoring
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self, MigrateError> {
        let r = &mut Reader::new(wire::open(bytes)?);
        if r.u32()? != MAGIC {
            return Err(MigrateError::BadMagic);
        }
        let cp = Self {
            image: ContainerImage {
                id: ContainerId::new(r.u64()?),
                tenant: TenantId::new(r.u64()?),
                ip: OverlayIp(r.u32()?),
            },
            from_host: HostId::new(r.u64()?),
            to_host: HostId::new(r.u64()?),
            qps: records(r, QP_RECORD_LEN, |r| {
                Ok(QpRecord {
                    qpn: r.u32()?,
                    peer_octets: r.array()?,
                    peer_qpn: r.u32()?,
                    phase: PHASES
                        .get(r.u8()? as usize)
                        .ok_or(MigrateError::BadValue("binding phase"))?,
                    epoch: r.u64()?,
                    generation: r.u64()?,
                    transport_rank: r.u8()?,
                    parked_sends: r.u32()?,
                    posted_recvs: r.u32()?,
                    inbound_pending: r.u32()?,
                    in_flight: r.u32()?,
                    next_op_id: r.u64()?,
                    accepted: r.u64()?,
                })
            })?,
            mrs: records(r, MR_RECORD_MIN_LEN, |r| {
                Ok(MrRecord {
                    lkey: r.u32()?,
                    rkey: r.u32()?,
                    base_va: r.u64()?,
                    len: r.u64()?,
                    access_bits: r.u8()?,
                    arena_backed: match r.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(MigrateError::BadValue("arena flag")),
                    },
                    bytes: r.long_slice()?.to_vec(),
                })
            })?,
        };
        r.finish()?;
        Ok(cp)
    }

    /// Verify live state on the target against this checkpoint: same
    /// identity, every checkpointed QP alive with its epoch and parked
    /// counts intact and no unanswered op it did not carry (the same next
    /// op id, and no more unanswered than captured), every MR present with
    /// byte-identical contents. Called after restore; a mismatch triggers
    /// rollback.
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
            let now = qp.capture_record();
            if now.epoch < rec.epoch {
                return Err(MigrateError::RestoreMismatch("epoch regressed"));
            }
            if now.parked_sends != rec.parked_sends
                || now.posted_recvs != rec.posted_recvs
                || now.in_flight > rec.in_flight
                || now.next_op_id != rec.next_op_id
            {
                return Err(MigrateError::RestoreMismatch("work conservation"));
            }
            if now.accepted != rec.accepted {
                return Err(MigrateError::RestoreMismatch("sequence mark"));
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
                phase: "rebinding",
                epoch: 4,
                generation: 11,
                transport_rank: 1,
                parked_sends: 2,
                posted_recvs: 8,
                inbound_pending: 0,
                in_flight: 0,
                next_op_id: 42,
                accepted: 17,
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
        // Reseal over the corrupted body to isolate the magic check.
        bytes.truncate(bytes.len() - 8);
        wire::seal(&mut bytes);
        assert!(matches!(
            MigrationCheckpoint::decode(&bytes),
            Err(MigrateError::BadMagic)
        ));
    }

    #[test]
    fn mr_bytes_carry_a_64_bit_length() {
        // MRs may outgrow 4 GiB, so their bytes take a `u64` length: one
        // 4 GiB past the real one is refused, not wrapped onto it.
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 8);
        let mr = &sample().mrs[0].bytes;
        let at = bytes
            .windows(8 + mr.len())
            .position(|w| w[..8] == 16u64.to_le_bytes() && w[8..] == mr[..])
            .expect("the MR's length prefix");
        bytes[at..at + 8].copy_from_slice(&((1u64 << 32) + 16).to_le_bytes());
        wire::seal(&mut bytes);
        assert_eq!(
            MigrationCheckpoint::decode(&bytes),
            Err(MigrateError::Truncated)
        );
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

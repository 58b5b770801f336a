//! Memory regions.
//!
//! A [`MemoryRegion`] is registered memory the (virtual) NIC may DMA
//! into/out of, addressed by fake virtual addresses like real verbs: each
//! registration is assigned a base VA from a per-device allocator, and
//! SGEs / remote addresses name `base + offset` locations. Keys (`lkey`
//! for local use, `rkey` for remote one-sided access) authorize access.
//!
//! Storage is pluggable: a private buffer (ordinary registration), or a
//! block in a host's shared-memory arena — which is how FreeFlow makes an
//! intra-host `WRITE` one segment-local copy: both containers' MRs alias
//! blocks of the same [`SharedArena`] segment (paper §5).
//!
//! Every inbound payload lands through one function, `land`: bytes in
//! hand, a relayed arena block, or a local requester's resolved gather
//! list ([`Payload::Local`]), which is copied straight from its regions
//! into the landing's, once, with no buffer between. Every range is
//! bounds checked before the first byte moves. While bytes move between
//! two regions, both regions' storage is held — in address order, once
//! when they are one region — so no rehome swaps it under the copy. Under
//! that, arena bytes are locked before a private region's, and two arenas
//! or two private buffers in address order, so copies in opposite
//! directions between the same regions cannot deadlock.

use crate::error::{VerbsError, VerbsResult};
use crate::wr::{AccessFlags, Sge};
use freeflow_shmem::{ArenaHandle, SharedArena};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::ops::Deref;
use std::sync::Arc;

enum Storage {
    Private(Mutex<Vec<u8>>),
    Arena {
        arena: Arc<SharedArena>,
        handle: ArenaHandle,
    },
}

impl Storage {
    /// Write `data` at `off`, a range checked against the region.
    fn write(&self, off: u64, data: &[u8]) -> VerbsResult<()> {
        match self {
            Storage::Private(buf) => {
                let off = off as usize;
                buf.lock()[off..off + data.len()].copy_from_slice(data);
                Ok(())
            }
            Storage::Arena { arena, handle } => {
                arena.write(*handle, off, data).map_err(out_of_bounds)
            }
        }
    }

    /// Hand `read` the `len` bytes at `off`, a range checked against the
    /// region, and return what it returns.
    fn read_with<R>(&self, off: u64, len: u64, read: impl FnOnce(&[u8]) -> R) -> VerbsResult<R> {
        match self {
            Storage::Private(buf) => {
                let off = off as usize;
                Ok(read(&buf.lock()[off..off + len as usize]))
            }
            Storage::Arena { arena, handle } => arena
                .read_with(*handle, off, len, read)
                .map_err(out_of_bounds),
        }
    }

    /// Copy `len` bytes at `off` to `dst_off` of `dst`, both ranges
    /// checked against their regions. Arena bytes are locked before a
    /// private region's, two arenas or two private buffers in address
    /// order; a buffer that is both ends copies within itself, under one
    /// lock.
    fn copy_to(&self, off: u64, dst: &Storage, dst_off: u64, len: u64) -> VerbsResult<()> {
        let (s, d, n) = (off as usize, dst_off as usize, len as usize);
        let copied = match (self, dst) {
            (
                Storage::Arena { arena, handle },
                Storage::Arena {
                    arena: to,
                    handle: block,
                },
            ) => SharedArena::copy(arena, *handle, off, to, *block, dst_off, len),
            (Storage::Private(buf), Storage::Arena { arena, handle }) => {
                arena.write_with(*handle, dst_off, len, |out| {
                    out.copy_from_slice(&buf.lock()[s..s + n])
                })
            }
            (Storage::Arena { arena, handle }, Storage::Private(buf)) => {
                arena.read_with(*handle, off, len, |bytes| {
                    buf.lock()[d..d + n].copy_from_slice(bytes)
                })
            }
            (Storage::Private(buf), Storage::Private(to)) if std::ptr::eq(buf, to) => {
                buf.lock().copy_within(s..s + n, d);
                Ok(())
            }
            (Storage::Private(buf), Storage::Private(to)) => {
                let (src, mut dst) = if (buf as *const Mutex<_>) < to {
                    let src = buf.lock();
                    (src, to.lock())
                } else {
                    let dst = to.lock();
                    (buf.lock(), dst)
                };
                dst[d..d + n].copy_from_slice(&src[s..s + n]);
                Ok(())
            }
        };
        copied.map_err(out_of_bounds)
    }
}

/// A registered memory region.
///
/// The backing storage sits behind a lock so a live migration can swap
/// it wholesale — copying the bytes into the target host's arena — while
/// the region's identity (VA, keys, length) stays fixed. Data-plane
/// accesses take the lock shared; only [`MemoryRegion::rehome`] takes it
/// exclusively.
pub struct MemoryRegion {
    base_va: u64,
    len: u64,
    lkey: u32,
    rkey: u32,
    access: AccessFlags,
    storage: RwLock<Storage>,
}

impl MemoryRegion {
    pub(crate) fn new_private(
        base_va: u64,
        len: u64,
        lkey: u32,
        rkey: u32,
        access: AccessFlags,
    ) -> Self {
        Self {
            base_va,
            len,
            lkey,
            rkey,
            access,
            storage: RwLock::new(Storage::Private(Mutex::new(vec![0u8; len as usize]))),
        }
    }

    pub(crate) fn new_arena(
        base_va: u64,
        lkey: u32,
        rkey: u32,
        access: AccessFlags,
        arena: Arc<SharedArena>,
        handle: ArenaHandle,
    ) -> Self {
        Self {
            base_va,
            len: handle.len,
            lkey,
            rkey,
            access,
            storage: RwLock::new(Storage::Arena { arena, handle }),
        }
    }

    /// Base virtual address of the registration.
    pub fn addr(&self) -> u64 {
        self.base_va
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty (never true for valid registrations).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Local key.
    pub fn lkey(&self) -> u32 {
        self.lkey
    }

    /// Remote key (hand this to peers for one-sided access).
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// Access flags granted at registration.
    pub fn access(&self) -> AccessFlags {
        self.access
    }

    /// Whether the region aliases a shared arena block (zero-copy capable).
    pub fn is_arena_backed(&self) -> bool {
        matches!(&*self.storage.read(), Storage::Arena { .. })
    }

    /// Build an SGE covering `[offset, offset + len)` of this region.
    ///
    /// # Panics
    /// Panics when the range falls outside the registration — an SGE is
    /// built by the code that owns the MR, so a bad range is a programming
    /// error, matching how real verbs would corrupt or fault.
    pub fn sge(&self, offset: u64, len: u32) -> Sge {
        assert!(
            self.check_range(offset, len as u64).is_ok(),
            "sge at {offset} of {len} bytes exceeds MR of {} bytes",
            self.len
        );
        Sge {
            addr: self.base_va + offset,
            len,
            lkey: self.lkey,
        }
    }

    /// Application write into the region at `offset`.
    pub fn write(&self, offset: u64, data: &[u8]) -> VerbsResult<()> {
        self.check_range(offset, data.len() as u64)?;
        self.storage.read().write(offset, data)
    }

    /// Application read from the region at `offset`.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> VerbsResult<()> {
        self.read_with(offset, out.len() as u64, |bytes| out.copy_from_slice(bytes))
    }

    /// Hand `read` the `len` bytes at `offset` under the region's locks,
    /// and return what it returns: a copy straight out of the region into
    /// wherever `read` puts it, with no zero-filled buffer first.
    pub fn read_with<R>(
        &self,
        offset: u64,
        len: u64,
        read: impl FnOnce(&[u8]) -> R,
    ) -> VerbsResult<R> {
        self.check_range(offset, len)?;
        self.storage.read().read_with(offset, len, read)
    }

    /// Bounds-check `[offset, offset + len)`. Both ends may be chosen by
    /// a remote peer, so a range whose end wraps `u64` is out of bounds,
    /// not an overflow.
    fn check_range(&self, offset: u64, len: u64) -> VerbsResult<()> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len => Ok(()),
            _ => Err(VerbsError::OutOfBounds {
                detail: format!(
                    "{len} bytes at offset {offset} exceed MR of {} bytes",
                    self.len
                ),
            }),
        }
    }

    /// Translate a virtual address range to an in-region offset,
    /// validating bounds. Used by the fabric executor.
    pub(crate) fn va_to_offset(&self, va: u64, len: u64) -> VerbsResult<u64> {
        let offset = va
            .checked_sub(self.base_va)
            .ok_or_else(|| VerbsError::OutOfBounds {
                detail: format!("va {va:#x} below MR base {:#x}", self.base_va),
            })?;
        self.check_range(offset, len)?;
        Ok(offset)
    }

    /// Fabric-side write at a virtual address (incoming SEND payload,
    /// remote WRITE). Bounds are checked; *access* is checked by the
    /// caller, which knows whether the op is local or remote.
    pub fn dma_write(&self, va: u64, data: &[u8]) -> VerbsResult<()> {
        let off = self.va_to_offset(va, data.len() as u64)?;
        self.write(off, data)
    }

    /// Fabric-side read at a virtual address (outgoing SEND gather, remote
    /// READ source).
    pub fn dma_read(&self, va: u64, len: u64) -> VerbsResult<Vec<u8>> {
        let off = self.va_to_offset(va, len)?;
        self.read_with(off, len, <[u8]>::to_vec)
    }

    /// [`MemoryRegion::dma_read`] appending into a caller-owned buffer:
    /// how a relayed payload below the arena threshold is staged.
    pub fn dma_read_into(&self, va: u64, len: u64, out: &mut Vec<u8>) -> VerbsResult<()> {
        let off = self.va_to_offset(va, len)?;
        let tail = out.len();
        out.resize(tail + len as usize, 0);
        self.read(off, &mut out[tail..])
    }

    /// Gather `len` bytes at `va` straight into `dst`, a block of `arena`,
    /// at `dst_at`: a relayed payload's stage, with no buffer between. The
    /// arena is locked before a private region's bytes, the order a landing
    /// ([`Payload`]) locks them in.
    pub fn dma_read_to_block(
        &self,
        va: u64,
        len: u64,
        arena: &SharedArena,
        dst: ArenaHandle,
        dst_at: u64,
    ) -> VerbsResult<()> {
        let off = self.va_to_offset(va, len)?;
        let (start, n) = (off as usize, len as usize);
        let copied = match &*self.storage.read() {
            Storage::Private(buf) => arena.write_with(dst, dst_at, len, |out| {
                out.copy_from_slice(&buf.lock()[start..start + n]);
            }),
            // One lock and one copy_within when the region is of the same
            // segment; otherwise one a migration has not moved it out of.
            Storage::Arena { arena: src, handle } => {
                SharedArena::copy(src, *handle, off, arena, dst, dst_at, len)
            }
        };
        copied.map_err(out_of_bounds)
    }

    /// Land `data` at `va`: bytes in hand, a relayed block straight out of
    /// its arena, or a local requester's gather list straight from its
    /// MRs. Nothing lands when the range is out of bounds; a block is freed
    /// either way.
    pub fn dma_land(&self, va: u64, data: Payload<'_>) -> VerbsResult<()> {
        match Span::new(self, va, data.len()) {
            Ok(to) => land(&[to], data),
            Err(e) => {
                data.discard();
                Err(e)
            }
        }
    }

    /// Snapshot the region's full contents (migration checkpointing).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len as usize];
        // Range [0, len) is in bounds by construction.
        let _ = self.read(0, &mut out);
        out
    }

    /// Move the region's backing storage onto `target` — the shared arena
    /// of the host the owning container just migrated to. Without this, an
    /// arena-backed MR would keep aliasing the *source* host's segment
    /// after a cross-host migration, silently breaking the zero-copy
    /// contract (and sharing memory across hosts, which real hardware
    /// cannot do).
    ///
    /// The bytes are copied into a freshly allocated block of `target`
    /// under the exclusive storage lock, so no DMA interleaves with the
    /// swap; the old block is freed. If `target` has no room the region
    /// degrades to private storage — correctness over zero-copy. Identity
    /// (VA, keys, length) is unchanged. Returns whether the region is
    /// still arena-backed afterwards.
    pub fn rehome(&self, target: &Arc<SharedArena>) -> bool {
        let mut storage = self.storage.write();
        let mut bytes = vec![0u8; self.len as usize];
        match &*storage {
            // Private storage has no host affinity: nothing to move.
            Storage::Private(_) => return false,
            Storage::Arena { arena, handle } => {
                if Arc::ptr_eq(arena, target) {
                    return true;
                }
                let _ = arena.read(*handle, 0, &mut bytes);
            }
        }
        let fresh = match target.alloc(self.len) {
            Ok(handle) => {
                let _ = target.write(handle, 0, &bytes);
                Storage::Arena {
                    arena: Arc::clone(target),
                    handle,
                }
            }
            Err(_) => Storage::Private(Mutex::new(bytes)),
        };
        if let Storage::Arena { arena, handle } = std::mem::replace(&mut *storage, fresh) {
            let _ = arena.free(handle);
        }
        matches!(&*storage, Storage::Arena { .. })
    }
}

/// `len` bytes at `off` of a registered region, bounds checked when the
/// span is made: one SGE of a gather or scatter list, resolved.
#[derive(Debug)]
pub struct Span<M = Arc<MemoryRegion>> {
    mr: M,
    off: u64,
    len: u64,
}

impl<M: Deref<Target = MemoryRegion>> Span<M> {
    /// `len` bytes at `va` of `mr`, out of bounds an error.
    pub(crate) fn new(mr: M, va: u64, len: u64) -> VerbsResult<Self> {
        let off = mr.va_to_offset(va, len)?;
        Ok(Self { mr, off, len })
    }

    /// Point the span at `len` bytes at `va` of its region; out of bounds
    /// an error that leaves it as it was.
    pub(crate) fn move_to(&mut self, va: u64, len: u64) -> VerbsResult<()> {
        self.off = self.mr.va_to_offset(va, len)?;
        self.len = len;
        Ok(())
    }

    /// The local key of the span's region.
    pub(crate) fn lkey(&self) -> u32 {
        self.mr.lkey()
    }
}

/// Land `payload` across `to`, in order: the one landing behind WRITEs,
/// receives and READ responses, verbs engine and relayed paths alike.
/// Every range is bounds checked before the first byte moves. A local
/// requester's gather list is copied piece by piece, each piece lying in
/// one source and one destination span, whose regions are held for it in
/// address order — once when they are one region. A block's regions are
/// all held before it is taken. Bytes beyond `to` are dropped; a block is
/// freed either way.
pub(crate) fn land<M: Deref<Target = MemoryRegion>>(
    to: &[Span<M>],
    payload: Payload<'_>,
) -> VerbsResult<()> {
    match payload {
        Payload::Bytes(bytes) => {
            let mut at = 0;
            for s in to {
                let n = s.len as usize;
                s.mr.storage.read().write(s.off, &bytes[at..at + n])?;
                at += n;
            }
            Ok(())
        }
        Payload::Block { arena, offset, len } => {
            let held = Held::of(to.iter().map(|s| &*s.mr));
            let landed = arena.take_with(offset, len, |taken| {
                let mut at = 0;
                for s in to {
                    let (off, n) = (s.off as usize, s.len as usize);
                    match held.storage(&s.mr) {
                        Storage::Private(buf) => {
                            buf.lock()[off..off + n].copy_from_slice(&taken.bytes()[at..at + n]);
                        }
                        Storage::Arena { arena, handle } if taken.of(arena) => {
                            taken.copy_to_block(at as u64, s.len, *handle, s.off)?;
                        }
                        Storage::Arena { arena, handle } => {
                            arena.write(*handle, s.off, &taken.bytes()[at..at + n])?;
                        }
                    }
                    at += n;
                }
                Ok(())
            });
            landed.and_then(|r| r).map_err(out_of_bounds)
        }
        Payload::Local(from) => {
            let (mut i, mut used) = (0, 0);
            for s in to {
                let mut done = 0;
                while done < s.len {
                    let src = &from[i];
                    let n = (src.len - used).min(s.len - done);
                    let (src_off, dst_off) = (src.off + used, s.off + done);
                    if std::ptr::eq(&*src.mr, &*s.mr) {
                        let storage = src.mr.storage.read();
                        storage.copy_to(src_off, &storage, dst_off, n)?;
                    } else {
                        let (source, target) = read_in_order(&src.mr, &s.mr);
                        source.copy_to(src_off, &target, dst_off, n)?;
                    }
                    (done, used) = (done + n, used + n);
                    if used == src.len {
                        (i, used) = (i + 1, 0);
                    }
                }
            }
            Ok(())
        }
    }
}

/// The storage of two distinct regions, held in address order.
fn read_in_order<'a>(
    a: &'a MemoryRegion,
    b: &'a MemoryRegion,
) -> (RwLockReadGuard<'a, Storage>, RwLockReadGuard<'a, Storage>) {
    if (a as *const MemoryRegion) < b {
        let first = a.storage.read();
        (first, b.storage.read())
    } else {
        let first = b.storage.read();
        (a.storage.read(), first)
    }
}

/// The storage of every region a block lands in, each held once, in
/// address order.
struct Held<'a>(Vec<(&'a MemoryRegion, RwLockReadGuard<'a, Storage>)>);

impl<'a> Held<'a> {
    fn of(regions: impl Iterator<Item = &'a MemoryRegion>) -> Self {
        let mut mrs: Vec<_> = regions.collect();
        mrs.sort_unstable_by_key(|&mr| mr as *const MemoryRegion);
        mrs.dedup_by_key(|mr| *mr as *const MemoryRegion);
        Held(mrs.into_iter().map(|mr| (mr, mr.storage.read())).collect())
    }

    fn storage(&self, mr: &MemoryRegion) -> &Storage {
        let held = self.0.iter().find(|&&(m, _)| std::ptr::eq(m, mr));
        &held.expect("a landing holds its regions").1
    }
}

/// An inbound payload as a responder lands it: bytes in hand, a block of
/// a host arena that a relayed operation names, or a local requester's
/// gather list. A block is freed as it lands, or dropped with
/// [`Payload::discard`] when nothing lands from it.
#[derive(Debug)]
pub enum Payload<'a> {
    /// Bytes in hand.
    Bytes(&'a [u8]),
    /// `len` payload bytes in the block at `offset` of `arena`.
    Block {
        /// The host arena holding the block.
        arena: &'a SharedArena,
        /// The block's offset.
        offset: u64,
        /// The payload's length (the block is rounded up from it).
        len: u64,
    },
    /// A local requester's gather list, resolved: its bytes are copied
    /// straight from its regions as they land.
    Local(&'a [Span]),
}

impl Payload<'_> {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(bytes) => bytes.len() as u64,
            Payload::Block { len, .. } => *len,
            Payload::Local(from) => from.iter().map(|s| s.len).sum(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop the payload unlanded: a block is freed.
    pub fn discard(self) {
        if let Payload::Block { arena, offset, len } = self {
            if let Ok(block) = arena.block(offset, len) {
                let _ = arena.free(block);
            }
        }
    }

    /// The bytes in a `Vec` of their own, what a SEND parked for a receive
    /// keeps: a block is taken into it, a gather list copied. `None` when
    /// the arena refuses the block.
    pub(crate) fn into_vec(self) -> Option<Vec<u8>> {
        match self {
            Payload::Bytes(bytes) => Some(bytes.to_vec()),
            Payload::Block { arena, offset, len } => arena.take(offset, len).ok(),
            Payload::Local(from) => {
                let mut out = Vec::with_capacity(self.len() as usize);
                for s in from {
                    let storage = s.mr.storage.read();
                    (storage.read_with(s.off, s.len, |b| out.extend_from_slice(b))).ok()?;
                }
                Some(out)
            }
        }
    }
}

/// An arena refusal as a verbs error.
pub(crate) fn out_of_bounds(e: freeflow_types::Error) -> VerbsError {
    VerbsError::OutOfBounds {
        detail: e.to_string(),
    }
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("base_va", &format_args!("{:#x}", self.base_va))
            .field("len", &self.len)
            .field("lkey", &self.lkey)
            .field("rkey", &self.rkey)
            .field("arena_backed", &self.is_arena_backed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn private_mr() -> MemoryRegion {
        MemoryRegion::new_private(0x10_0000, 256, 1, 2, AccessFlags::all())
    }

    #[test]
    fn write_read_roundtrip() {
        let mr = private_mr();
        mr.write(10, b"verbs").unwrap();
        let mut out = [0u8; 5];
        mr.read(10, &mut out).unwrap();
        assert_eq!(&out, b"verbs");
    }

    #[test]
    fn bounds_are_enforced() {
        let mr = private_mr();
        assert!(mr.write(255, b"ab").is_err());
        let mut out = [0u8; 2];
        assert!(mr.read(255, &mut out).is_err());
    }

    #[test]
    fn sge_uses_virtual_addresses() {
        let mr = private_mr();
        let sge = mr.sge(16, 32);
        assert_eq!(sge.addr, 0x10_0000 + 16);
        assert_eq!(sge.lkey, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds MR")]
    fn sge_out_of_range_panics() {
        let _ = private_mr().sge(250, 32);
    }

    #[test]
    fn va_translation() {
        let mr = private_mr();
        assert_eq!(mr.va_to_offset(0x10_0000 + 8, 8).unwrap(), 8);
        assert!(mr.va_to_offset(0x10_0000 - 1, 1).is_err());
        assert!(mr.va_to_offset(0x10_0000 + 250, 10).is_err());
    }

    #[test]
    fn ranges_that_wrap_u64_are_out_of_bounds() {
        let mr = private_mr();
        assert!(mr.va_to_offset(u64::MAX - 3, 8).is_err());
        assert!(mr.va_to_offset(0x10_0000, u64::MAX).is_err());
        assert!(mr.dma_write(u64::MAX - 3, b"wrap").is_err());
        assert!(mr.dma_read(u64::MAX - 3, 8).is_err());
        assert!(mr.write(u64::MAX - 1, b"ab").is_err());
    }

    #[test]
    fn dma_paths() {
        let mr = private_mr();
        mr.dma_write(0x10_0000 + 4, b"dma!").unwrap();
        assert_eq!(mr.dma_read(0x10_0000 + 4, 4).unwrap(), b"dma!");
    }

    #[test]
    fn rehome_moves_bytes_to_the_target_arena() {
        let src = SharedArena::new(4096);
        let dst = SharedArena::new(4096);
        let handle = src.alloc(128).unwrap();
        let mr = MemoryRegion::new_arena(0x20_0000, 3, 4, AccessFlags::all(), src.clone(), handle);
        mr.write(0, b"migrated").unwrap();
        let before = src.allocated();
        assert!(mr.rehome(&dst));
        assert!(mr.is_arena_backed());
        // Bytes survived the move and the source block was released.
        assert_eq!(mr.dma_read(0x20_0000, 8).unwrap(), b"migrated");
        assert!(src.allocated() < before);
        assert!(dst.allocated() > 0);
        // Rehoming onto the arena we already live in is a no-op.
        assert!(mr.rehome(&dst));
    }

    #[test]
    fn rehome_degrades_to_private_when_target_is_full() {
        let src = SharedArena::new(4096);
        let dst = SharedArena::new(64);
        let handle = src.alloc(256).unwrap();
        let mr = MemoryRegion::new_arena(0x20_0000, 3, 4, AccessFlags::all(), src.clone(), handle);
        mr.write(0, b"fallback").unwrap();
        assert!(!mr.rehome(&dst));
        assert!(!mr.is_arena_backed());
        assert_eq!(mr.dma_read(0x20_0000, 8).unwrap(), b"fallback");
    }

    #[test]
    fn private_regions_have_no_host_affinity() {
        let mr = private_mr();
        mr.write(0, b"stay").unwrap();
        let dst = SharedArena::new(4096);
        assert!(!mr.rehome(&dst));
        assert_eq!(mr.dma_read(0x10_0000, 4).unwrap(), b"stay");
    }

    #[test]
    fn snapshot_captures_full_contents() {
        let mr = private_mr();
        mr.write(3, b"snap").unwrap();
        let bytes = mr.snapshot();
        assert_eq!(bytes.len(), 256);
        assert_eq!(&bytes[3..7], b"snap");
    }

    #[test]
    fn arena_backed_region_aliases_segment() {
        let arena = SharedArena::new(4096);
        let handle = arena.alloc(256).unwrap();
        let mr =
            MemoryRegion::new_arena(0x20_0000, 3, 4, AccessFlags::all(), arena.clone(), handle);
        assert!(mr.is_arena_backed());
        mr.write(0, b"shared").unwrap();
        // Visible straight through the arena — no copy happened.
        let mut out = [0u8; 6];
        arena.read(handle, 0, &mut out).unwrap();
        assert_eq!(&out, b"shared");
    }
}

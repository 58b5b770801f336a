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
//! intra-host `WRITE` a true zero-copy: both containers' MRs alias blocks
//! of the same [`SharedArena`] segment (paper §5).

use crate::error::{VerbsError, VerbsResult};
use crate::wr::{AccessFlags, Sge};
use freeflow_shmem::{ArenaHandle, SharedArena};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::Arc;

enum Storage {
    Private(Mutex<Vec<u8>>),
    Arena {
        arena: Arc<SharedArena>,
        handle: ArenaHandle,
    },
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
        match &*self.storage.read() {
            Storage::Private(buf) => {
                buf.lock()[offset as usize..offset as usize + data.len()].copy_from_slice(data);
                Ok(())
            }
            Storage::Arena { arena, handle } => {
                arena
                    .write(*handle, offset, data)
                    .map_err(|e| VerbsError::OutOfBounds {
                        detail: e.to_string(),
                    })
            }
        }
    }

    /// Application read from the region at `offset`.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> VerbsResult<()> {
        self.check_range(offset, out.len() as u64)?;
        match &*self.storage.read() {
            Storage::Private(buf) => {
                out.copy_from_slice(&buf.lock()[offset as usize..offset as usize + out.len()]);
                Ok(())
            }
            Storage::Arena { arena, handle } => {
                arena
                    .read(*handle, offset, out)
                    .map_err(|e| VerbsError::OutOfBounds {
                        detail: e.to_string(),
                    })
            }
        }
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
        let mut out = vec![0u8; len as usize];
        self.read(off, &mut out)?;
        Ok(out)
    }

    /// [`MemoryRegion::dma_read`] appending into a caller-owned buffer.
    /// The batched gather path reuses one scratch allocation across a
    /// whole WR chain instead of allocating per SGE.
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
            // Same segment: one lock, one copy_within.
            Storage::Arena { arena: src, handle } if std::ptr::eq(&**src, arena) => {
                SharedArena::copy(src, *handle, off, arena, dst, dst_at, len)
            }
            // A segment a migration has not moved the region out of yet.
            Storage::Arena { arena: src, handle } => arena.write_with(dst, dst_at, len, |out| {
                src.read(*handle, off, out)
                    .expect("the region's range is checked");
            }),
        };
        copied.map_err(out_of_bounds)
    }

    /// Land `data` at `va`: bytes in hand as [`MemoryRegion::dma_write`]
    /// does, a block straight out of its arena. Nothing lands when the
    /// range is out of bounds; a block is freed either way.
    pub fn dma_land(&self, va: u64, data: Payload<'_>) -> VerbsResult<()> {
        match data {
            Payload::Bytes(bytes) => self.dma_write(va, bytes),
            Payload::Block { arena, offset, len } => {
                let mut sites = Sites::default();
                match sites.hold(self, va, len) {
                    Ok(()) => sites.land(arena, offset, len),
                    Err(e) => {
                        data.discard();
                        Err(e)
                    }
                }
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

/// Where a relayed block lands: ranges of regions, bounds checked and
/// held. Each region's storage is locked once, however many SGEs name it,
/// and before the arena the block lands from, so no rehome swaps it under
/// the copy.
#[derive(Default)]
pub(crate) struct Sites<'a> {
    held: Vec<(&'a MemoryRegion, RwLockReadGuard<'a, Storage>)>,
    /// Held region, offset, length.
    ranges: Vec<(usize, usize, usize)>,
}

impl<'a> Sites<'a> {
    /// Add `len` bytes at `va` of `mr`, its bounds checked now.
    pub(crate) fn hold(&mut self, mr: &'a MemoryRegion, va: u64, len: u64) -> VerbsResult<()> {
        let off = mr.va_to_offset(va, len)?;
        let i = match self.held.iter().position(|(m, _)| std::ptr::eq(*m, mr)) {
            Some(i) => i,
            None => {
                self.held.push((mr, mr.storage.read()));
                self.held.len() - 1
            }
        };
        self.ranges.push((i, off as usize, len as usize));
        Ok(())
    }

    /// Take the `len`-byte block at `offset` of `arena` and copy it across
    /// the ranges, in order, straight from the block. Bytes beyond the
    /// ranges are dropped.
    pub(crate) fn land(&self, arena: &SharedArena, offset: u64, len: u64) -> VerbsResult<()> {
        let landed = arena.take_with(offset, len, |taken| {
            let mut at = 0;
            for &(i, off, n) in &self.ranges {
                let from = at..at + n;
                match &*self.held[i].1 {
                    Storage::Private(buf) => {
                        buf.lock()[off..off + n].copy_from_slice(&taken.bytes()[from]);
                    }
                    Storage::Arena { arena, handle } if taken.of(arena) => {
                        taken.copy_to_block(at as u64, n as u64, *handle, off as u64)?;
                    }
                    Storage::Arena { arena, handle } => {
                        arena.write(*handle, off as u64, &taken.bytes()[from])?;
                    }
                }
                at += n;
            }
            Ok(())
        });
        landed.and_then(|r| r).map_err(out_of_bounds)
    }
}

/// An inbound payload as a responder lands it: bytes in hand, or a block
/// of a host arena that a relayed operation names. A block is freed as it
/// lands, or dropped with [`Payload::discard`] when nothing lands from it.
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
}

impl Payload<'_> {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(bytes) => bytes.len() as u64,
            Payload::Block { len, .. } => *len,
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
    /// keeps: a block is taken into it. `None` when the arena refuses the
    /// block.
    pub(crate) fn into_vec(self) -> Option<Vec<u8>> {
        match self {
            Payload::Bytes(bytes) => Some(bytes.to_vec()),
            Payload::Block { arena, offset, len } => arena.take(offset, len).ok(),
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

//! Offset-addressed shared memory segments.
//!
//! A [`SharedArena`] models one POSIX shm segment mapped into multiple
//! containers on a host. Everything is addressed by *offset* — raw pointers
//! would not survive a second mapping at a different base address, so the
//! API never exposes them. Verbs memory regions (`freeflow-verbs`) register
//! ranges of an arena; the agent's zero-copy forwarding passes
//! [`ArenaHandle`]s (offset + length) between containers instead of bytes.
//!
//! Allocation is a first-fit free list over block-granular chunks —
//! deliberately simple, O(free-list length), but supports coalescing so
//! long-running channels don't fragment the segment.

use freeflow_types::{Error, Result};
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

/// A block allocated out of a [`SharedArena`]: offset + length.
///
/// Handles are plain data (sendable across "process" boundaries, i.e.
/// threads) and do not free the block on drop — ownership of a block is a
/// protocol-level concern (the receiver of a zero-copy handoff frees it),
/// mirroring how real shm segment bookkeeping works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaHandle {
    /// Byte offset of the block within the arena.
    pub offset: u64,
    /// Length of the block in bytes.
    pub len: u64,
}

impl ArenaHandle {
    /// End offset (one past the last byte). Saturating: a handle whose end
    /// overflows `u64` ends past every arena.
    pub fn end(&self) -> u64 {
        self.offset.saturating_add(self.len)
    }
}

#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    offset: u64,
    len: u64,
}

struct ArenaInner {
    /// First-fit free list, kept sorted by offset for coalescing.
    free: Vec<FreeBlock>,
    allocated_bytes: u64,
}

/// One shared memory segment, usable from any number of threads.
///
/// Data access goes through [`read`](SharedArena::read) /
/// [`write`](SharedArena::write) with explicit offsets, just as mapped shm
/// is accessed relative to its own base.
pub struct SharedArena {
    buf: Mutex<Box<[u8]>>,
    size: u64,
    inner: Mutex<ArenaInner>,
}

impl SharedArena {
    /// Create an arena of `size` bytes (rounded up to 64-byte granularity).
    pub fn new(size: usize) -> Arc<Self> {
        let size = (size.max(64) as u64).next_multiple_of(64);
        Arc::new(Self {
            buf: Mutex::new(vec![0u8; size as usize].into_boxed_slice()),
            size,
            inner: Mutex::new(ArenaInner {
                free: vec![FreeBlock {
                    offset: 0,
                    len: size,
                }],
                allocated_bytes: 0,
            }),
        })
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.inner.lock().allocated_bytes
    }

    /// Allocate a block of `len` bytes (rounded up to 64-byte granularity).
    ///
    /// Returns [`Error::Exhausted`] when no free block is large enough —
    /// callers treat this as backpressure.
    pub fn alloc(&self, len: u64) -> Result<ArenaHandle> {
        if len == 0 {
            return Err(Error::too_large("zero-length arena allocation"));
        }
        let want = len.next_multiple_of(64);
        let mut inner = self.inner.lock();
        let pos = inner
            .free
            .iter()
            .position(|b| b.len >= want)
            .ok_or_else(|| Error::exhausted(format!("arena: no free block of {want} bytes")))?;
        let block = inner.free[pos];
        if block.len == want {
            inner.free.remove(pos);
        } else {
            inner.free[pos] = FreeBlock {
                offset: block.offset + want,
                len: block.len - want,
            };
        }
        inner.allocated_bytes += want;
        Ok(ArenaHandle {
            offset: block.offset,
            len: want,
        })
    }

    /// Free a previously allocated block, coalescing with neighbours.
    ///
    /// Freeing a handle that was not allocated (or double-freeing) is a
    /// protocol bug; it is detected when it would create overlapping free
    /// blocks and reported as [`Error::InvalidState`].
    pub fn free(&self, handle: ArenaHandle) -> Result<()> {
        self.release(&mut self.inner.lock(), handle)
    }

    /// Whether the arena holds the block a relay descriptor names: it lies
    /// in the arena and no part of it is free. A block held now can still
    /// be taken by someone else before its taker gets to it.
    pub fn holds(&self, offset: u64, len: u64) -> bool {
        let Ok(block) = self.block(offset, len) else {
            return false;
        };
        self.slot(&self.inner.lock(), block).is_ok()
    }

    /// Where `handle` goes back into the free list: refused when it falls
    /// outside the arena or overlaps a free block (it is not allocated).
    fn slot(&self, inner: &ArenaInner, handle: ArenaHandle) -> Result<usize> {
        if handle.len == 0 || handle.end() > self.size {
            return Err(Error::invalid_state(format!(
                "arena free out of range: {handle:?}"
            )));
        }
        // Insert position by offset.
        let idx = inner.free.partition_point(|b| b.offset < handle.offset);
        // Overlap checks against neighbours.
        if idx > 0 {
            let prev = inner.free[idx - 1];
            if prev.offset + prev.len > handle.offset {
                return Err(Error::invalid_state("arena double free (prev overlap)"));
            }
        }
        if idx < inner.free.len() {
            let next = inner.free[idx];
            if handle.end() > next.offset {
                return Err(Error::invalid_state("arena double free (next overlap)"));
            }
        }
        Ok(idx)
    }

    /// [`SharedArena::free`] under the allocator lock the caller holds.
    fn release(&self, inner: &mut ArenaInner, handle: ArenaHandle) -> Result<()> {
        let idx = self.slot(inner, handle)?;
        inner.free.insert(
            idx,
            FreeBlock {
                offset: handle.offset,
                len: handle.len,
            },
        );
        inner.allocated_bytes -= handle.len;
        // Coalesce with next, then prev.
        if idx + 1 < inner.free.len() {
            let next = inner.free[idx + 1];
            if inner.free[idx].offset + inner.free[idx].len == next.offset {
                inner.free[idx].len += next.len;
                inner.free.remove(idx + 1);
            }
        }
        if idx > 0 {
            let cur = inner.free[idx];
            let prev = &mut inner.free[idx - 1];
            if prev.offset + prev.len == cur.offset {
                prev.len += cur.len;
                inner.free.remove(idx);
            }
        }
        Ok(())
    }

    /// Check that `len` bytes at `handle.offset + at` lie inside both the
    /// block and the arena. A handle can come from another container (a
    /// relay descriptor), so no accessor indexes before this passes.
    fn check(&self, handle: ArenaHandle, at: u64, len: u64) -> Result<()> {
        let in_block = at.checked_add(len).is_some_and(|end| end <= handle.len);
        if !in_block || handle.end() > self.size {
            return Err(Error::too_large(format!(
                "{len} bytes at +{at} of {handle:?} fall outside the block or the arena of {} bytes",
                self.size
            )));
        }
        Ok(())
    }

    /// Write `data` into the arena at `handle.offset + at`.
    pub fn write(&self, handle: ArenaHandle, at: u64, data: &[u8]) -> Result<()> {
        self.write_with(handle, at, data.len() as u64, |out| {
            out.copy_from_slice(data)
        })
    }

    /// Hand `fill` the `len` bytes at `handle.offset + at` to write, under
    /// the arena's lock: a gather copies straight from a locked source into
    /// a block this way. Whoever takes a block copies under the same lock
    /// (see [`SharedArena::take_with`]), so both lock the arena first.
    pub fn write_with(
        &self,
        handle: ArenaHandle,
        at: u64,
        len: u64,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<()> {
        self.check(handle, at, len)?;
        let start = (handle.offset + at) as usize;
        fill(&mut self.buf.lock()[start..start + len as usize]);
        Ok(())
    }

    /// Read `out.len()` bytes from the arena at `handle.offset + at`.
    pub fn read(&self, handle: ArenaHandle, at: u64, out: &mut [u8]) -> Result<()> {
        self.read_with(handle, at, out.len() as u64, |bytes| {
            out.copy_from_slice(bytes)
        })
    }

    /// Hand `drain` the `len` bytes at `handle.offset + at` to read, under
    /// the arena's lock, and return what it returns: a landing copies
    /// straight into a locked destination this way, locking the arena
    /// first, as [`SharedArena::write_with`] does.
    pub fn read_with<R>(
        &self,
        handle: ArenaHandle,
        at: u64,
        len: u64,
        drain: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.check(handle, at, len)?;
        let start = (handle.offset + at) as usize;
        Ok(drain(&self.buf.lock()[start..start + len as usize]))
    }

    /// The block holding the `len` payload bytes a relay descriptor names
    /// at `offset` (blocks are allocated at 64-byte granularity, so the
    /// block is `len` rounded up). The descriptor is untrusted: this checks
    /// it against the arena, so nothing is sized from it unchecked.
    pub fn block(&self, offset: u64, len: u64) -> Result<ArenaHandle> {
        let block = ArenaHandle {
            offset,
            len: len.checked_next_multiple_of(64).unwrap_or(u64::MAX),
        };
        self.check(block, 0, len)?;
        Ok(block)
    }

    /// Move a relayed payload out of the arena: free the [`block`] a
    /// descriptor names, then hand `land` its `len` bytes, [`Taken`], to
    /// copy out — into a caller's slice, or into a block of this arena. The
    /// bytes are locked before the allocator lets go of the block, so
    /// whoever is handed it next cannot write it under the copy, while
    /// allocation goes on during it; a refused descriptor (outside the
    /// arena, or not allocated) calls `land` not at all.
    ///
    /// [`block`]: SharedArena::block
    pub fn take_with<R>(
        &self,
        offset: u64,
        len: u64,
        land: impl FnOnce(&mut Taken<'_>) -> R,
    ) -> Result<R> {
        let block = self.block(offset, len)?;
        let buf = {
            let mut inner = self.inner.lock();
            self.release(&mut inner, block)?;
            self.buf.lock()
        };
        Ok(land(&mut Taken {
            arena: self,
            buf,
            start: offset as usize,
            len: len as usize,
        }))
    }

    /// [`SharedArena::take_with`], handing `out` the bytes.
    pub fn take_into(&self, offset: u64, len: u64, out: impl FnOnce(&[u8])) -> Result<()> {
        self.take_with(offset, len, |taken| out(taken.bytes()))
    }

    /// [`SharedArena::take_into`] a fresh `Vec`.
    pub fn take(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let mut bytes = Vec::new();
        self.take_into(offset, len, |b| bytes.extend_from_slice(b))?;
        Ok(bytes)
    }

    /// Copy `len` bytes between two blocks of (possibly) two arenas —
    /// the primitive behind a Verbs `WRITE`/`READ` executed in software.
    /// Two arenas are locked in address order, so copies in opposite
    /// directions between them cannot deadlock.
    pub fn copy(
        src_arena: &SharedArena,
        src: ArenaHandle,
        src_at: u64,
        dst_arena: &SharedArena,
        dst: ArenaHandle,
        dst_at: u64,
        len: u64,
    ) -> Result<()> {
        src_arena.check(src, src_at, len)?;
        dst_arena.check(dst, dst_at, len)?;
        if std::ptr::eq(src_arena, dst_arena) {
            // Same segment: one lock, one copy_within.
            let mut buf = src_arena.buf.lock();
            let s = (src.offset + src_at) as usize;
            let d = (dst.offset + dst_at) as usize;
            buf.copy_within(s..s + len as usize, d);
            Ok(())
        } else {
            let (src_buf, mut dst_buf) = if (src_arena as *const Self) < dst_arena {
                let src_buf = src_arena.buf.lock();
                (src_buf, dst_arena.buf.lock())
            } else {
                let dst_buf = dst_arena.buf.lock();
                (src_arena.buf.lock(), dst_buf)
            };
            let s = (src.offset + src_at) as usize;
            let d = (dst.offset + dst_at) as usize;
            dst_buf[d..d + len as usize].copy_from_slice(&src_buf[s..s + len as usize]);
            Ok(())
        }
    }
}

/// The bytes of a block [`SharedArena::take_with`] freed, still locked
/// until they are copied out.
pub struct Taken<'a> {
    arena: &'a SharedArena,
    buf: MutexGuard<'a, Box<[u8]>>,
    start: usize,
    len: usize,
}

impl Taken<'_> {
    /// The payload bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Whether the bytes are `arena`'s.
    pub fn of(&self, arena: &SharedArena) -> bool {
        std::ptr::eq(self.arena, arena)
    }

    /// Copy `len` payload bytes from `at` to `dst_at` of `dst`, a block of
    /// the same arena: one `copy_within` under the lock already held.
    pub fn copy_to_block(
        &mut self,
        at: u64,
        len: u64,
        dst: ArenaHandle,
        dst_at: u64,
    ) -> Result<()> {
        let in_payload = at
            .checked_add(len)
            .is_some_and(|end| end <= self.len as u64);
        if !in_payload {
            return Err(Error::too_large(format!(
                "{len} bytes at +{at} of a {}-byte payload",
                self.len
            )));
        }
        self.arena.check(dst, dst_at, len)?;
        let s = self.start + at as usize;
        let d = (dst.offset + dst_at) as usize;
        self.buf.copy_within(s..s + len as usize, d);
        Ok(())
    }
}

impl std::fmt::Debug for SharedArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedArena")
            .field("size", &self.size)
            .field("allocated", &self.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let arena = SharedArena::new(4096);
        let h = arena.alloc(100).unwrap();
        assert_eq!(h.len, 128, "rounded to 64-byte granularity");
        arena.write(h, 0, b"freeflow").unwrap();
        let mut out = [0u8; 8];
        arena.read(h, 0, &mut out).unwrap();
        assert_eq!(&out, b"freeflow");
    }

    #[test]
    fn alloc_exhaustion_is_reported() {
        let arena = SharedArena::new(256);
        let _a = arena.alloc(128).unwrap();
        let _b = arena.alloc(128).unwrap();
        let err = arena.alloc(64).unwrap_err();
        assert!(matches!(err, Error::Exhausted(_)), "{err}");
    }

    #[test]
    fn free_coalesces_and_allows_big_realloc() {
        let arena = SharedArena::new(256);
        let a = arena.alloc(64).unwrap();
        let b = arena.alloc(64).unwrap();
        let c = arena.alloc(64).unwrap();
        let d = arena.alloc(64).unwrap();
        for h in [a, b, c, d] {
            arena.free(h).unwrap();
        }
        assert_eq!(arena.allocated(), 0);
        // Only possible if the four blocks coalesced back into one.
        let big = arena.alloc(256).unwrap();
        assert_eq!(big.offset, 0);
    }

    #[test]
    fn double_free_detected() {
        let arena = SharedArena::new(256);
        let a = arena.alloc(64).unwrap();
        arena.free(a).unwrap();
        let err = arena.free(a).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "{err}");
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let arena = SharedArena::new(256);
        let h = arena.alloc(64).unwrap();
        assert!(arena.write(h, 60, &[0u8; 8]).is_err());
        let mut out = [0u8; 8];
        assert!(arena.read(h, 60, &mut out).is_err());
    }

    #[test]
    fn handles_outside_the_arena_are_refused() {
        // Descriptors arrive from other containers: one that starts past
        // the end, or whose end overflows, must be an error, not a panic
        // or a corrupted free list.
        let arena = SharedArena::new(4096);
        let past_end = ArenaHandle {
            offset: 1 << 30,
            len: 64,
        };
        let overflowing = ArenaHandle {
            offset: u64::MAX - 31,
            len: 64,
        };
        let mut out = [0u8; 8];
        for h in [past_end, overflowing] {
            assert!(arena.read(h, 0, &mut out).is_err(), "read {h:?}");
            assert!(arena.write(h, 0, b"hostile!").is_err(), "write {h:?}");
            assert!(arena.free(h).is_err(), "free {h:?}");
            assert!(arena.take(h.offset, h.len).is_err(), "take {h:?}");
        }
        // An in-block offset whose `at + len` overflows is refused too.
        let h = arena.alloc(64).unwrap();
        assert!(arena.read(h, u64::MAX, &mut out).is_err());
        assert_eq!(arena.allocated(), 64, "nothing freed by the refusals");
        assert_eq!(arena.alloc(4096 - 64).unwrap().offset, 64);
    }

    #[test]
    fn take_reads_and_frees_the_rounded_block() {
        let arena = SharedArena::new(4096);
        let payload = [7u8; 100];
        let h = arena.alloc(payload.len() as u64).unwrap();
        arena.write(h, 0, &payload).unwrap();
        assert_eq!(arena.take(h.offset, 100).unwrap(), payload);
        assert_eq!(arena.allocated(), 0, "the whole 128-byte block is freed");
    }

    #[test]
    fn take_into_reads_nothing_from_a_block_it_cannot_claim() {
        let arena = SharedArena::new(4096);
        let h = arena.alloc(64).unwrap();
        let mut seen = Vec::new();
        arena
            .take_into(h.offset, 64, |b| seen.push(b.len()))
            .unwrap();
        assert_eq!(seen, [64]);
        // Taken once already, then outside the arena: refused unread.
        for (offset, len) in [(h.offset, 64), (4096, 64)] {
            assert!(arena.take_into(offset, len, |_| panic!("read")).is_err());
        }
        assert_eq!(arena.allocated(), 0);
    }

    #[test]
    fn copy_between_arenas() {
        let a = SharedArena::new(256);
        let b = SharedArena::new(256);
        let ha = a.alloc(64).unwrap();
        let hb = b.alloc(64).unwrap();
        a.write(ha, 0, b"payload!").unwrap();
        SharedArena::copy(&a, ha, 0, &b, hb, 8, 8).unwrap();
        let mut out = [0u8; 8];
        b.read(hb, 8, &mut out).unwrap();
        assert_eq!(&out, b"payload!");
    }

    #[test]
    fn copy_within_one_arena() {
        let a = SharedArena::new(256);
        let h1 = a.alloc(64).unwrap();
        let h2 = a.alloc(64).unwrap();
        a.write(h1, 0, b"xyz").unwrap();
        SharedArena::copy(&a, h1, 0, &a, h2, 0, 3).unwrap();
        let mut out = [0u8; 3];
        a.read(h2, 0, &mut out).unwrap();
        assert_eq!(&out, b"xyz");
    }

    #[test]
    fn zero_len_alloc_rejected() {
        let arena = SharedArena::new(256);
        assert!(arena.alloc(0).is_err());
    }

    #[test]
    fn concurrent_alloc_free_is_consistent() {
        let arena = SharedArena::new(1 << 16);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Ok(h) = arena.alloc(128) {
                            arena.write(h, 0, &[7u8; 16]).unwrap();
                            arena.free(h).unwrap();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(arena.allocated(), 0);
        // Full coalescing back to one block of the whole arena.
        let all = arena.alloc(1 << 16).unwrap();
        assert_eq!(all.offset, 0);
    }

    use std::sync::Arc;
}

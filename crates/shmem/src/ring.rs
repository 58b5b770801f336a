//! Lock-free single-producer/single-consumer byte ring.
//!
//! This is the primitive underneath every shared-memory channel. Layout and
//! protocol mirror what a cross-process shm ring must look like:
//!
//! * a power-of-two byte buffer;
//! * a producer-owned `head` and consumer-owned `tail`, each a monotonically
//!   increasing `u64` taken modulo capacity on access (indices never wrap
//!   the counter, so full/empty are unambiguous without wasting a slot);
//! * `Release` stores by the owner, `Acquire` loads by the peer.
//!
//! Both indices are cache-padded so the producer and consumer cores do not
//! false-share a line — per-byte cost is one `memcpy` plus two atomic ops
//! per batch, which is what lets shared memory run at memory-bus bandwidth
//! in the paper's Figure `eval_baremetal_thr`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A value alone on its cache line, so the producer's and the consumer's
/// index do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A fixed-capacity lock-free SPSC byte ring.
///
/// Safe for exactly one producer thread and one consumer thread to use
/// concurrently; the [`crate::channel`] wrappers enforce that split by
/// ownership.
pub struct SpscRing {
    buf: UnsafeCell<Box<[u8]>>,
    mask: u64,
    /// Total bytes ever written (producer-owned).
    head: CachePadded<AtomicU64>,
    /// Total bytes ever read (consumer-owned).
    tail: CachePadded<AtomicU64>,
}

// SAFETY: the producer only writes buffer regions in (tail..head+len) that
// the consumer cannot concurrently read (it reads only (tail..head)), and
// index updates use Release/Acquire pairs; the type is safe to share given
// the one-producer/one-consumer contract enforced by the channel wrappers.
unsafe impl Sync for SpscRing {}
unsafe impl Send for SpscRing {}

impl SpscRing {
    /// Create a ring with `capacity` bytes. `capacity` must be a non-zero
    /// power of two (hardware rings are; it makes the modulo a mask).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity > 0,
            "ring capacity must be a non-zero power of two, got {capacity}"
        );
        Self {
            buf: UnsafeCell::new(vec![0u8; capacity].into_boxed_slice()),
            mask: capacity as u64 - 1,
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Bytes currently readable.
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        (head - tail) as usize
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently writable.
    pub fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Producer side: append `data`, all or nothing.
    ///
    /// Returns `false` (writing nothing) if fewer than `data.len()` bytes
    /// are free. All-or-nothing keeps frame writes atomic for the framing
    /// layer above.
    pub fn push(&self, data: &[u8]) -> bool {
        let head = self.head.load(Ordering::Relaxed); // producer-owned
        let tail = self.tail.load(Ordering::Acquire);
        let free = self.capacity() - (head - tail) as usize;
        if data.len() > free {
            return false;
        }
        let cap = self.capacity();
        let start = (head & self.mask) as usize;
        // SAFETY: region (head..head+len) is unreachable by the consumer
        // until the Release store below publishes it.
        let buf = unsafe { &mut *self.buf.get() };
        let first = data.len().min(cap - start);
        buf[start..start + first].copy_from_slice(&data[..first]);
        if first < data.len() {
            buf[..data.len() - first].copy_from_slice(&data[first..]);
        }
        self.head.store(head + data.len() as u64, Ordering::Release);
        true
    }

    /// Producer side: append every slice in `parts` back to back, all or
    /// nothing, publishing the whole batch with a single `Release` store.
    ///
    /// This is the multi-frame analog of [`SpscRing::push`]: the framing
    /// layer passes `[header, payload]` (or several whole frames) and the
    /// consumer observes either none of the bytes or all of them. Because
    /// there is one index publication per call, a batch costs the same two
    /// atomic operations as a single push regardless of how many frames it
    /// carries.
    pub fn push_vectored(&self, parts: &[&[u8]]) -> bool {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let head = self.head.load(Ordering::Relaxed); // producer-owned
        let tail = self.tail.load(Ordering::Acquire);
        let free = self.capacity() - (head - tail) as usize;
        if total > free {
            return false;
        }
        let cap = self.capacity();
        // SAFETY: region (head..head+total) is unreachable by the consumer
        // until the Release store below publishes it.
        let buf = unsafe { &mut *self.buf.get() };
        let mut at = head;
        for part in parts {
            let start = (at & self.mask) as usize;
            let first = part.len().min(cap - start);
            buf[start..start + first].copy_from_slice(&part[..first]);
            if first < part.len() {
                buf[..part.len() - first].copy_from_slice(&part[first..]);
            }
            at += part.len() as u64;
        }
        self.head.store(head + total as u64, Ordering::Release);
        true
    }

    /// Consumer side: read up to `out.len()` bytes, returning how many were
    /// copied (possibly zero).
    pub fn pop(&self, out: &mut [u8]) -> usize {
        let tail = self.tail.load(Ordering::Relaxed); // consumer-owned
        let head = self.head.load(Ordering::Acquire);
        let avail = (head - tail) as usize;
        let n = avail.min(out.len());
        if n == 0 {
            return 0;
        }
        let cap = self.capacity();
        let start = (tail & self.mask) as usize;
        // SAFETY: region (tail..tail+n) was published by the producer's
        // Release store observed via the Acquire load of `head`.
        let buf = unsafe { &*self.buf.get() };
        let first = n.min(cap - start);
        out[..first].copy_from_slice(&buf[start..start + first]);
        if first < n {
            out[first..n].copy_from_slice(&buf[..n - first]);
        }
        self.tail.store(tail + n as u64, Ordering::Release);
        n
    }

    /// Consumer side: read exactly `out.len()` bytes or nothing.
    ///
    /// The framing layer uses this to take a whole header/payload in one
    /// step without tracking partial reads.
    pub fn pop_exact(&self, out: &mut [u8]) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if ((head - tail) as usize) < out.len() {
            return false;
        }
        let n = self.pop(out);
        debug_assert_eq!(n, out.len());
        true
    }

    /// Consumer side: copy the next `out.len()` bytes without consuming
    /// them. Returns `false` if that many bytes are not yet available.
    pub fn peek(&self, out: &mut [u8]) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if ((head - tail) as usize) < out.len() {
            return false;
        }
        let cap = self.capacity();
        let start = (tail & self.mask) as usize;
        // SAFETY: same publication argument as `pop`.
        let buf = unsafe { &*self.buf.get() };
        let first = out.len().min(cap - start);
        out[..first].copy_from_slice(&buf[start..start + first]);
        if first < out.len() {
            let rest = out.len() - first;
            out[first..].copy_from_slice(&buf[..rest]);
        }
        true
    }
}

impl std::fmt::Debug for SpscRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = SpscRing::new(1000);
    }

    #[test]
    fn push_pop_roundtrip() {
        let ring = SpscRing::new(64);
        assert!(ring.push(b"hello"));
        assert_eq!(ring.len(), 5);
        let mut out = [0u8; 5];
        assert_eq!(ring.pop(&mut out), 5);
        assert_eq!(&out, b"hello");
        assert!(ring.is_empty());
    }

    #[test]
    fn push_is_all_or_nothing() {
        let ring = SpscRing::new(8);
        assert!(ring.push(&[1; 6]));
        assert!(!ring.push(&[2; 3]), "only 2 bytes free");
        assert_eq!(ring.len(), 6, "failed push wrote nothing");
        assert!(ring.push(&[2; 2]));
        assert_eq!(ring.free(), 0);
    }

    #[test]
    fn wraps_around_boundary() {
        let ring = SpscRing::new(8);
        let mut sink = [0u8; 8];
        assert!(ring.push(&[1; 6]));
        assert_eq!(ring.pop(&mut sink[..6]), 6);
        // Now head=tail=6; a 5-byte write spans the wrap point.
        assert!(ring.push(&[7, 8, 9, 10, 11]));
        let mut out = [0u8; 5];
        assert_eq!(ring.pop(&mut out), 5);
        assert_eq!(out, [7, 8, 9, 10, 11]);
    }

    #[test]
    fn pop_exact_and_peek() {
        let ring = SpscRing::new(16);
        ring.push(&[1, 2, 3, 4]);
        let mut out = [0u8; 6];
        assert!(!ring.pop_exact(&mut out), "not enough bytes");
        assert_eq!(ring.len(), 4, "failed pop_exact consumed nothing");
        let mut out2 = [0u8; 2];
        assert!(ring.peek(&mut out2));
        assert_eq!(out2, [1, 2]);
        assert_eq!(ring.len(), 4, "peek consumed nothing");
        let mut out4 = [0u8; 4];
        assert!(ring.pop_exact(&mut out4));
        assert_eq!(out4, [1, 2, 3, 4]);
    }

    #[test]
    fn peek_across_wrap() {
        let ring = SpscRing::new(8);
        let mut sink = [0u8; 8];
        ring.push(&[0; 7]);
        ring.pop(&mut sink[..7]);
        ring.push(&[9, 8, 7, 6]); // spans wrap
        let mut out = [0u8; 4];
        assert!(ring.peek(&mut out));
        assert_eq!(out, [9, 8, 7, 6]);
    }

    #[test]
    fn push_vectored_is_all_or_nothing_and_contiguous() {
        let ring = SpscRing::new(16);
        assert!(ring.push_vectored(&[b"abc", b"", b"defg"]));
        assert_eq!(ring.len(), 7);
        // 9 bytes remain free; a 10-byte batch must write nothing.
        assert!(!ring.push_vectored(&[&[0u8; 6], &[0u8; 4]]), "10 > 9 free");
        assert_eq!(ring.len(), 7, "failed vectored push wrote nothing");
        let mut out = [0u8; 7];
        assert!(ring.pop_exact(&mut out));
        assert_eq!(&out, b"abcdefg");
    }

    #[test]
    fn push_vectored_spans_wrap_boundary() {
        let ring = SpscRing::new(8);
        let mut sink = [0u8; 8];
        assert!(ring.push(&[0; 6]));
        assert_eq!(ring.pop(&mut sink[..6]), 6);
        // head=tail=6: both parts straddle or follow the wrap point.
        assert!(ring.push_vectored(&[&[1, 2, 3], &[4, 5, 6, 7]]));
        let mut out = [0u8; 7];
        assert!(ring.pop_exact(&mut out));
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn concurrent_vectored_producer_preserves_stream_across_wraps() {
        // Satellite: multi-frame pushes under producer/consumer contention
        // must keep the byte stream intact across wrap boundaries. The
        // producer emits frames in vectored groups of 1..=4; the consumer
        // sees one unbroken pattern.
        let ring = Arc::new(SpscRing::new(1024));
        let total: usize = 1 << 20;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sent = 0usize;
                let mut group = 1usize;
                while sent < total {
                    let mut frames: Vec<Vec<u8>> = Vec::new();
                    let mut len = 0usize;
                    for k in 0..group {
                        if sent + len >= total {
                            break;
                        }
                        let n = (total - sent - len).min(37 + 13 * k);
                        frames.push(
                            (sent + len..sent + len + n)
                                .map(|i| (i % 251) as u8)
                                .collect(),
                        );
                        len += n;
                    }
                    let parts: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
                    while !ring.push_vectored(&parts) {
                        std::hint::spin_loop();
                    }
                    sent += len;
                    group = group % 4 + 1;
                }
            })
        };
        let mut got = 0usize;
        let mut buf = [0u8; 700];
        while got < total {
            let n = ring.pop(&mut buf);
            for (i, &b) in buf[..n].iter().enumerate() {
                assert_eq!(b, ((got + i) % 251) as u8, "corruption at byte {}", got + i);
            }
            got += n;
        }
        producer.join().unwrap();
        assert!(ring.is_empty());
    }

    #[test]
    fn concurrent_producer_consumer_preserves_stream() {
        // Stream 1 MiB of a known pattern through a small ring and verify
        // the consumer sees exactly the producer's byte sequence.
        let ring = Arc::new(SpscRing::new(4096));
        let total: usize = 1 << 20;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sent = 0usize;
                while sent < total {
                    let n = (total - sent).min(1000);
                    let chunk: Vec<u8> = (sent..sent + n).map(|i| (i % 251) as u8).collect();
                    while !ring.push(&chunk) {
                        std::hint::spin_loop();
                    }
                    sent += n;
                }
            })
        };
        let mut got = 0usize;
        let mut buf = [0u8; 1500];
        while got < total {
            let n = ring.pop(&mut buf);
            for (i, &b) in buf[..n].iter().enumerate() {
                assert_eq!(b, ((got + i) % 251) as u8, "corruption at byte {}", got + i);
            }
            got += n;
        }
        producer.join().unwrap();
        assert!(ring.is_empty());
    }
}

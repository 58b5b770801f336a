//! The one bounded wire codec every FreeFlow byte format is built on.
//!
//! Relay messages, migration checkpoints and socket-mux frames arrive from
//! outside the decoder's trust (a wire, a ring, a torn checkpoint), so every
//! decoder must be total and bounded in memory. Its rules live here, once:
//!
//! * integers are little-endian;
//! * a length prefix is a `u32` — a `u64` for a field that may outgrow
//!   4 GiB, an MR's bytes — checked against the bytes that remain before
//!   anything is sliced;
//! * a record count is a `u32`, capped at `remaining / min_record`, so a
//!   corrupt count cannot size a `Vec` beyond what the input could fill;
//! * [`Reader::finish`] rejects trailing bytes, so every accepted input is
//!   canonical: it re-encodes to exactly the bytes it came from;
//! * [`seal`] and [`open`] add and check an optional FNV-1a trailer.
//!
//! Everything works on `&[u8]`, so using it adds no dependency to a crate.
//! Encoders panic on a `u32` length or count above `u32::MAX`: every
//! producer bounds what it hands them first, so meeting one is a bug in the
//! caller.

use std::fmt;

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended inside a field, or a length prefix overran it.
    Truncated,
    /// A record count exceeded what the remaining bytes can hold.
    Count,
    /// Bytes were left after the last field.
    Trailing,
    /// The checksum trailer did not match the body.
    Checksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireError::Truncated => "input truncated",
            WireError::Count => "record count exceeds the remaining bytes",
            WireError::Trailing => "trailing bytes after the last field",
            WireError::Checksum => "checksum mismatch",
        })
    }
}

impl From<WireError> for crate::Error {
    fn from(e: WireError) -> Self {
        crate::Error::parse(e.to_string())
    }
}

/// A cursor over untrusted bytes: every read is bounds-checked and
/// returns [`WireError`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    /// Read `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// Offset of the next unread byte, for zero-copy views of what was read.
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let out = self.rest.get(..n).ok_or(WireError::Truncated)?;
        self.rest = &self.rest[n..];
        Ok(out)
    }

    /// The next `N` bytes, by value.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("took exactly N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32`-length-prefixed slice ([`Writer::slice`], [`Writer::framed`]).
    pub fn slice(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A `u64`-length-prefixed slice ([`Writer::long_slice`]).
    pub fn long_slice(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::try_from(self.u64()?).map_err(|_| WireError::Truncated)?;
        self.take(len)
    }

    /// A `u32` record count ([`Writer::count`]), refused when the remaining
    /// bytes cannot hold that many records of at least `min_record` bytes.
    pub fn count(&mut self, min_record: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_record.max(1) {
            return Err(WireError::Count);
        }
        Ok(n)
    }

    /// End of input: refuse any byte left over.
    pub fn finish(&self) -> Result<(), WireError> {
        self.rest
            .is_empty()
            .then_some(())
            .ok_or(WireError::Trailing)
    }
}

/// The encoding side of [`Reader`]: appends little-endian fields to a
/// buffer it borrows. Implemented for `Vec<u8>`; a crate with another
/// buffer type implements [`Writer::put`] and [`Writer::written`] on a
/// local newtype.
pub trait Writer {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]) -> &mut Self;

    /// Everything appended so far, for back-patching a length prefix.
    fn written(&mut self) -> &mut [u8];

    /// One byte.
    fn u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v])
    }

    /// A little-endian `u32`.
    fn u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    /// A little-endian `u64`.
    fn u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    /// A `u32`-length-prefixed slice ([`Reader::slice`]).
    fn slice(&mut self, bytes: &[u8]) -> &mut Self {
        self.u32(u32_len(bytes.len())).put(bytes)
    }

    /// A `u64`-length-prefixed slice ([`Reader::long_slice`]).
    fn long_slice(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(bytes.len() as u64).put(bytes)
    }

    /// A record count ([`Reader::count`]).
    fn count(&mut self, n: usize) -> &mut Self {
        self.u32(u32_len(n))
    }

    /// A `u32`-length-prefixed record that `body` writes in place, read
    /// back with [`Reader::slice`]: one pass over the record, no staging
    /// copy.
    fn framed(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self
    where
        Self: Sized,
    {
        let at = self.written().len();
        self.u32(0);
        body(self);
        let len = u32_len(self.written().len() - at - 4);
        self.written()[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self
    }
}

impl Writer for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.extend_from_slice(bytes);
        self
    }

    fn written(&mut self) -> &mut [u8] {
        self
    }
}

fn u32_len(n: usize) -> u32 {
    u32::try_from(n).expect("wire lengths and counts fit in a u32")
}

/// Append the FNV-1a checksum of everything written so far as a `u64`
/// trailer.
pub fn seal(out: &mut impl Writer) {
    let sum = fnv1a(out.written());
    out.u64(sum);
}

/// Check and strip a [`seal`] trailer, returning the body it covers.
pub fn open(bytes: &[u8]) -> Result<&[u8], WireError> {
    let split = bytes.len().checked_sub(8).ok_or(WireError::Truncated)?;
    let (body, trailer) = bytes.split_at(split);
    if Reader::new(trailer).u64()? != fnv1a(body) {
        return Err(WireError::Checksum);
    }
    Ok(body)
}

/// FNV-1a: cheap, deterministic, and exactly strong enough to catch the
/// torn writes a crash mid-transfer leaves.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let mut out = Vec::new();
        out.u8(7)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .slice(b"abc")
            .count(2);
        out.framed(|w| {
            w.u8(1).u8(2);
        });
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.slice(), Ok(&b"abc"[..]));
        assert_eq!(r.count(0), Ok(2));
        assert_eq!(r.slice(), Ok(&[1u8, 2][..]));
        assert_eq!(r.pos(), out.len());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn take_past_the_end_is_truncated() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.take(4), Err(WireError::Truncated));
        assert_eq!(r.u32(), Err(WireError::Truncated));
        assert_eq!(
            r.take(3),
            Ok(&[1u8, 2, 3][..]),
            "a failed read consumes nothing"
        );
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn count_above_the_cap_is_refused() {
        // Three records of at least 4 bytes need 12; 11 remain.
        let mut out = Vec::new();
        out.count(3).put(&[0; 11]);
        assert_eq!(Reader::new(&out).count(4), Err(WireError::Count));
        out.put(&[0]);
        assert_eq!(Reader::new(&out).count(4), Ok(3));
        let mut out = Vec::new();
        out.u32(u32::MAX).put(&[0; 64]);
        assert_eq!(Reader::new(&out).count(1), Err(WireError::Count));
    }

    #[test]
    fn spliced_length_prefix_never_overruns() {
        let mut out = Vec::new();
        out.slice(b"payload");
        let body = out.len() - 4;
        for len in [body as u32 + 1, u32::MAX] {
            out[..4].copy_from_slice(&len.to_le_bytes());
            assert_eq!(Reader::new(&out).slice(), Err(WireError::Truncated));
        }
        for len in [0, 1, body as u32 - 1] {
            out[..4].copy_from_slice(&len.to_le_bytes());
            let mut r = Reader::new(&out);
            assert_eq!(r.slice().map(<[u8]>::len), Ok(len as usize));
            assert_eq!(r.finish(), Err(WireError::Trailing));
        }
    }

    #[test]
    fn long_lengths_keep_their_high_bits() {
        let mut out = Vec::new();
        out.long_slice(b"snapshot");
        assert_eq!(Reader::new(&out).long_slice(), Ok(&b"snapshot"[..]));
        // A length past 4 GiB is refused as such, not wrapped to the bytes
        // that happen to follow.
        for len in [(1u64 << 32) + 8, u64::MAX] {
            out[..8].copy_from_slice(&len.to_le_bytes());
            assert_eq!(Reader::new(&out).long_slice(), Err(WireError::Truncated));
        }
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let mut out = Vec::new();
        out.slice(b"checkpoint body");
        seal(&mut out);
        assert_eq!(open(&out), Ok(&out[..out.len() - 8]));
        for at in 0..out.len() {
            let mut torn = out.clone();
            torn[at] ^= 0x10;
            assert_eq!(open(&torn), Err(WireError::Checksum), "flip at {at}");
        }
        assert_eq!(open(&out[..7]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(WireError::Trailing));
    }
}

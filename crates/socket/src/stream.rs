//! The stream handle: what the application reads and writes.
//!
//! An [`FfStream`] is a stream id on a shared `crate::channel::Channel`
//! — not a QP of its own. Everything heavy (framing, credits, exactly-once
//! delivery across rebinds) lives in the channel and the layers under it
//! (`crate::mux`, the channel's `FfQp`); the handle is a cursor. That is the TSoR translation: sockets are cheap, connections
//! under them are pooled.
//!
//! The application sees one contiguous, reliable byte stream per handle,
//! whatever the transport underneath does — shared memory, RDMA, a TCP
//! detour during failover, and back.

use crate::channel::Channel;
use freeflow::{FfEndpoint, FfQp};
use freeflow_types::{Error, Result};
use std::sync::Arc;

/// A connected, reliable, ordered byte stream over FreeFlow verbs.
///
/// Methods take `&mut self` (like `std::net::TcpStream` used from one
/// thread); use two streams for two threads. Dropping the handle
/// half-closes the stream and releases its state once the peer closes
/// too — the underlying channel lives on, carrying its other streams.
pub struct FfStream {
    channel: Arc<Channel>,
    id: u32,
}

impl FfStream {
    pub(crate) fn new(channel: Arc<Channel>, id: u32) -> Self {
        Self { channel, id }
    }

    /// The underlying *shared* QP (diagnostics: lets tests assert which
    /// data plane the stream landed on). Many streams return the same QP
    /// — that is the point.
    pub fn qp(&self) -> &Arc<FfQp> {
        self.channel.qp()
    }

    /// This stream's id on its channel.
    pub fn stream_id(&self) -> u32 {
        self.id
    }

    /// The peer endpoint.
    pub fn peer(&self) -> Option<FfEndpoint> {
        match self.channel.qp().path() {
            freeflow::qp::FfPath::Local { peer } | freeflow::qp::FfPath::Remote { peer, .. } => {
                Some(peer)
            }
            freeflow::qp::FfPath::Unbound => None,
        }
    }

    /// Make send-side progress without transferring application data.
    /// `write_all`/`read` do this implicitly; explicit flushes are for
    /// event-loop callers that may go a long time without either.
    pub fn flush(&mut self) -> Result<()> {
        self.channel.flush()
    }

    /// Write the whole buffer, blocking for credits and send slots as
    /// needed. Returns `buf.len()`.
    pub fn write_all(&mut self, buf: &[u8]) -> Result<usize> {
        self.channel.write_stream(self.id, buf)
    }

    /// Read up to `buf.len()` bytes, blocking until at least one byte is
    /// available. Returns 0 at EOF (peer shut down and buffer drained).
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.channel.read_stream(self.id, buf, true)
    }

    /// Non-blocking [`FfStream::read`]: returns [`Error::WouldBlock`]
    /// when nothing is buffered (poll-style servers multiplexing many
    /// streams on one thread).
    pub fn try_read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.channel.read_stream(self.id, buf, false)
    }

    /// Whether a `read` would return immediately (bytes buffered, or a
    /// pending EOF).
    pub fn readable(&self) -> bool {
        self.channel.stream_readable(self.id)
    }

    /// Read exactly `buf.len()` bytes.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let mut off = 0;
        while off < buf.len() {
            let n = self.read(&mut buf[off..])?;
            if n == 0 {
                return Err(Error::disconnected("eof mid-read_exact"));
            }
            off += n;
        }
        Ok(())
    }

    /// Half-close: the peer reads EOF after draining. Reads on this side
    /// still work.
    pub fn shutdown(&mut self) -> Result<()> {
        self.channel.shutdown_stream(self.id)
    }
}

impl Drop for FfStream {
    fn drop(&mut self) {
        self.channel.detach_stream(self.id);
    }
}

impl std::fmt::Debug for FfStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FfStream")
            .field("stream", &self.id)
            .field("qpn", &self.channel.qp().qp_num())
            .finish()
    }
}

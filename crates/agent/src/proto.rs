//! The relay protocol: what flows between containers, agents and peers.
//!
//! One binary message format is used on both hops (container ↔ agent over
//! shared memory, agent ↔ agent over the wire), so the agent can forward
//! without re-encoding. The format is written in [`freeflow_types::wire`]
//! — these bytes cross the simulated network, so corruption must surface
//! as `Err`, not a panic, and no length or count on the wire can make the
//! decoder allocate more than the input could fill.
//!
//! Payloads come in two shapes: [`RelayPayload::Inline`] bytes, or
//! [`RelayPayload::Arena`] — an offset/length descriptor into the host's
//! shared arena, the zero-copy handoff of paper §5 (pass the pointer, not
//! the data). Arena payloads are only meaningful within one host; agents
//! materialize them to bytes before a message leaves the machine, and
//! refuse one that arrives from a wire. There is one parser:
//! [`RelayHeader::peek`], which the agent routes on, and `decode` on top.

use bytes::{Bytes, BytesMut};
use freeflow_types::wire::{Reader, Writer};
use freeflow_types::{Error, OverlayIp, Result};

/// A fabric-wide queue-pair address: overlay IP + QPN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireEp {
    /// Overlay IP of the container.
    pub ip: OverlayIp,
    /// Queue-pair number within that container's virtual NIC.
    pub qpn: u32,
}

impl WireEp {
    /// Construct an endpoint.
    pub fn new(ip: OverlayIp, qpn: u32) -> Self {
        Self { ip, qpn }
    }
}

impl std::fmt::Display for WireEp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.ip, self.qpn)
    }
}

/// Message payload: inline bytes or a shared-arena descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayPayload {
    /// Bytes carried in the message itself.
    Inline(Bytes),
    /// A block in the host's shared arena (zero-copy handoff). The
    /// receiver owns the block and must free it.
    Arena {
        /// Byte offset in the arena.
        offset: u64,
        /// Block length in bytes.
        len: u64,
    },
}

impl RelayPayload {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            RelayPayload::Inline(b) => b.len() as u64,
            RelayPayload::Arena { len, .. } => *len,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Completion status codes carried on the wire (maps onto
/// `freeflow_verbs::WcStatus` at the endpoints).
pub mod status {
    /// Operation succeeded.
    pub const OK: u8 = 0;
    /// Remote access error (bad rkey / bounds / permissions).
    pub const REMOTE_ACCESS: u8 = 1;
    /// Remote operation error (peer QP missing or broken).
    pub const REMOTE_OP: u8 = 2;
    /// Receiver posted too small a buffer.
    pub const LOCAL_LENGTH: u8 = 3;
    /// The relay gave up on the operation — the wire to the peer host is
    /// down or stayed full past the retry budget. Endpoints map this onto
    /// `IBV_WC_RETRY_EXC_ERR` and re-path the QP, as they do when their
    /// own op deadline passes with no reply.
    pub const TIMEOUT: u8 = 4;
    /// Like [`TIMEOUT`], but the downed wire was the *route's*: another
    /// wire to the same peer host is up, so forwarding has simply not
    /// converged onto it yet. Endpoints still map this onto
    /// `IBV_WC_RETRY_EXC_ERR`; a QP the orchestrator already moved onto
    /// the surviving transport stays bound instead of erroring out.
    pub const STALE_ROUTE: u8 = 5;
}

/// The relay operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayMsg {
    /// Two-sided SEND (or WRITE_WITH_IMM notification when `imm` is set
    /// and the payload is empty).
    Send {
        /// Sending queue pair.
        src: WireEp,
        /// Destination queue pair.
        dst: WireEp,
        /// Sender's WR cookie (echoed in Ack/Nack).
        wr_id: u64,
        /// Immediate data.
        imm: Option<u32>,
        /// Message payload.
        payload: RelayPayload,
    },
    /// One-sided WRITE into the destination container's memory.
    Write {
        /// Sending queue pair.
        src: WireEp,
        /// Destination queue pair.
        dst: WireEp,
        /// Sender's WR cookie.
        wr_id: u64,
        /// Remote virtual address.
        addr: u64,
        /// Remote key authorizing the write.
        rkey: u32,
        /// Immediate data (turns the op into WRITE_WITH_IMM).
        imm: Option<u32>,
        /// Data to place.
        payload: RelayPayload,
    },
    /// One-sided READ request.
    ReadReq {
        /// Requesting queue pair (reply target).
        src: WireEp,
        /// Queue pair whose memory is read.
        dst: WireEp,
        /// Correlation id for the response.
        req_id: u64,
        /// Remote virtual address to read.
        addr: u64,
        /// Remote key authorizing the read.
        rkey: u32,
        /// Bytes to read.
        len: u64,
    },
    /// Response to a [`RelayMsg::ReadReq`].
    ReadResp {
        /// The reader (original `src`), now the destination.
        src: WireEp,
        /// Destination = the original requester.
        dst: WireEp,
        /// Correlation id.
        req_id: u64,
        /// A [`status`] code.
        status: u8,
        /// The data read (empty on failure).
        payload: RelayPayload,
    },
    /// Positive completion for a SEND/WRITE.
    Ack {
        /// Original sender (destination of this ack).
        src: WireEp,
        /// The acknowledged queue pair (original destination).
        dst: WireEp,
        /// The acknowledged WR.
        wr_id: u64,
        /// Bytes delivered.
        byte_len: u64,
    },
    /// Negative completion for a SEND/WRITE.
    Nack {
        /// Original sender (destination of this nack).
        src: WireEp,
        /// The nacking queue pair.
        dst: WireEp,
        /// The failed WR.
        wr_id: u64,
        /// A [`status`] code (never [`status::OK`]).
        status: u8,
    },
}

const TAG_SEND: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_READ_REQ: u8 = 3;
const TAG_READ_RESP: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_NACK: u8 = 6;
/// A coalesced wire message: several relay messages destined for the same
/// peer host, packed into one send. Never appears on single-message paths —
/// a lone message keeps its plain tag, so batching adds zero bytes and zero
/// parse work when there is nothing to coalesce.
const TAG_BATCH: u8 = 7;

const PAYLOAD_INLINE: u8 = 0;
const PAYLOAD_ARENA: u8 = 1;

/// A [`Writer`] over the relay's `BytesMut`.
struct Out<'a>(&'a mut BytesMut);

impl Writer for Out<'_> {
    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }

    fn written(&mut self) -> &mut [u8] {
        self.0
    }
}

impl Out<'_> {
    fn ep(&mut self, ep: WireEp) -> &mut Self {
        self.u32(ep.ip.raw()).u32(ep.qpn)
    }

    fn imm(&mut self, imm: Option<u32>) -> &mut Self {
        match imm {
            Some(v) => self.u8(1).u32(v),
            None => self.u8(0),
        }
    }

    fn payload(&mut self, p: &RelayPayload) -> &mut Self {
        match p {
            RelayPayload::Inline(b) => self.u8(PAYLOAD_INLINE).slice(b),
            RelayPayload::Arena { offset, len } => self.u8(PAYLOAD_ARENA).u64(*offset).u64(*len),
        }
    }
}

fn get_ep(r: &mut Reader<'_>) -> Result<WireEp> {
    Ok(WireEp::new(OverlayIp(r.u32()?), r.u32()?))
}

fn get_imm(r: &mut Reader<'_>) -> Result<Option<u32>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u32()?)),
        other => Err(Error::parse(format!("bad imm flag {other}"))),
    }
}

fn get_payload(r: &mut Reader<'_>) -> Result<PayloadDesc> {
    match r.u8()? {
        PAYLOAD_INLINE => Ok(PayloadDesc::Inline(r.slice()?.len())),
        PAYLOAD_ARENA => Ok(PayloadDesc::Arena {
            offset: r.u64()?,
            len: r.u64()?,
        }),
        other => Err(Error::parse(format!("bad payload kind {other}"))),
    }
}

/// Write the batch envelope around `n` frames that `frame(i, w)` writes;
/// a lone frame is written plain.
fn envelope(w: &mut Out<'_>, n: usize, mut frame: impl FnMut(usize, &mut Out<'_>)) {
    if n == 1 {
        return frame(0, w);
    }
    w.u8(TAG_BATCH).count(n);
    for i in 0..n {
        w.framed(|w| frame(i, w));
    }
}

/// Hand `each` the frames of the batch envelope `buf` in order, refusing
/// torn lengths, overruns, undersized counts and trailing bytes.
fn each_frame(buf: &Bytes, mut each: impl FnMut(Bytes) -> Result<()>) -> Result<()> {
    let r = &mut Reader::new(buf);
    r.u8()?;
    // Past the tag, every frame costs at least its 4-byte length prefix, so
    // the bytes that remain bound how many frames an untrusted count claims.
    let count = r.count(4)?;
    if count < 2 {
        return Err(Error::parse(format!(
            "batch of {count} messages: lone messages use plain tags"
        )));
    }
    for _ in 0..count {
        let len = r.slice()?.len();
        each(buf.slice(r.pos() - len..r.pos()))?;
    }
    Ok(r.finish()?)
}

/// A frame's payload as [`RelayHeader::peek`] reads it: where the bytes
/// are, not the bytes. The payload is every frame's last field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadDesc {
    /// This many bytes carried inline: the frame's tail.
    Inline(usize),
    /// A block in the sending host's arena.
    Arena {
        /// Byte offset in the arena.
        offset: u64,
        /// Payload length in bytes.
        len: u64,
    },
}

/// What a relay frame says about routing, read by [`RelayHeader::peek`]
/// without building a [`RelayMsg`] or touching its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayHeader {
    /// The originating endpoint.
    pub src: WireEp,
    /// The routing destination.
    pub dst: WireEp,
    /// The payload of a SEND, WRITE or READ response.
    pub payload: Option<PayloadDesc>,
    tag: u8,
    /// The WR cookie or READ correlation id, the field after the endpoints.
    id: u64,
    /// The fields only [`RelayMsg::decode`] needs; peek checks them.
    rest: Rest,
    /// Where the payload descriptor starts, the frame's last field.
    at: usize,
}

/// The fields a frame carries between its id and its payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rest {
    addr: u64,
    rkey: u32,
    imm: Option<u32>,
    len: u64,
    status: u8,
}

impl RelayHeader {
    /// Check a whole frame in one bounded pass and return its header. It
    /// accepts exactly the frames [`RelayMsg::decode`] accepts: decode is
    /// built on it.
    pub fn peek(frame: &[u8]) -> Result<Self> {
        let r = &mut Reader::new(frame);
        let (tag, src, dst, id) = (r.u8()?, get_ep(r)?, get_ep(r)?, r.u64()?);
        let mut rest = Rest::default();
        // Each tag's fields in wire order (see `RelayMsg::write`).
        if matches!(tag, TAG_WRITE | TAG_READ_REQ) {
            (rest.addr, rest.rkey) = (r.u64()?, r.u32()?);
        }
        if matches!(tag, TAG_SEND | TAG_WRITE) {
            rest.imm = get_imm(r)?;
        }
        if matches!(tag, TAG_READ_RESP | TAG_NACK) {
            rest.status = r.u8()?;
        }
        if matches!(tag, TAG_READ_REQ | TAG_ACK) {
            rest.len = r.u64()?;
        }
        let at = r.pos();
        let payload = match tag {
            TAG_SEND | TAG_WRITE | TAG_READ_RESP => Some(get_payload(r)?),
            TAG_READ_REQ | TAG_ACK | TAG_NACK => None,
            other => return Err(Error::parse(format!("unknown relay tag {other}"))),
        };
        r.finish()?;
        Ok(Self {
            src,
            dst,
            payload,
            tag,
            id,
            rest,
            at,
        })
    }

    /// The reply refusing this operation with `code`: a Nack for SEND/WRITE,
    /// an empty READ response for a READ. Replies get none: no loops.
    pub(crate) fn refusal(&self, code: u8) -> Option<RelayMsg> {
        let (src, dst, id) = (self.dst, self.src, self.id);
        match self.tag {
            TAG_SEND | TAG_WRITE => Some(RelayMsg::Nack {
                src,
                dst,
                wr_id: id,
                status: code,
            }),
            TAG_READ_REQ => Some(RelayMsg::ReadResp {
                src,
                dst,
                req_id: id,
                status: code,
                payload: RelayPayload::Inline(Bytes::new()),
            }),
            _ => None,
        }
    }

    /// The arena block `(offset, len)` the payload names, if it names one.
    pub(crate) fn arena(&self) -> Option<(u64, u64)> {
        match self.payload {
            Some(PayloadDesc::Arena { offset, len }) => Some((offset, len)),
            _ => None,
        }
    }

    /// Append `frame` (the frame this header was peeked from) to `buf` with
    /// `payload`'s descriptor in place of its own. For an inline payload the
    /// caller appends its bytes next.
    pub(crate) fn reframe(&self, frame: &[u8], payload: PayloadDesc, buf: &mut BytesMut) {
        let w = &mut Out(buf);
        w.put(&frame[..self.at]);
        match payload {
            PayloadDesc::Inline(len) => {
                let len = u32::try_from(len).expect("a relayed payload fits a u32 length");
                w.u8(PAYLOAD_INLINE).u32(len)
            }
            PayloadDesc::Arena { offset, len } => w.u8(PAYLOAD_ARENA).u64(offset).u64(len),
        };
    }
}

impl RelayMsg {
    /// The routing destination of this message.
    pub fn dst(&self) -> WireEp {
        self.head().2
    }

    /// The originating endpoint.
    pub fn src(&self) -> WireEp {
        self.head().1
    }

    /// What every encoding starts with: tag, source, destination.
    fn head(&self) -> (u8, WireEp, WireEp) {
        match *self {
            RelayMsg::Send { src, dst, .. } => (TAG_SEND, src, dst),
            RelayMsg::Write { src, dst, .. } => (TAG_WRITE, src, dst),
            RelayMsg::ReadReq { src, dst, .. } => (TAG_READ_REQ, src, dst),
            RelayMsg::ReadResp { src, dst, .. } => (TAG_READ_RESP, src, dst),
            RelayMsg::Ack { src, dst, .. } => (TAG_ACK, src, dst),
            RelayMsg::Nack { src, dst, .. } => (TAG_NACK, src, dst),
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serialize into a caller-owned buffer — the hot-path variant.
    ///
    /// Appends the encoding to `buf` without allocating a fresh `Vec` or
    /// `BytesMut` per message, so a relay coalescing many frames into one
    /// wire send pays for one buffer, not one per frame.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        self.write(&mut Out(buf));
    }

    fn write(&self, w: &mut Out<'_>) {
        let (tag, src, dst) = self.head();
        w.u8(tag).ep(src).ep(dst);
        match self {
            RelayMsg::Send {
                wr_id,
                imm,
                payload,
                ..
            } => w.u64(*wr_id).imm(*imm).payload(payload),
            RelayMsg::Write {
                wr_id,
                addr,
                rkey,
                imm,
                payload,
                ..
            } => w
                .u64(*wr_id)
                .u64(*addr)
                .u32(*rkey)
                .imm(*imm)
                .payload(payload),
            RelayMsg::ReadReq {
                req_id,
                addr,
                rkey,
                len,
                ..
            } => w.u64(*req_id).u64(*addr).u32(*rkey).u64(*len),
            RelayMsg::ReadResp {
                req_id,
                status,
                payload,
                ..
            } => w.u64(*req_id).u8(*status).payload(payload),
            RelayMsg::Ack {
                wr_id, byte_len, ..
            } => w.u64(*wr_id).u64(*byte_len),
            RelayMsg::Nack { wr_id, status, .. } => w.u64(*wr_id).u8(*status),
        };
    }

    /// Coalesce several messages into one wire message.
    ///
    /// Wire shape: `[TAG_BATCH][u32 count][u32 frame_len, frame]*`. A lone
    /// message is emitted in its plain single-message format — the batch
    /// envelope only ever wraps two or more frames, so coalescing never
    /// costs a lone message a byte of framing or a microsecond of parsing.
    /// The first byte discriminates: plain tags are 1–6, a batch is 7.
    ///
    /// Panics in debug builds if `msgs` is empty — an empty flush is a
    /// caller bug, there is nothing to put on the wire.
    pub fn encode_coalesced(msgs: &[RelayMsg], buf: &mut BytesMut) {
        debug_assert!(!msgs.is_empty(), "coalescing zero messages");
        envelope(&mut Out(buf), msgs.len(), |i, w| msgs[i].write(w));
    }

    /// Coalesce `n` raw frames, `len` bytes in all, into one wire message
    /// in a buffer sized once: `frame(i, buf)` appends frame `i`. The shape
    /// is [`RelayMsg::encode_coalesced`]'s, so a lone frame stays plain.
    pub(crate) fn encode_frames(
        n: usize,
        len: usize,
        mut frame: impl FnMut(usize, &mut BytesMut),
    ) -> Bytes {
        let envelope_len = if n > 1 { 5 + 4 * n } else { 0 };
        let mut buf = BytesMut::with_capacity(envelope_len + len);
        envelope(&mut Out(&mut buf), n, |i, w| frame(i, w.0));
        buf.freeze()
    }

    /// Parse a wire message that may be a coalesced batch.
    ///
    /// Single messages (tags 1–6) decode exactly as [`RelayMsg::decode`]
    /// and yield one element. A `TAG_BATCH` envelope yields its frames in
    /// order. Returns the number of messages appended to `out`.
    ///
    /// Corruption surfaces as `Err`, never a panic, and rejects the whole
    /// batch: a torn frame length, a frame that overruns the buffer, a
    /// zero-frame batch, trailing bytes after the last frame, or a corrupt
    /// inner frame all fail without delivering a prefix — a relay must not
    /// ack half a wire message it could not fully parse.
    pub fn decode_many(buf: Bytes, out: &mut Vec<RelayMsg>) -> Result<usize> {
        if buf.first() != Some(&TAG_BATCH) {
            out.push(RelayMsg::decode(buf)?);
            return Ok(1);
        }
        let start = out.len();
        let decoded = each_frame(&buf, |frame| RelayMsg::decode(frame).map(|m| out.push(m)));
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded.map(|()| out.len() - start)
    }

    /// Split a wire message into its raw frames without decoding them.
    ///
    /// A plain message (tags 1–6) yields itself as the only frame; a
    /// `TAG_BATCH` envelope yields one `Bytes` per inner frame. Framing
    /// corruption (torn lengths, overruns, undersized counts, trailing
    /// bytes) is rejected whole, exactly as in [`RelayMsg::decode_many`];
    /// the frames themselves are *not* decoded, so a forwarder can fan
    /// them out and let each consumer surface per-frame corruption.
    pub fn split_frames(buf: Bytes) -> Result<Vec<Bytes>> {
        if buf.first() != Some(&TAG_BATCH) {
            return Ok(vec![buf]);
        }
        let mut frames = Vec::new();
        each_frame(&buf, |frame| {
            frames.push(frame);
            Ok(())
        })?;
        Ok(frames)
    }

    /// Parse from wire bytes: [`RelayHeader::peek`], then the message it
    /// describes, its inline payload a zero-copy view of `buf`.
    pub fn decode(buf: Bytes) -> Result<Self> {
        let h = RelayHeader::peek(&buf)?;
        let (src, dst, id, rest) = (h.src, h.dst, h.id, h.rest);
        let payload = match h.payload {
            Some(PayloadDesc::Arena { offset, len }) => RelayPayload::Arena { offset, len },
            Some(PayloadDesc::Inline(len)) => RelayPayload::Inline(buf.slice(buf.len() - len..)),
            // Read only by the tags that have a payload.
            None => RelayPayload::Inline(buf.slice(..0)),
        };
        Ok(match h.tag {
            TAG_SEND => RelayMsg::Send {
                src,
                dst,
                wr_id: id,
                imm: rest.imm,
                payload,
            },
            TAG_WRITE => RelayMsg::Write {
                src,
                dst,
                wr_id: id,
                addr: rest.addr,
                rkey: rest.rkey,
                imm: rest.imm,
                payload,
            },
            TAG_READ_REQ => RelayMsg::ReadReq {
                src,
                dst,
                req_id: id,
                addr: rest.addr,
                rkey: rest.rkey,
                len: rest.len,
            },
            TAG_READ_RESP => RelayMsg::ReadResp {
                src,
                dst,
                req_id: id,
                status: rest.status,
                payload,
            },
            TAG_ACK => RelayMsg::Ack {
                src,
                dst,
                wr_id: id,
                byte_len: rest.len,
            },
            // Peek admits the six message tags only.
            _ => RelayMsg::Nack {
                src,
                dst,
                wr_id: id,
                status: rest.status,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(last: u8, qpn: u32) -> WireEp {
        WireEp::new(OverlayIp::from_octets(10, 0, 0, last), qpn)
    }

    fn all_messages() -> Vec<RelayMsg> {
        vec![
            RelayMsg::Send {
                src: ep(1, 10),
                dst: ep(2, 20),
                wr_id: 99,
                imm: None,
                payload: RelayPayload::Inline(Bytes::from_static(b"hello")),
            },
            RelayMsg::Send {
                src: ep(1, 10),
                dst: ep(2, 20),
                wr_id: 100,
                imm: Some(0xABCD),
                payload: RelayPayload::Arena {
                    offset: 4096,
                    len: 128,
                },
            },
            RelayMsg::Write {
                src: ep(3, 1),
                dst: ep(4, 2),
                wr_id: 7,
                addr: 0x10_0040,
                rkey: 42,
                imm: Some(1),
                payload: RelayPayload::Inline(Bytes::from_static(b"data")),
            },
            RelayMsg::ReadReq {
                src: ep(5, 1),
                dst: ep(6, 2),
                req_id: 11,
                addr: 0x20_0000,
                rkey: 9,
                len: 4096,
            },
            RelayMsg::ReadResp {
                src: ep(6, 2),
                dst: ep(5, 1),
                req_id: 11,
                status: status::OK,
                payload: RelayPayload::Inline(Bytes::from_static(b"read data")),
            },
            RelayMsg::Ack {
                src: ep(2, 20),
                dst: ep(1, 10),
                wr_id: 99,
                byte_len: 5,
            },
            RelayMsg::Nack {
                src: ep(2, 20),
                dst: ep(1, 10),
                wr_id: 100,
                status: status::REMOTE_ACCESS,
            },
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in all_messages() {
            let decoded = RelayMsg::decode(msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn dst_and_src_accessors() {
        for msg in all_messages() {
            // dst ip drives routing — must never panic.
            let _ = msg.dst();
            let _ = msg.src();
        }
        let m = &all_messages()[0];
        assert_eq!(m.dst(), ep(2, 20));
        assert_eq!(m.src(), ep(1, 10));
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        for msg in all_messages() {
            let wire = msg.encode();
            for cut in 0..wire.len() {
                let truncated = wire.slice(..cut);
                assert!(
                    RelayMsg::decode(truncated).is_err(),
                    "cut at {cut} of {:?} must fail",
                    msg
                );
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(RelayMsg::decode(Bytes::from_static(&[0xFF, 0, 0])).is_err());
        assert!(RelayMsg::decode(Bytes::new()).is_err());
    }

    #[test]
    fn payload_length_accessor() {
        assert_eq!(RelayPayload::Inline(Bytes::from_static(b"abc")).len(), 3);
        assert_eq!(RelayPayload::Arena { offset: 0, len: 64 }.len(), 64);
        assert!(RelayPayload::Inline(Bytes::new()).is_empty());
    }

    #[test]
    fn encode_into_matches_encode() {
        for msg in all_messages() {
            let mut buf = BytesMut::new();
            msg.encode_into(&mut buf);
            assert_eq!(buf.freeze(), msg.encode());
        }
    }

    #[test]
    fn coalesced_batch_roundtrips_in_order() {
        let msgs = all_messages();
        let mut buf = BytesMut::new();
        RelayMsg::encode_coalesced(&msgs, &mut buf);
        let mut out = Vec::new();
        let n = RelayMsg::decode_many(buf.freeze(), &mut out).unwrap();
        assert_eq!(n, msgs.len());
        assert_eq!(out, msgs);
    }

    #[test]
    fn lone_message_coalesces_to_plain_format() {
        let msg = all_messages().remove(0);
        let mut buf = BytesMut::new();
        RelayMsg::encode_coalesced(std::slice::from_ref(&msg), &mut buf);
        let wire = buf.freeze();
        // Identical bytes to the unbatched encoder: zero overhead.
        assert_eq!(wire, msg.encode());
        let mut out = Vec::new();
        assert_eq!(RelayMsg::decode_many(wire, &mut out).unwrap(), 1);
        assert_eq!(out, vec![msg]);
    }

    #[test]
    fn torn_batch_rejected_whole() {
        let msgs = all_messages();
        let mut buf = BytesMut::new();
        RelayMsg::encode_coalesced(&msgs, &mut buf);
        let wire = buf.freeze();
        for cut in 1..wire.len() {
            let mut out = Vec::new();
            assert!(
                RelayMsg::decode_many(wire.slice(..cut), &mut out).is_err(),
                "cut at {cut} must fail"
            );
            assert!(out.is_empty(), "cut at {cut} must not deliver a prefix");
        }
    }

    #[test]
    fn batch_trailing_bytes_rejected() {
        let msgs = all_messages();
        let mut buf = BytesMut::new();
        RelayMsg::encode_coalesced(&msgs, &mut buf);
        buf.extend_from_slice(&[0xEE]);
        let mut out = Vec::new();
        assert!(RelayMsg::decode_many(buf.freeze(), &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn undersized_batch_count_rejected() {
        // count < 2 on the wire is corruption: lone messages never get the
        // batch envelope.
        for count in [0, 1] {
            let mut buf = Vec::new();
            buf.u8(TAG_BATCH).count(count);
            let mut out = Vec::new();
            assert!(RelayMsg::decode_many(Bytes::from(buf), &mut out).is_err());
        }
    }

    #[test]
    fn oversized_batch_count_rejected_before_allocating() {
        // A bit-flipped count must fail on the bytes that remain, not
        // reach `Vec::with_capacity` (u32::MAX frames would be ~100 GB).
        let mut buf = Vec::new();
        buf.u8(TAG_BATCH).u32(u32::MAX).put(&[0u8; 64]);
        let buf = Bytes::from(buf);
        assert!(RelayMsg::split_frames(buf.clone()).is_err());
        let mut out = Vec::new();
        assert!(RelayMsg::decode_many(buf, &mut out).is_err());
        assert!(out.is_empty());
        // The largest count the remaining bytes could frame still parses
        // frame by frame (and fails on content, not on allocation).
        let mut buf = Vec::new();
        buf.u8(TAG_BATCH).count(2).slice(&[]).slice(&[]);
        assert_eq!(RelayMsg::split_frames(Bytes::from(buf)).unwrap().len(), 2);
    }
}

//! The relay protocol: what flows between containers, agents and peers.
//!
//! One binary message format is used on both hops (container ↔ agent over
//! shared memory, agent ↔ agent over the wire), so the agent can forward
//! without re-encoding. The format is hand-rolled (no serde data format is
//! available offline) and length-checked on parse — these bytes cross the
//! simulated network, so corruption must surface as `Err`, not a panic.
//!
//! Payloads come in two shapes: [`RelayPayload::Inline`] bytes, or
//! [`RelayPayload::Arena`] — an offset/length descriptor into the host's
//! shared arena, the zero-copy handoff of paper §5 (pass the pointer, not
//! the data). Arena payloads are only meaningful within one host; agents
//! materialize them to bytes before a message leaves the machine.

use bytes::{Buf, BufMut, Bytes, BytesMut};
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
    /// down or stayed full past the retry budget, or no reply arrived
    /// within the relay timeout. Endpoints map this onto
    /// `IBV_WC_RETRY_EXC_ERR` and re-path the QP.
    pub const TIMEOUT: u8 = 4;
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

fn put_ep(buf: &mut BytesMut, ep: WireEp) {
    buf.put_u32(ep.ip.raw());
    buf.put_u32(ep.qpn);
}

fn get_ep(buf: &mut Bytes) -> Result<WireEp> {
    if buf.len() < 8 {
        return Err(Error::parse("truncated endpoint"));
    }
    Ok(WireEp {
        ip: OverlayIp(buf.get_u32()),
        qpn: buf.get_u32(),
    })
}

fn put_imm(buf: &mut BytesMut, imm: Option<u32>) {
    match imm {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u32(v);
        }
        None => buf.put_u8(0),
    }
}

fn get_imm(buf: &mut Bytes) -> Result<Option<u32>> {
    if buf.is_empty() {
        return Err(Error::parse("truncated imm flag"));
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            if buf.len() < 4 {
                return Err(Error::parse("truncated imm value"));
            }
            Ok(Some(buf.get_u32()))
        }
        other => Err(Error::parse(format!("bad imm flag {other}"))),
    }
}

fn put_payload(buf: &mut BytesMut, p: &RelayPayload) {
    match p {
        RelayPayload::Inline(b) => {
            buf.put_u8(PAYLOAD_INLINE);
            buf.put_u64(b.len() as u64);
            buf.extend_from_slice(b);
        }
        RelayPayload::Arena { offset, len } => {
            buf.put_u8(PAYLOAD_ARENA);
            buf.put_u64(*offset);
            buf.put_u64(*len);
        }
    }
}

fn get_payload(buf: &mut Bytes) -> Result<RelayPayload> {
    if buf.is_empty() {
        return Err(Error::parse("truncated payload kind"));
    }
    match buf.get_u8() {
        PAYLOAD_INLINE => {
            if buf.len() < 8 {
                return Err(Error::parse("truncated payload length"));
            }
            let len = buf.get_u64() as usize;
            if buf.len() < len {
                return Err(Error::parse(format!(
                    "payload truncated: want {len}, have {}",
                    buf.len()
                )));
            }
            Ok(RelayPayload::Inline(buf.split_to(len)))
        }
        PAYLOAD_ARENA => {
            if buf.len() < 16 {
                return Err(Error::parse("truncated arena descriptor"));
            }
            Ok(RelayPayload::Arena {
                offset: buf.get_u64(),
                len: buf.get_u64(),
            })
        }
        other => Err(Error::parse(format!("bad payload kind {other}"))),
    }
}

impl RelayMsg {
    /// The routing destination of this message.
    pub fn dst(&self) -> WireEp {
        match self {
            RelayMsg::Send { dst, .. }
            | RelayMsg::Write { dst, .. }
            | RelayMsg::ReadReq { dst, .. }
            | RelayMsg::ReadResp { dst, .. }
            | RelayMsg::Ack { dst, .. }
            | RelayMsg::Nack { dst, .. } => *dst,
        }
    }

    /// The originating endpoint.
    pub fn src(&self) -> WireEp {
        match self {
            RelayMsg::Send { src, .. }
            | RelayMsg::Write { src, .. }
            | RelayMsg::ReadReq { src, .. }
            | RelayMsg::ReadResp { src, .. }
            | RelayMsg::Ack { src, .. }
            | RelayMsg::Nack { src, .. } => *src,
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
        match self {
            RelayMsg::Send {
                src,
                dst,
                wr_id,
                imm,
                payload,
            } => {
                buf.put_u8(TAG_SEND);
                put_ep(buf, *src);
                put_ep(buf, *dst);
                buf.put_u64(*wr_id);
                put_imm(buf, *imm);
                put_payload(buf, payload);
            }
            RelayMsg::Write {
                src,
                dst,
                wr_id,
                addr,
                rkey,
                imm,
                payload,
            } => {
                buf.put_u8(TAG_WRITE);
                put_ep(buf, *src);
                put_ep(buf, *dst);
                buf.put_u64(*wr_id);
                buf.put_u64(*addr);
                buf.put_u32(*rkey);
                put_imm(buf, *imm);
                put_payload(buf, payload);
            }
            RelayMsg::ReadReq {
                src,
                dst,
                req_id,
                addr,
                rkey,
                len,
            } => {
                buf.put_u8(TAG_READ_REQ);
                put_ep(buf, *src);
                put_ep(buf, *dst);
                buf.put_u64(*req_id);
                buf.put_u64(*addr);
                buf.put_u32(*rkey);
                buf.put_u64(*len);
            }
            RelayMsg::ReadResp {
                src,
                dst,
                req_id,
                status,
                payload,
            } => {
                buf.put_u8(TAG_READ_RESP);
                put_ep(buf, *src);
                put_ep(buf, *dst);
                buf.put_u64(*req_id);
                buf.put_u8(*status);
                put_payload(buf, payload);
            }
            RelayMsg::Ack {
                src,
                dst,
                wr_id,
                byte_len,
            } => {
                buf.put_u8(TAG_ACK);
                put_ep(buf, *src);
                put_ep(buf, *dst);
                buf.put_u64(*wr_id);
                buf.put_u64(*byte_len);
            }
            RelayMsg::Nack {
                src,
                dst,
                wr_id,
                status,
            } => {
                buf.put_u8(TAG_NACK);
                put_ep(buf, *src);
                put_ep(buf, *dst);
                buf.put_u64(*wr_id);
                buf.put_u8(*status);
            }
        }
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
        if msgs.len() == 1 {
            msgs[0].encode_into(buf);
            return;
        }
        buf.put_u8(TAG_BATCH);
        buf.put_u32(msgs.len() as u32);
        for msg in msgs {
            // Reserve the length slot, encode, then patch the real length —
            // one pass over the payload instead of encode-then-copy.
            let len_at = buf.len();
            buf.put_u32(0);
            let start = buf.len();
            msg.encode_into(buf);
            let frame_len = (buf.len() - start) as u32;
            buf[len_at..len_at + 4].copy_from_slice(&frame_len.to_be_bytes());
        }
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
        let frames = Self::split_frames(buf)?;
        let mut decoded = Vec::with_capacity(frames.len());
        for frame in frames {
            decoded.push(RelayMsg::decode(frame)?);
        }
        let count = decoded.len();
        out.extend(decoded);
        Ok(count)
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
        let mut buf = buf.slice(1..);
        if buf.len() < 4 {
            return Err(Error::parse("truncated batch count"));
        }
        let count = buf.get_u32() as usize;
        if count < 2 {
            return Err(Error::parse(format!(
                "batch of {count} messages: lone messages use plain tags"
            )));
        }
        // The count is untrusted: every frame costs at least its 4-byte
        // length prefix, so the bytes that remain bound how many frames
        // (and how much `Vec` capacity) the envelope can possibly hold.
        if count > buf.len() / 4 {
            return Err(Error::parse(format!(
                "batch count {count} exceeds what {} remaining bytes can frame",
                buf.len()
            )));
        }
        let mut frames = Vec::with_capacity(count);
        for i in 0..count {
            if buf.len() < 4 {
                return Err(Error::parse(format!("truncated length of frame {i}")));
            }
            let len = buf.get_u32() as usize;
            if buf.len() < len {
                return Err(Error::parse(format!(
                    "frame {i} truncated: want {len}, have {}",
                    buf.len()
                )));
            }
            frames.push(buf.split_to(len));
        }
        if !buf.is_empty() {
            return Err(Error::parse(format!(
                "{} trailing bytes after batch",
                buf.len()
            )));
        }
        Ok(frames)
    }

    /// Parse from wire bytes.
    pub fn decode(mut buf: Bytes) -> Result<Self> {
        if buf.is_empty() {
            return Err(Error::parse("empty relay message"));
        }
        let tag = buf.get_u8();
        let need = |buf: &Bytes, n: usize, what: &str| -> Result<()> {
            if buf.len() < n {
                Err(Error::parse(format!("truncated {what}")))
            } else {
                Ok(())
            }
        };
        match tag {
            TAG_SEND => {
                let src = get_ep(&mut buf)?;
                let dst = get_ep(&mut buf)?;
                need(&buf, 8, "wr_id")?;
                let wr_id = buf.get_u64();
                let imm = get_imm(&mut buf)?;
                let payload = get_payload(&mut buf)?;
                Ok(RelayMsg::Send {
                    src,
                    dst,
                    wr_id,
                    imm,
                    payload,
                })
            }
            TAG_WRITE => {
                let src = get_ep(&mut buf)?;
                let dst = get_ep(&mut buf)?;
                need(&buf, 20, "write header")?;
                let wr_id = buf.get_u64();
                let addr = buf.get_u64();
                let rkey = buf.get_u32();
                let imm = get_imm(&mut buf)?;
                let payload = get_payload(&mut buf)?;
                Ok(RelayMsg::Write {
                    src,
                    dst,
                    wr_id,
                    addr,
                    rkey,
                    imm,
                    payload,
                })
            }
            TAG_READ_REQ => {
                let src = get_ep(&mut buf)?;
                let dst = get_ep(&mut buf)?;
                need(&buf, 28, "read request")?;
                Ok(RelayMsg::ReadReq {
                    src,
                    dst,
                    req_id: buf.get_u64(),
                    addr: buf.get_u64(),
                    rkey: buf.get_u32(),
                    len: buf.get_u64(),
                })
            }
            TAG_READ_RESP => {
                let src = get_ep(&mut buf)?;
                let dst = get_ep(&mut buf)?;
                need(&buf, 9, "read response")?;
                let req_id = buf.get_u64();
                let status = buf.get_u8();
                let payload = get_payload(&mut buf)?;
                Ok(RelayMsg::ReadResp {
                    src,
                    dst,
                    req_id,
                    status,
                    payload,
                })
            }
            TAG_ACK => {
                let src = get_ep(&mut buf)?;
                let dst = get_ep(&mut buf)?;
                need(&buf, 16, "ack")?;
                Ok(RelayMsg::Ack {
                    src,
                    dst,
                    wr_id: buf.get_u64(),
                    byte_len: buf.get_u64(),
                })
            }
            TAG_NACK => {
                let src = get_ep(&mut buf)?;
                let dst = get_ep(&mut buf)?;
                need(&buf, 9, "nack")?;
                Ok(RelayMsg::Nack {
                    src,
                    dst,
                    wr_id: buf.get_u64(),
                    status: buf.get_u8(),
                })
            }
            other => Err(Error::parse(format!("unknown relay tag {other}"))),
        }
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
        buf.put_u8(0xEE);
        let mut out = Vec::new();
        assert!(RelayMsg::decode_many(buf.freeze(), &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn undersized_batch_count_rejected() {
        // count < 2 on the wire is corruption: lone messages never get the
        // batch envelope.
        for count in [0u32, 1] {
            let mut buf = BytesMut::new();
            buf.put_u8(7); // TAG_BATCH
            buf.put_u32(count);
            let mut out = Vec::new();
            assert!(RelayMsg::decode_many(buf.freeze(), &mut out).is_err());
        }
    }

    #[test]
    fn oversized_batch_count_rejected_before_allocating() {
        // A bit-flipped count must fail on the bytes that remain, not
        // reach `Vec::with_capacity` (u32::MAX frames would be ~100 GB).
        let mut buf = BytesMut::new();
        buf.put_u8(7); // TAG_BATCH
        buf.put_u32(u32::MAX);
        buf.put_slice(&[0u8; 64]);
        assert!(RelayMsg::split_frames(buf.clone().freeze()).is_err());
        let mut out = Vec::new();
        assert!(RelayMsg::decode_many(buf.freeze(), &mut out).is_err());
        assert!(out.is_empty());
        // The largest count the remaining bytes could frame still parses
        // frame by frame (and fails on content, not on allocation).
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(2);
        buf.put_u32(0);
        buf.put_u32(0);
        assert_eq!(RelayMsg::split_frames(buf.freeze()).unwrap().len(), 2);
    }
}

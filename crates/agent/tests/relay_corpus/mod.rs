//! Random relay messages, shared by the hostile-input harness's message
//! and batch instantiations.

use crate::hostile::Rng;
use bytes::Bytes;
use freeflow_agent::proto::{RelayMsg, RelayPayload, WireEp};
use freeflow_types::OverlayIp;

fn ep(rng: &mut Rng) -> WireEp {
    WireEp::new(OverlayIp(rng.u64() as u32), rng.u64() as u32)
}

fn imm(rng: &mut Rng) -> Option<u32> {
    (rng.below(2) == 0).then(|| rng.u64() as u32)
}

fn payload(rng: &mut Rng) -> RelayPayload {
    // Up to 299 bytes, so lengths reach the prefix's second byte.
    match rng.below(2) {
        0 => RelayPayload::Arena {
            offset: rng.u64(),
            len: rng.u64(),
        },
        _ => RelayPayload::Inline(Bytes::from(rng.bytes(299))),
    }
}

/// A random message of any kind.
pub fn sample(rng: &mut Rng) -> RelayMsg {
    let (src, dst) = (ep(rng), ep(rng));
    match rng.below(6) {
        0 => RelayMsg::Send {
            src,
            dst,
            wr_id: rng.u64(),
            imm: imm(rng),
            payload: payload(rng),
        },
        1 => RelayMsg::Write {
            src,
            dst,
            wr_id: rng.u64(),
            addr: rng.u64(),
            rkey: rng.u64() as u32,
            imm: imm(rng),
            payload: payload(rng),
        },
        2 => RelayMsg::ReadReq {
            src,
            dst,
            req_id: rng.u64(),
            addr: rng.u64(),
            rkey: rng.u64() as u32,
            len: rng.u64(),
        },
        3 => RelayMsg::ReadResp {
            src,
            dst,
            req_id: rng.u64(),
            status: rng.u64() as u8,
            payload: payload(rng),
        },
        4 => RelayMsg::Ack {
            src,
            dst,
            wr_id: rng.u64(),
            byte_len: rng.u64(),
        },
        _ => RelayMsg::Nack {
            src,
            dst,
            wr_id: rng.u64(),
            status: rng.u64() as u8,
        },
    }
}

//! The hostile-input harness on one relay message. Every input it decodes
//! (each seeded encoding, its prefixes and every mutation) is also peeked:
//! the agent routes on the header, so peek must accept exactly what decode
//! accepts and read the same destination and payload.

#[path = "../../types/tests/hostile/mod.rs"]
mod hostile;
mod relay_corpus;

use bytes::Bytes;
use freeflow_agent::{PayloadDesc, RelayHeader, RelayMsg, RelayPayload};
use freeflow_types::Error;
use hostile::{Codec, Rng};

#[global_allocator]
static ALLOC: hostile::CountingAlloc = hostile::CountingAlloc;

struct Relay;

impl Codec for Relay {
    type Value = RelayMsg;
    type Error = Error;

    fn sample(rng: &mut Rng) -> RelayMsg {
        relay_corpus::sample(rng)
    }

    fn encode(msg: &RelayMsg) -> Vec<u8> {
        msg.encode().to_vec()
    }

    fn decode(bytes: &[u8]) -> Result<RelayMsg, Error> {
        let decoded = RelayMsg::decode(Bytes::copy_from_slice(bytes));
        match (&decoded, RelayHeader::peek(bytes)) {
            (Ok(msg), Ok(h)) => {
                assert_eq!((h.src, h.dst), (msg.src(), msg.dst()), "{msg:?}");
                assert_eq!(h.payload, payload_of(msg), "{msg:?}");
            }
            (Err(_), Err(_)) => {}
            (d, p) => panic!("decode {d:?} but peek {p:?} on {bytes:?}"),
        }
        decoded
    }
}

/// The descriptor of `msg`'s payload, as peek should read it.
fn payload_of(msg: &RelayMsg) -> Option<PayloadDesc> {
    let payload = match msg {
        RelayMsg::Send { payload, .. }
        | RelayMsg::Write { payload, .. }
        | RelayMsg::ReadResp { payload, .. } => payload,
        _ => return None,
    };
    Some(match *payload {
        RelayPayload::Inline(ref b) => PayloadDesc::Inline(b.len()),
        RelayPayload::Arena { offset, len } => PayloadDesc::Arena { offset, len },
    })
}

#[test]
fn hostile_relay_message() {
    hostile::check::<Relay>(hostile::QUICK);
}

#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored hostile"]
fn hostile_relay_message_long() {
    hostile::check::<Relay>(hostile::LONG);
}

//! The hostile-input harness on one relay message.

#[path = "../../types/tests/hostile/mod.rs"]
mod hostile;
mod relay_corpus;

use bytes::Bytes;
use freeflow_agent::RelayMsg;
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
        RelayMsg::decode(Bytes::copy_from_slice(bytes))
    }
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

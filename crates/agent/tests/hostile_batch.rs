//! The hostile-input harness on a coalesced relay batch.

#[path = "../../types/tests/hostile/mod.rs"]
mod hostile;
mod relay_corpus;

use bytes::{Bytes, BytesMut};
use freeflow_agent::RelayMsg;
use freeflow_types::Error;
use hostile::{Codec, Rng};

#[global_allocator]
static ALLOC: hostile::CountingAlloc = hostile::CountingAlloc;

struct Batch;

impl Codec for Batch {
    type Value = Vec<RelayMsg>;
    type Error = Error;

    fn sample(rng: &mut Rng) -> Vec<RelayMsg> {
        (0..=rng.below(8))
            .map(|_| relay_corpus::sample(rng))
            .collect()
    }

    fn encode(msgs: &Vec<RelayMsg>) -> Vec<u8> {
        let mut buf = BytesMut::new();
        RelayMsg::encode_coalesced(msgs, &mut buf);
        buf.to_vec()
    }

    fn decode(bytes: &[u8]) -> Result<Vec<RelayMsg>, Error> {
        let mut out = Vec::new();
        let decoded = RelayMsg::decode_many(Bytes::copy_from_slice(bytes), &mut out);
        match &decoded {
            Ok(n) => assert_eq!(*n, out.len()),
            Err(_) => assert!(out.is_empty(), "a refused batch delivered {out:?}"),
        }
        decoded.map(|_| out)
    }
}

#[test]
fn hostile_relay_batch() {
    hostile::check::<Batch>(hostile::QUICK);
}

#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored hostile"]
fn hostile_relay_batch_long() {
    hostile::check::<Batch>(hostile::LONG);
}

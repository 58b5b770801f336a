//! The hostile-input harness on a coalesced relay batch, and the agent's
//! heap while it coalesces frames a container wrote.

#[path = "../../types/tests/hostile/mod.rs"]
mod hostile;
mod relay_corpus;

use bytes::{Bytes, BytesMut};
use freeflow_agent::proto::status;
use freeflow_agent::{connect_agents, Agent, RelayMsg, RelayPayload, WireEp};
use freeflow_shmem::ShmMessage;
use freeflow_types::{Error, HostId, OverlayIp, TransportKind};
use hostile::{Codec, Rng};
use std::time::Duration;

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

#[test]
fn frames_naming_one_block_cannot_size_a_wire_message_past_the_arena() {
    // A container writes the descriptors its agent forwards. Every frame of
    // a coalesced wire message naming nearly the whole arena must cost the
    // agent at most one arena of buffer — not one per frame — and each
    // frame a nack, with no block freed.
    let ip = |last| OverlayIp::from_octets(10, 0, 0, last);
    let a0 = Agent::new(HostId::new(0), 1 << 20);
    let a1 = Agent::new(HostId::new(1), 1 << 20);
    let (w0, w1) = connect_agents(&a0, &a1, TransportKind::Rdma);
    let src = a0.attach_container(ip(1)).unwrap();
    let _dst = a1.attach_container(ip(2)).unwrap();
    a0.install_route(ip(2), w0).unwrap();
    a1.install_route(ip(1), w1).unwrap();
    let arena = &src.arena;
    let _held = arena.alloc(4096).unwrap();
    let budget = arena.size() as usize + (64 << 10);
    // The wire's batch limit doubles per full poll, to 64 frames by the 6th.
    for round in 0..7 {
        for wr_id in 0..64 {
            let frame = RelayMsg::Send {
                src: WireEp::new(ip(1), 1),
                dst: WireEp::new(ip(2), 1),
                wr_id,
                imm: None,
                payload: RelayPayload::Arena {
                    offset: 0,
                    len: arena.size() - 64,
                },
            };
            src.channel.tx.send(&frame.encode()).unwrap();
        }
        let (_, peak) = hostile::peak_alloc(|| a0.poll());
        assert!(
            peak <= budget,
            "round {round}: forwarding peaked at {peak} heap bytes"
        );
        a1.poll();
        a0.poll();
        for wr_id in 0..64 {
            match src.channel.rx.recv_timeout(Duration::from_secs(5)) {
                Ok(Some(ShmMessage::Inline(raw))) => match RelayMsg::decode(raw).unwrap() {
                    RelayMsg::Nack {
                        wr_id: id, status, ..
                    } => assert_eq!((id, status), (wr_id, status::REMOTE_ACCESS)),
                    other => panic!("expected a nack, got {other:?}"),
                },
                other => panic!("round {round}: no nack for {wr_id}: {other:?}"),
            }
        }
        assert_eq!(arena.allocated(), 4096, "round {round}: no block freed");
    }
    assert_eq!(a0.wire_batch_limit(w0), Some(64));
}

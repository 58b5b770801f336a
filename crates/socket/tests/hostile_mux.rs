//! The hostile-input harness on a socket-mux frame.

#[path = "../../types/tests/hostile/mod.rs"]
mod hostile;

use freeflow_socket::Frame;
use freeflow_types::wire::{Reader, Writer};
use freeflow_types::Error;
use hostile::{Codec, Rng};

#[global_allocator]
static ALLOC: hostile::CountingAlloc = hostile::CountingAlloc;

/// A frame's extent is not one of its fields: the receive path learns it
/// from the completion's byte count, and decodes the header only, leaving a
/// data frame's payload in its slot. So the codec under test is what that
/// path sees — the count, then the slot's bytes — decoded by the receive
/// path's decoder, with the payload taken from behind the header the way a
/// reader copies it out; a torn frame is one whose bytes fall short of its
/// count.
struct Mux;

impl Codec for Mux {
    type Value = (Frame, Vec<u8>);
    type Error = Error;

    fn sample(rng: &mut Rng) -> (Frame, Vec<u8>) {
        let stream = rng.u64() as u32;
        match rng.below(4) {
            0 => {
                let payload = rng.bytes(256);
                let len = payload.len();
                (Frame::Data { stream, len }, payload)
            }
            1 => {
                let n = rng.u64() as u32;
                (Frame::Credit { stream, n }, Vec::new())
            }
            2 => (Frame::Fin { stream }, Vec::new()),
            _ => (Frame::Ready, Vec::new()),
        }
    }

    fn encode((frame, payload): &(Frame, Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        out.slice(&[frame.encode(), payload.clone()].concat());
        out
    }

    fn decode(bytes: &[u8]) -> Result<(Frame, Vec<u8>), Error> {
        let mut r = Reader::new(bytes);
        let slot = r.slice()?;
        r.finish()?;
        let frame = Frame::decode(slot.len(), |head| head.copy_from_slice(&slot[..head.len()]))?;
        let payload = match frame {
            Frame::Data { len, .. } => slot[slot.len() - len..].to_vec(),
            _ => Vec::new(),
        };
        Ok((frame, payload))
    }
}

#[test]
fn hostile_mux_frame() {
    hostile::check::<Mux>(hostile::QUICK);
}

#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored hostile"]
fn hostile_mux_frame_long() {
    hostile::check::<Mux>(hostile::LONG);
}

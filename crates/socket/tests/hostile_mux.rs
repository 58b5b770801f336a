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
/// from the completion's byte count. So the codec under test is what that
/// path sees — the count, then the slot's bytes — and a torn frame is one
/// whose bytes fall short of its count.
struct Mux;

impl Codec for Mux {
    type Value = Frame;
    type Error = Error;

    fn sample(rng: &mut Rng) -> Frame {
        let stream = rng.u64() as u32;
        match rng.below(4) {
            0 => Frame::Data {
                stream,
                payload: rng.bytes(256),
            },
            1 => Frame::Credit {
                stream,
                n: rng.u64() as u32,
            },
            2 => Frame::Fin { stream },
            _ => Frame::Ready,
        }
    }

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        out.slice(&frame.encode());
        out
    }

    fn decode(bytes: &[u8]) -> Result<Frame, Error> {
        let mut r = Reader::new(bytes);
        let slot = r.slice()?;
        r.finish()?;
        Frame::decode(slot.len(), |at, buf| {
            buf.copy_from_slice(&slot[at..at + buf.len()]);
            Ok(())
        })
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

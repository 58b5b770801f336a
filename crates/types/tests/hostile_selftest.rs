//! The hostile-input harness must catch what it exists to catch: each
//! planted decoder bug below fails it, and the correct decoder passes.

mod hostile;

use freeflow_types::wire::{Reader, WireError, Writer};
use hostile::{Codec, Rng};

#[global_allocator]
static ALLOC: hostile::CountingAlloc = hostile::CountingAlloc;

/// A counted run of `u64`s: `[u32 count][count × u64]`.
trait Run {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError>;
}

impl<T: Run> Codec for T {
    type Value = Vec<u64>;
    type Error = WireError;

    fn sample(rng: &mut Rng) -> Vec<u64> {
        (0..rng.below(8)).map(|_| rng.u64()).collect()
    }

    fn encode(value: &Vec<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        out.count(value.len());
        for v in value {
            out.u64(*v);
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Vec<u64>, WireError> {
        T::decode(&mut Reader::new(bytes))
    }
}

fn run_of(r: &mut Reader<'_>, n: usize, mut run: Vec<u64>) -> Result<Vec<u64>, WireError> {
    for _ in 0..n {
        run.push(r.u64()?);
    }
    Ok(run)
}

struct Correct;

impl Run for Correct {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
        let n = r.count(8)?;
        let run = run_of(r, n, Vec::with_capacity(n))?;
        r.finish()?;
        Ok(run)
    }
}

/// Sizes its `Vec` from the count before checking it against the input:
/// a spliced `u32::MAX` asks for 32 GiB.
struct UncappedCount;

impl Run for UncappedCount {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
        let n = r.u32()? as usize;
        let run = run_of(r, n, Vec::with_capacity(n))?;
        r.finish()?;
        Ok(run)
    }
}

/// Never checks that the input ended.
struct AcceptsTrailing;

impl Run for AcceptsTrailing {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
        let n = r.count(8)?;
        run_of(r, n, Vec::with_capacity(n))
    }
}

/// The harness's panic message for `C`, which must fail it.
fn failure<C: Codec>() -> String {
    let err = std::panic::catch_unwind(|| hostile::check::<C>(hostile::QUICK))
        .expect_err("the planted bug passed the harness");
    err.downcast::<String>().map(|s| *s).unwrap_or_default()
}

#[test]
fn hostile_harness_passes_a_correct_decoder() {
    hostile::check::<Correct>(hostile::QUICK);
}

#[test]
fn hostile_harness_catches_an_uncapped_count() {
    let msg = failure::<UncappedCount>();
    assert!(msg.contains("budget"), "failed for another reason: {msg}");
}

#[test]
fn hostile_harness_catches_trailing_bytes() {
    let msg = failure::<AcceptsTrailing>();
    assert!(
        msg.contains("non-canonical"),
        "failed for another reason: {msg}"
    );
}

//! The hostile-input harness every wire codec runs: written once, and
//! instantiated per codec in a test binary of its own, so the counting
//! allocator that binary installs wraps nothing else.
//!
//! For a [`Codec`], [`check`] runs four parts over a corpus drawn from a
//! fixed xorshift seed, so every failure reproduces:
//!
//! 1. every sampled value round-trips;
//! 2. every strict prefix of an encoding is refused;
//! 3. mutated encodings — bit flips, truncations, appended junk, and `u32`
//!    length/count fields spliced with 0, 1, len±1, the remaining length
//!    and `u32::MAX` — never panic the decoder, and any the decoder
//!    accepts re-encode to exactly the bytes it was given;
//! 4. throughout, no decode of `n` bytes holds more than
//!    `ALLOC_PER_BYTE * n + ALLOC_FIXED` heap bytes at its peak.
//!
//! An instantiating binary installs the allocator with
//! `#[global_allocator] static ALLOC: hostile::CountingAlloc = hostile::CountingAlloc;`.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

/// Peak heap bytes a decode may hold per input byte ...
pub const ALLOC_PER_BYTE: usize = 8;
/// ... and on top of that, whatever the input's size.
pub const ALLOC_FIXED: usize = 1024;

/// Mutated inputs per codec in a tier-1 run (well under 2 s in debug).
pub const QUICK: usize = 20_000;
/// Mutated inputs per codec in the `#[ignore]`d long run, which CI runs
/// in release: `cargo test --release -- --ignored hostile`.
pub const LONG: usize = 10_000_000;

/// Seed of every run.
const SEED: u64 = 0x5EED_F1EE_F10E;

/// Values sampled per run: each is round-tripped, cut at every prefix and
/// used as a mutation base.
const CORPUS: usize = 64;

/// One wire format under test.
pub trait Codec {
    /// What the format carries.
    type Value: Debug + PartialEq;
    /// What a refused input decodes to.
    type Error: Debug;
    /// A random valid value.
    fn sample(rng: &mut Rng) -> Self::Value;
    /// The value's encoding.
    fn encode(value: &Self::Value) -> Vec<u8>;
    /// Decode untrusted bytes. A batch codec also asserts here that a
    /// refused batch delivered nothing.
    fn decode(bytes: &[u8]) -> Result<Self::Value, Self::Error>;
}

/// Run all four parts, with `mutations` mutated inputs.
pub fn check<C: Codec>(mutations: usize) {
    let (_, peak) = peak_alloc(|| Vec::<u8>::with_capacity(64));
    assert!(peak >= 64, "the binary must install hostile::CountingAlloc");
    let mut rng = Rng::new(SEED);
    let corpus: Vec<Vec<u8>> = (0..CORPUS)
        .map(|_| {
            let value = C::sample(&mut rng);
            let bytes = C::encode(&value);
            assert_eq!(
                decode::<C>(&bytes).expect("a valid encoding decodes"),
                value
            );
            for cut in 0..bytes.len() {
                assert!(
                    decode::<C>(&bytes[..cut]).is_err(),
                    "a {cut}-byte prefix of a {}-byte encoding of {value:?} decoded",
                    bytes.len()
                );
            }
            bytes
        })
        .collect();
    for i in 0..mutations {
        let mut bytes = corpus[rng.below(CORPUS)].clone();
        for _ in 0..=rng.below(3) {
            mutate(&mut rng, &mut bytes);
        }
        if let Ok(value) = decode::<C>(&bytes) {
            assert_eq!(
                C::encode(&value),
                bytes,
                "mutation {i}: accepted a non-canonical encoding of {value:?}"
            );
        }
    }
}

/// Decode inside the allocation budget.
fn decode<C: Codec>(bytes: &[u8]) -> Result<C::Value, C::Error> {
    let (out, peak) = peak_alloc(|| C::decode(bytes));
    let budget = ALLOC_PER_BYTE * bytes.len() + ALLOC_FIXED;
    assert!(
        peak <= budget,
        "decoding {} bytes peaked at {peak} heap bytes, over the {budget}-byte budget",
        bytes.len()
    );
    out
}

fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
        1 => bytes.truncate(rng.below(bytes.len() + 1)),
        2 => {
            let junk = rng.bytes(16);
            bytes.extend_from_slice(&junk);
        }
        _ => splice(rng, bytes),
    }
}

/// Overwrite a `u32` that could be a length or count — its value fits in
/// the bytes after it — with a boundary value.
fn splice(rng: &mut Rng, bytes: &mut [u8]) {
    let Some(last) = bytes.len().checked_sub(4) else {
        return;
    };
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let fields: Vec<usize> = (0..=last)
        .filter(|&at| u32_at(at) as usize <= last - at)
        .collect();
    let at = match fields.len() {
        0 => rng.below(last + 1),
        n => fields[rng.below(n)],
    };
    let len = u32_at(at);
    let value = [
        0,
        1,
        len.wrapping_sub(1),
        len.wrapping_add(1),
        (last - at) as u32,
        u32::MAX,
    ][rng.below(6)];
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// xorshift64*: the harness's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    /// The next 64 random bits.
    pub fn u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    /// Up to `max` random bytes.
    pub fn bytes(&mut self, max: usize) -> Vec<u8> {
        let n = self.below(max + 1);
        (0..n).map(|_| self.u64() as u8).collect()
    }
}

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Run `f`, returning its result and the peak heap bytes this thread held
/// live while it ran.
pub fn peak_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get).max(0) as usize)
}

fn track(delta: isize) {
    // `try_with`: a thread's counters are gone while it tears down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Requests this large are served from address space the kernel reserves
/// but does not commit, so a decoder that sizes a `Vec` from a corrupt
/// count — hundreds of GiB — still gets its (untouched) memory and fails
/// the budget assertion instead of aborting the process.
const HUGE: usize = 1 << 30;

/// `mmap` and `munmap` with Linux's flag values.
mod os {
    extern "C" {
        pub fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
            -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    /// `PROT_READ | PROT_WRITE`.
    pub const PROT: i32 = 0x1 | 0x2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE`.
    pub const FLAGS: i32 = 0x02 | 0x20 | 0x4000;
    /// Alignment of every mapping.
    pub const PAGE: usize = 4096;
}

/// A fresh zero-filled mapping for a [`HUGE`] request, or null.
unsafe fn reserve(layout: Layout) -> *mut u8 {
    if layout.align() > os::PAGE {
        return std::ptr::null_mut();
    }
    let ptr = os::mmap(
        std::ptr::null_mut(),
        layout.size(),
        os::PROT,
        os::FLAGS,
        -1,
        0,
    );
    if ptr as isize == -1 {
        std::ptr::null_mut()
    } else {
        ptr
    }
}

/// The system allocator, counting per thread the bytes each
/// [`peak_alloc`] window holds. It serves every request it is given —
/// [`HUGE`] ones from uncommitted address space — so a decode over budget
/// fails an assertion, not the process.
pub struct CountingAlloc;

// SAFETY: requests under `HUGE` go to `System` with their arguments
// unchanged, so `System`'s guarantees are the caller's. `HUGE` ones get a
// private anonymous mapping of exactly `layout.size()` bytes: page-aligned
// (`reserve` refuses larger alignments), zero-filled, and unmapped only by
// `dealloc`, which the `GlobalAlloc` contract calls with that same layout.
// `realloc` across the threshold moves the bytes by hand. The bookkeeping
// only touches const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = if layout.size() >= HUGE {
            reserve(layout)
        } else {
            System.alloc(layout)
        };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = if layout.size() >= HUGE {
            reserve(layout)
        } else {
            System.alloc_zeroed(layout)
        };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() >= HUGE {
            os::munmap(ptr, layout.size());
        } else {
            System.dealloc(ptr, layout);
        }
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size().max(new_size) < HUGE {
            let new = System.realloc(ptr, layout, new_size);
            if !new.is_null() {
                track(new_size as isize - layout.size() as isize);
            }
            return new;
        }
        let new = self.alloc(Layout::from_size_align_unchecked(new_size, layout.align()));
        if !new.is_null() {
            std::ptr::copy_nonoverlapping(ptr, new, layout.size().min(new_size));
            self.dealloc(ptr, layout);
        }
        new
    }
}

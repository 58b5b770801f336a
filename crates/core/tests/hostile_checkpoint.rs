//! The hostile-input harness on a migration checkpoint.
//!
//! The codec under test is the checkpoint *body*, resealed before every
//! decode: a mutation then reaches the field parser instead of stopping at
//! the checksum, whose own detection `freeflow_types::wire` tests.

#[path = "../../types/tests/hostile/mod.rs"]
mod hostile;

use freeflow::migrate::{ContainerImage, MigrateError, MigrationCheckpoint, MrRecord, QpRecord};
use freeflow_types::{wire, ContainerId, HostId, OverlayIp, TenantId};
use hostile::{Codec, Rng};

#[global_allocator]
static ALLOC: hostile::CountingAlloc = hostile::CountingAlloc;

/// Binding-phase names the checkpoint interns (`BindingPhase::name()`).
const PHASES: [&str; 4] = ["unbound", "bound", "rebinding", "error"];

struct Checkpoint;

impl Codec for Checkpoint {
    type Value = MigrationCheckpoint;
    type Error = MigrateError;

    fn sample(rng: &mut Rng) -> MigrationCheckpoint {
        let qps = (0..rng.below(4))
            .map(|_| QpRecord {
                qpn: rng.u64() as u32,
                peer_octets: (rng.u64() as u32).to_le_bytes(),
                peer_qpn: rng.u64() as u32,
                phase: PHASES[rng.below(PHASES.len())],
                epoch: rng.u64(),
                generation: rng.u64(),
                transport_rank: rng.u64() as u8,
                parked_sends: rng.u64() as u32,
                posted_recvs: rng.u64() as u32,
                inbound_pending: rng.u64() as u32,
                in_flight: rng.u64() as u32,
                next_op_id: rng.u64(),
                accepted: rng.u64(),
            })
            .collect();
        let mrs = (0..rng.below(3))
            .map(|_| MrRecord {
                lkey: rng.u64() as u32,
                rkey: rng.u64() as u32,
                base_va: rng.u64(),
                len: rng.u64(),
                access_bits: rng.below(8) as u8,
                arena_backed: rng.below(2) == 0,
                bytes: rng.bytes(255),
            })
            .collect();
        MigrationCheckpoint {
            image: ContainerImage {
                id: ContainerId::new(rng.u64()),
                tenant: TenantId::new(rng.u64()),
                ip: OverlayIp(rng.u64() as u32),
            },
            from_host: HostId::new(rng.u64()),
            to_host: HostId::new(rng.u64()),
            qps,
            mrs,
        }
    }

    fn encode(cp: &MigrationCheckpoint) -> Vec<u8> {
        let mut body = cp.encode();
        body.truncate(body.len() - 8);
        body
    }

    fn decode(body: &[u8]) -> Result<MigrationCheckpoint, MigrateError> {
        let mut sealed = body.to_vec();
        wire::seal(&mut sealed);
        MigrationCheckpoint::decode(&sealed)
    }
}

#[test]
fn hostile_checkpoint() {
    hostile::check::<Checkpoint>(hostile::QUICK);
}

#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored hostile"]
fn hostile_checkpoint_long() {
    hostile::check::<Checkpoint>(hostile::LONG);
}

//! The Verbs half of the 2×2: one connected `FfQp` pair, same-host
//! (`FfPath::Local`, shared memory) or cross-host (`FfPath::Remote`, agent
//! relay), driven through the five phases.
//!
//! One thread plays both ends, as `freeflow_bench::batch` does for
//! `relay/send_1024B`: one-sided operations need no peer, and the
//! two-sided `rate` phase posts the receives itself before each chain, so
//! no flow-control side channel exists outside the stack.

use crate::oracle::{self, Ledger, Rng, OP_DEADLINE};
use crate::plan::{Phase, Plan};
use crate::stats::{PhaseStats, Slicer};
use crate::trace::{SpanName, Tracer};
use crate::world::{require_path, World};
use freeflow::qp::FfPath;
use freeflow_bench::realpath::{bench_pair, BenchPair};
use freeflow_verbs::wr::{RecvWr, SendWr};
use freeflow_verbs::{CompletionQueue, MemoryRegion, WorkCompletion};
use std::sync::Arc;

/// Chain length and window of the `rate` phase.
pub const RATE_WINDOW: usize = 32;
/// Message size of the `rate` phase.
pub const RATE_MSG: usize = 1024;
/// Transfer size of `bulk` and `pull`.
pub const BULK_MSG: usize = 64 * 1024;
/// Transfers in flight in `bulk` and `pull`.
pub const BULK_WINDOW: usize = 8;
/// Payload of the `lat` phase.
pub const LAT_MSG: usize = 64;
/// Queue pairs connected per measured second: 1000 in a 20 s run. Kept
/// small because the library never forgets a queue pair — its pump walks
/// an entry for every one ever created on every tick — so more of them
/// would slow the relay phases of the later rounds.
const CONN_PER_SECOND: f64 = 50.0;

// Layout of both 1 MiB regions `bench_pair` registers.
const BULK_OFF: u64 = 0;
const RATE_OFF: u64 = (BULK_WINDOW * BULK_MSG) as u64;
const LAT_OFF: u64 = RATE_OFF + (RATE_WINDOW * RATE_MSG) as u64;

/// A connected pair with seeded payload patterns.
pub struct VerbsWorld {
    pair: BenchPair,
    same_host: bool,
    /// What the sender's bulk region holds (stamps aside).
    pattern_a: Vec<u8>,
    /// What the receiver's bulk region holds for `pull`.
    pattern_b: Vec<u8>,
    scratch: Vec<u8>,
    seq: u64,
}

fn ok(wc: Option<WorkCompletion>, what: &str) -> Result<WorkCompletion, String> {
    let wc = wc.ok_or_else(|| format!("{what}: no completion within {OP_DEADLINE:?}"))?;
    if !wc.status.is_ok() {
        return Err(format!("{what}: completion status {:?}", wc.status));
    }
    Ok(wc)
}

/// Reap `n` successful completions into `out`: non-blocking drains, with
/// a deadline-bounded wait whenever the queue is empty.
fn reap(
    cq: &CompletionQueue,
    n: usize,
    out: &mut Vec<WorkCompletion>,
    what: &str,
) -> Result<(), String> {
    out.clear();
    while out.len() < n {
        if cq.poll_many(n - out.len(), out) == 0 {
            out.push(ok(cq.wait_one(OP_DEADLINE), what)?);
        }
    }
    match out.iter().find(|wc| !wc.status.is_ok()) {
        Some(bad) => Err(format!("{what}: completion status {:?}", bad.status)),
        None => Ok(()),
    }
}

impl VerbsWorld {
    /// Cold build: cluster, hosts, containers, MRs, a connected QP pair,
    /// seeded buffers, and one verified WRITE.
    pub fn build(same_host: bool, seed: u64) -> Result<Self, String> {
        let pair = bench_pair(same_host);
        require_path(pair.qp_a.path(), same_host)?;
        require_path(pair.qp_b.path(), same_host)?;
        let mut rng = Rng::new(seed);
        let bulk_len = BULK_WINDOW * BULK_MSG;
        let pattern_a = rng.bytes(bulk_len + RATE_WINDOW * RATE_MSG + LAT_MSG);
        let pattern_b = rng.bytes(bulk_len);
        pair.mr_a
            .write(BULK_OFF, &pattern_a)
            .map_err(|e| e.to_string())?;
        let mut world = Self {
            pair,
            same_host,
            pattern_a,
            pattern_b,
            scratch: vec![0; BULK_MSG],
            seq: 0,
        };
        world.write64(&mut crate::trace::NoTrace)?;
        Ok(world)
    }

    fn mr_err(e: freeflow_verbs::VerbsError) -> String {
        format!("memory region access: {e}")
    }

    /// Stamp `seq` at `off` of `mr`.
    fn stamp(mr: &MemoryRegion, off: u64, seq: u64) -> Result<(), String> {
        mr.write(off, &seq.to_le_bytes()).map_err(Self::mr_err)
    }

    /// Check that `[off, off + len)` of `mr` carries `seq`, and on
    /// full-compare operations that the rest equals `pattern`.
    fn verify(
        mr: &MemoryRegion,
        off: u64,
        len: usize,
        seq: u64,
        pattern: &[u8],
        scratch: &mut [u8],
    ) -> Result<(), String> {
        let n = if oracle::full_compare(seq) { len } else { 8 };
        mr.read(off, &mut scratch[..n]).map_err(Self::mr_err)?;
        oracle::check(&scratch[..n], seq, pattern)
    }

    /// One 64 B WRITE at depth 1: post, wait for the completion, verify
    /// the target. Returns the post-to-completion time in nanoseconds.
    /// Stamping and verification stay outside the timed window.
    fn write64<T: Tracer>(&mut self, tr: &mut T) -> Result<u64, String> {
        let p = &self.pair;
        self.seq += 1;
        let seq = self.seq;
        Self::stamp(&p.mr_a, LAT_OFF, seq)?;
        let wr = SendWr::write(
            seq,
            p.mr_a.sge(LAT_OFF, LAT_MSG as u32),
            p.mr_b.addr() + LAT_OFF,
            p.mr_b.rkey(),
        );
        let t0 = std::time::Instant::now();
        let op = tr.begin(SpanName::AppOp);
        let s = tr.begin(SpanName::CorePostSend);
        let posted = p.qp_a.post_send(wr);
        tr.end(s);
        let s = tr.begin(SpanName::VerbsCqWait);
        let wc = p.cq_a.wait_one(OP_DEADLINE);
        tr.end(s);
        tr.end(op);
        let lat = t0.elapsed().as_nanos() as u64;
        posted.map_err(|e| format!("post_send(WRITE 64 B): {e}"))?;
        let wc = ok(wc, "WRITE 64 B")?;
        if wc.wr_id != seq {
            return Err(format!("WRITE 64 B: completion for {} not {seq}", wc.wr_id));
        }
        let pattern = &self.pattern_a[LAT_OFF as usize..];
        Self::verify(&p.mr_b, LAT_OFF, LAT_MSG, seq, pattern, &mut self.scratch)?;
        Ok(lat)
    }

    fn lat<T: Tracer>(
        &mut self,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        while sl.running() {
            ledger.tick(0);
            let lat = self.write64(tr)?;
            let now = sl.now_ns();
            sl.record_lat(lat, now);
        }
        Ok(sl.finish())
    }

    /// 1 KiB two-sided SEND/RECV in chains of [`RATE_WINDOW`]: receives
    /// posted, one `post_send_batch`, both CQs drained, every landed
    /// message verified.
    fn rate<T: Tracer>(
        &mut self,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        let p = &self.pair;
        let slot = |i: usize| RATE_OFF + (i * RATE_MSG) as u64;
        let mut wcs = Vec::with_capacity(RATE_WINDOW);
        while sl.running() {
            ledger.tick(0);
            let first = self.seq + 1;
            for i in 0..RATE_WINDOW {
                Self::stamp(&p.mr_a, slot(i), first + i as u64)?;
            }
            let sends: Vec<SendWr> = (0..RATE_WINDOW)
                .map(|i| SendWr::send(first + i as u64, p.mr_a.sge(slot(i), RATE_MSG as u32)))
                .collect();
            let op = tr.begin(SpanName::AppOp);
            let s = tr.begin(SpanName::CorePostRecv);
            for i in 0..RATE_WINDOW {
                p.qp_b
                    .post_recv(RecvWr::new(i as u64, p.mr_b.sge(slot(i), RATE_MSG as u32)))
                    .map_err(|e| format!("post_recv: {e}"))?;
            }
            tr.end(s);
            let s = tr.begin(SpanName::CorePostSend);
            let posted = p.qp_a.post_send_batch(sends);
            tr.end(s);
            posted.map_err(|e| format!("post_send_batch(32 x SEND 1 KiB): {e}"))?;
            let s = tr.begin(SpanName::VerbsCqWait);
            let sent = reap(&p.cq_a, RATE_WINDOW, &mut wcs, "SEND 1 KiB");
            let landed = sent.and_then(|()| reap(&p.cq_b, RATE_WINDOW, &mut wcs, "RECV 1 KiB"));
            tr.end(s);
            tr.end(op);
            landed?;
            for (i, wc) in wcs.iter().enumerate() {
                if wc.wr_id != i as u64 || wc.byte_len != RATE_MSG as u64 {
                    return Err(format!("RECV 1 KiB: slot {i} completed as {wc:?}"));
                }
                let pattern = &self.pattern_a[slot(i) as usize..];
                let seq = first + i as u64;
                Self::verify(&p.mr_b, slot(i), RATE_MSG, seq, pattern, &mut self.scratch)?;
            }
            self.seq += RATE_WINDOW as u64;
            let now = sl.now_ns();
            sl.record_ops(RATE_WINDOW as u64, now);
        }
        Ok(sl.finish())
    }

    /// 64 KiB one-sided transfers, [`BULK_WINDOW`] in flight. `read`
    /// selects READ (payload rides the reply into the local region) over
    /// WRITE. The side that owns the source stamps a sequence number into
    /// it before every post; the destination is checked at completion.
    fn one_sided<T: Tracer>(
        &mut self,
        read: bool,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        let p = &self.pair;
        let what = if read { "READ 64 KiB" } else { "WRITE 64 KiB" };
        let slot = |n: u64| BULK_OFF + (n % BULK_WINDOW as u64) * BULK_MSG as u64;
        let (src, dst, pattern): (&Arc<MemoryRegion>, &Arc<MemoryRegion>, &[u8]) = if read {
            p.mr_b
                .write(BULK_OFF, &self.pattern_b)
                .map_err(Self::mr_err)?;
            (&p.mr_b, &p.mr_a, &self.pattern_b)
        } else {
            p.mr_a
                .write(BULK_OFF, &self.pattern_a[..BULK_WINDOW * BULK_MSG])
                .map_err(Self::mr_err)?;
            (&p.mr_a, &p.mr_b, &self.pattern_a)
        };
        let (mut posted, mut done) = (self.seq, self.seq);
        loop {
            // Past the deadline nothing new is posted; the window drains.
            let open = sl.running();
            if !open && posted == done {
                break;
            }
            ledger.tick(0);
            let op = tr.begin(SpanName::AppOp);
            while open && posted - done < BULK_WINDOW as u64 {
                posted += 1;
                let off = slot(posted);
                Self::stamp(src, off, posted)?;
                let sge = p.mr_a.sge(off, BULK_MSG as u32);
                let wr = if read {
                    SendWr::read(posted, sge, p.mr_b.addr() + off, p.mr_b.rkey())
                } else {
                    SendWr::write(posted, sge, p.mr_b.addr() + off, p.mr_b.rkey())
                };
                let s = tr.begin(SpanName::CorePostSend);
                let res = p.qp_a.post_send(wr);
                tr.end(s);
                res.map_err(|e| format!("post_send({what}): {e}"))?;
            }
            let s = tr.begin(SpanName::VerbsCqWait);
            let wc = p.cq_a.wait_one(OP_DEADLINE);
            tr.end(s);
            tr.end(op);
            let wc = ok(wc, what)?;
            done += 1;
            if wc.wr_id != done {
                return Err(format!("{what}: completion for {} not {done}", wc.wr_id));
            }
            let off = slot(done);
            let pattern = &pattern[off as usize..];
            Self::verify(dst, off, BULK_MSG, done, pattern, &mut self.scratch)?;
            let now = sl.now_ns();
            sl.record_ops(1, now);
        }
        self.seq = done;
        Ok(sl.finish())
    }

    /// One more CQ + QP on each side, connected both ways, then dropped.
    fn conn<T: Tracer>(
        &mut self,
        mut sl: Slicer,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        let p = &self.pair;
        while sl.running() {
            ledger.tick(0);
            let t0 = std::time::Instant::now();
            let op = tr.begin(SpanName::AppOp);
            let s = tr.begin(SpanName::CoreCreateQp);
            let cq_a = p.a.create_cq(16);
            let cq_b = p.b.create_cq(16);
            let qp_a = p.a.create_qp(&cq_a, &cq_a, 16, 16);
            let qp_b = p.b.create_qp(&cq_b, &cq_b, 16, 16);
            tr.end(s);
            let (qp_a, qp_b) = match (qp_a, qp_b) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return Err(format!("create_qp: {e}")),
            };
            let s = tr.begin(SpanName::CoreQpConnect);
            let res = qp_a
                .connect(qp_b.endpoint())
                .and_then(|()| qp_b.connect(qp_a.endpoint()));
            tr.end(s);
            tr.end(op);
            let lat = t0.elapsed().as_nanos() as u64;
            res.map_err(|e| format!("FfQp::connect: {e}"))?;
            require_path(qp_a.path(), self.same_host)?;
            drop((qp_a, qp_b, cq_a, cq_b));
            let now = sl.now_ns();
            sl.record_lat(lat, now);
        }
        Ok(sl.finish())
    }
}

impl World for VerbsWorld {
    fn cluster(&self) -> &Arc<freeflow::FreeFlowCluster> {
        &self.pair.cluster
    }

    fn path(&self) -> FfPath {
        self.pair.qp_a.path()
    }

    fn run_phase<T: Tracer>(
        &mut self,
        phase: Phase,
        round: usize,
        plan: &Plan,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String> {
        let sl = match phase {
            Phase::Conn => plan.conn_slicer(round, CONN_PER_SECOND),
            timed => plan.slicer(timed, round),
        };
        let stats = match phase {
            Phase::Lat => self.lat(sl, ledger, tr),
            Phase::Rate => self.rate(sl, ledger, tr),
            Phase::Bulk => self.one_sided(false, sl, ledger, tr),
            Phase::Pull => self.one_sided(true, sl, ledger, tr),
            Phase::Conn => self.conn(sl, ledger, tr),
        }?;
        ledger.add_attempted(stats.all_ops);
        Ok(stats)
    }
}

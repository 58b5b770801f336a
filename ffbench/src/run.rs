//! One run of one workload: cold builds for `setup_s`, the five phases,
//! and the metrics computed from them — end-to-end with tracing off, or
//! per-layer from a traced run plus the standalone probes.

use crate::counters::{Delta, Scrape};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::Ledger;
use crate::plan::{Phase, Plan};
use crate::probes;
use crate::socket_wl::{self, SocketWorld};
use crate::stats::{self, PhaseStats};
use crate::trace::{MemTrace, NoTrace, SpanName, Tracer};
use crate::verbs_wl::{self, VerbsWorld};
use crate::world::{require_path, Workload, World};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Spans kept verbatim per traced run (totals cover every span).
const SPAN_CAPACITY: usize = 80_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which of the four.
    pub workload: Workload,
    /// Seeds every payload byte.
    pub seed: u64,
    /// Measured seconds over the five phases (halved in a traced run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) or end-to-end run.
    pub trace: bool,
    /// Cold builds whose best decile is `setup_s`: the first is the world the
    /// phases run on, the rest follow them (an end-to-end run only).
    pub setup_builds: usize,
    /// Time budget per probe.
    pub probe_budget: std::time::Duration,
    /// Where the traced run writes its span file.
    pub trace_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The per-slice (or per-build, per-round) values behind `value`, in
    /// its unit; empty where the number has no repeats.
    pub slices: Vec<f64>,
}

impl Metric {
    /// Interquartile range of `slices` over their median: how much the
    /// number moved within this run.
    pub fn spread(&self) -> f64 {
        stats::iqr_share(&self.slices)
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Seconds asked for.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations started, all phases.
    pub attempted: u64,
    /// Operations failed, timed out or carrying a wrong payload.
    pub failed: u64,
    /// The data plane the connection was bound to.
    pub path: &'static str,
    /// Every end-to-end metric, or every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Latency samples behind `lat_p50_us` (reported beside it).
    pub lat_samples: u64,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
    /// The span file, for a traced run.
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 if unreadable.
fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Payload bytes per operation of `phase`.
fn payload_bytes(workload: Workload, phase: Phase) -> f64 {
    let socket = workload.is_socket();
    (match phase {
        Phase::Lat | Phase::Conn => verbs_wl::LAT_MSG,
        Phase::Rate if socket => socket_wl::RATE_MSG,
        Phase::Rate => verbs_wl::RATE_MSG,
        Phase::Bulk | Phase::Pull => verbs_wl::BULK_MSG,
    }) as f64
}

/// Run `cfg.workload` once, accounting every operation in `ledger`. The
/// caller may watch the ledger with a [`crate::oracle::Watchdog`].
pub fn run(cfg: &Config, ledger: &Arc<Ledger>) -> Result<RunResult, String> {
    let same_host = cfg.workload.same_host();
    if cfg.workload.is_socket() {
        run_world(cfg, ledger, || {
            SocketWorld::build(same_host, cfg.seed, ledger)
        })
    } else {
        run_world(cfg, ledger, || VerbsWorld::build(same_host, cfg.seed))
    }
}

fn run_world<W: World>(
    cfg: &Config,
    ledger: &Arc<Ledger>,
    build: impl Fn() -> Result<W, String>,
) -> Result<RunResult, String> {
    let started = Instant::now();
    // The first cold build is the world the phases run on. The rest of the
    // builds behind `setup_s` come after the phases (see below), so that
    // the process's peak memory is one world's, not a pile-up of torn-down
    // ones whose threads had not all exited yet.
    let mut builds = Vec::with_capacity(cfg.setup_builds);
    let t0 = Instant::now();
    let mut world = build()?;
    builds.push(t0.elapsed().as_secs_f64());
    let path = world.path();
    require_path(path, cfg.workload.same_host())?;

    let plan = Plan::for_seconds(cfg.seconds);
    ledger.arm(true);
    let mut metrics = Vec::new();
    let mut trace_file = None;
    let lat_samples;
    if cfg.trace {
        let traced = run_traced(&mut world, &plan.scaled(0.5), ledger)?;
        ledger.arm(false);
        world.finish()?;
        lat_samples = traced.phases[Phase::Lat as usize].lat_count;
        trace_file = Some(traced.write_spans(cfg)?);
        let mut values = traced.metrics(cfg.workload);
        values.extend(probes::run_all(cfg.probe_budget)?);
        values.push(("app.wall_s", started.elapsed().as_secs_f64()));
        for def in &PER_LAYER {
            let value = values
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))?;
            metrics.push(Metric {
                name: def.name,
                value,
                unit: def.unit,
                slices: Vec::new(),
            });
        }
    } else {
        let mut phases = vec![PhaseStats::default(); Phase::ALL.len()];
        for round in 0..plan.rounds {
            for phase in Phase::ALL {
                let stats = world.run_phase(phase, round, &plan, ledger, &mut NoTrace)?;
                phases[phase as usize].absorb(stats);
            }
        }
        ledger.arm(false);
        let rss_mib = rss_peak_mib();
        world.finish()?;
        // More cold builds: one ms-scale sample would not repeat, the
        // undisturbed decile of many does (their median followed the
        // neighbours: 1.1 ms against 1.4 ms between two sets of ten runs).
        // Each world is torn down, untimed, before the next is built.
        while builds.len() < cfg.setup_builds {
            let t0 = Instant::now();
            let rebuilt = build()?;
            builds.push(t0.elapsed().as_secs_f64());
            rebuilt.finish()?;
        }
        lat_samples = phases[Phase::Lat as usize].lat_count;
        let of = |phase: Phase| &phases[phase as usize];
        let scaled = |v: &[f64], by: f64| v.iter().map(|x| x * by).collect::<Vec<f64>>();
        let gbit = |phase: Phase| payload_bytes(cfg.workload, phase) * 8.0 / 1e9;
        let rate = of(Phase::Rate);
        // (value, the per-slice values behind it), in END_TO_END order.
        let values = [
            (stats::undisturbed(&builds, true), builds),
            (
                of(Phase::Conn).lat_p50_ns() / 1e3,
                scaled(&of(Phase::Conn).slice_lat_medians, 1e-3),
            ),
            (
                of(Phase::Lat).lat_p50_ns() / 1e3,
                scaled(&of(Phase::Lat).slice_lat_medians, 1e-3),
            ),
            (rate.rate() / 1e3, scaled(&rate.slice_rates, 1e-3)),
            (
                of(Phase::Bulk).rate() * gbit(Phase::Bulk),
                scaled(&of(Phase::Bulk).slice_rates, gbit(Phase::Bulk)),
            ),
            (
                of(Phase::Pull).rate() * gbit(Phase::Pull),
                scaled(&of(Phase::Pull).slice_rates, gbit(Phase::Pull)),
            ),
            (rate.cpu_us_per_op(), rate.round_cpu_us_per_op.clone()),
            (rss_mib, Vec::new()),
        ];
        for (def, (value, slices)) in END_TO_END.iter().zip(values) {
            metrics.push(Metric {
                name: def.name,
                value,
                unit: def.unit,
                slices,
            });
        }
    }
    if let Some(why) = ledger.first_error() {
        return Err(why);
    }
    Ok(RunResult {
        workload: cfg.workload,
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        attempted: ledger.attempted(),
        failed: ledger.failed(),
        path: path.label(),
        metrics,
        lat_samples,
        wall_s: started.elapsed().as_secs_f64(),
        trace_file,
    })
}

/// What the traced run collected.
struct Traced {
    tracer: MemTrace,
    phases: Vec<PhaseStats>,
    deltas: Vec<Delta>,
    /// The whole run, first scrape to last.
    whole: Delta,
    last_scrape: Scrape,
    /// `rate` once more per round with tracing off, for the overhead figure.
    untraced_rate: PhaseStats,
}

fn run_traced<W: World>(world: &mut W, plan: &Plan, ledger: &Ledger) -> Result<Traced, String> {
    let mut tracer = MemTrace::with_capacity(SPAN_CAPACITY);
    let mut phases = vec![PhaseStats::default(); Phase::ALL.len()];
    let mut deltas = vec![Delta::default(); Phase::ALL.len()];
    let mut untraced_rate = PhaseStats::default();
    let first = Scrape::take(world.cluster());
    let mut last = first.clone();
    for round in 0..plan.rounds {
        for phase in Phase::ALL {
            if phase == Phase::Rate {
                untraced_rate.absorb(world.run_phase(phase, round, plan, ledger, &mut NoTrace)?);
                last = Scrape::take(world.cluster());
            }
            tracer.set_phase(phase as u8);
            phases[phase as usize].absorb(world.run_phase(
                phase,
                round,
                plan,
                ledger,
                &mut tracer,
            )?);
            let now = Scrape::take(world.cluster());
            deltas[phase as usize].add(&last, &now);
            last = now;
        }
    }
    let mut whole = Delta::default();
    whole.add(&first, &last);
    Ok(Traced {
        tracer,
        phases,
        deltas,
        whole,
        last_scrape: last,
        untraced_rate,
    })
}

impl Traced {
    fn write_spans(&self, cfg: &Config) -> Result<PathBuf, String> {
        let file = cfg
            .trace_dir
            .join(format!("trace-{}.jsonl", cfg.workload.name()));
        let io = |e: std::io::Error| format!("write {}: {e}", file.display());
        std::fs::create_dir_all(&cfg.trace_dir).map_err(io)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&file).map_err(io)?);
        self.tracer
            .write_jsonl(&mut out, &Phase::NAMES)
            .map_err(io)?;
        std::io::Write::flush(&mut out).map_err(io)?;
        Ok(file)
    }

    /// Every [`crate::metrics::Source::Trace`] metric except `app.wall_s`.
    fn metrics(&self, workload: Workload) -> Vec<(&'static str, f64)> {
        let stats = |p: Phase| &self.phases[p as usize];
        let delta = |p: Phase| &self.deltas[p as usize];
        // Mean duration of `name` spans within `phase`, in nanoseconds.
        let span_ns = |p: Phase, name: SpanName| {
            let t = self.tracer.totals(p as u8, name);
            t.self_ns() as f64 / t.count.max(1) as f64
        };
        let per = |num: f64, ops: u64| num / ops.max(1) as f64;
        let lat_ops = stats(Phase::Lat).all_ops;
        let rate_ops = stats(Phase::Rate).all_ops;
        let bulk_ops = stats(Phase::Bulk).all_ops;
        let conn_ops = stats(Phase::Conn).all_ops;
        let all_ops: u64 = self.phases.iter().map(|p| p.all_ops).sum();
        let (batch_count, batch_sum) = delta(Phase::Rate).histogram("ff_batch_size");
        let (stall_count, stall_sum) = delta(Phase::Rate).histogram("ff_socket_credit_stall_ns");
        let relayed = |d: &Delta| d.get("ff_agent_relayed_out") + d.get("ff_agent_relayed_in");
        let mut lat = stats(Phase::Lat).lat_samples.clone();
        lat.sort_unstable();
        let tail = stats::p99(&lat).map_or(0.0, |v| v as f64 / 1e3);
        let traced_rate = stats(Phase::Rate).rate();
        let untraced_rate = self.untraced_rate.rate();
        // A chain of 32 is one `post_send_batch` span: per message, /32.
        let chain = if workload.is_socket() {
            1.0
        } else {
            verbs_wl::RATE_WINDOW as f64
        };
        vec![
            (
                "shmem.recv_parks_per_op",
                per(delta(Phase::Lat).get("ff_agent_chan_recv_waits"), lat_ops),
            ),
            (
                "shmem.backpressure_parks_per_kop",
                1e3 * per(
                    delta(Phase::Rate).get("ff_agent_chan_backpressure_waits"),
                    rate_ops,
                ),
            ),
            (
                "verbs.cq_wait_us",
                span_ns(Phase::Lat, SpanName::VerbsCqWait) / 1e3,
            ),
            (
                "verbs.cq_wait_blocks_per_op",
                per(delta(Phase::Lat).get("ff_cq_wait_blocks_total"), lat_ops),
            ),
            (
                "agent.frames_per_wire_msg",
                batch_sum / batch_count.max(1.0),
            ),
            (
                "agent.doorbells_coalesced_per_op",
                per(
                    delta(Phase::Rate).get("ff_doorbells_coalesced_total"),
                    rate_ops,
                ),
            ),
            (
                "agent.relayed_msgs_per_op",
                per(relayed(delta(Phase::Rate)), rate_ops),
            ),
            (
                "agent.zero_copy_share",
                delta(Phase::Bulk).get("ff_agent_zero_copy_bytes")
                    / (bulk_ops.max(1) as f64 * payload_bytes(workload, Phase::Bulk)),
            ),
            (
                "agent.wire_retries_per_kop",
                1e3 * per(self.whole.get("ff_agent_wire_retries_total"), all_ops),
            ),
            ("agent.nacks", self.whole.get("ff_agent_nacks_total")),
            (
                "core.post_send_self_ns",
                span_ns(Phase::Rate, SpanName::CorePostSend) / chain,
            ),
            (
                "core.post_recv_self_ns",
                span_ns(Phase::Rate, SpanName::CorePostRecv) / chain,
            ),
            (
                "core.create_qp_us",
                span_ns(Phase::Conn, SpanName::CoreCreateQp) / 1e3,
            ),
            (
                "core.qp_connect_us",
                span_ns(Phase::Conn, SpanName::CoreQpConnect) / 1e3,
            ),
            (
                "socket.write_all_self_us",
                span_ns(Phase::Rate, SpanName::SocketWriteAll) / 1e3,
            ),
            (
                "socket.read_wait_us",
                span_ns(Phase::Lat, SpanName::SocketReadExact) / 1e3,
            ),
            (
                "socket.connect_us",
                span_ns(Phase::Conn, SpanName::SocketConnect) / 1e3,
            ),
            ("socket.credit_stall_ns_per_op", per(stall_sum, rate_ops)),
            (
                "socket.credit_stalls_per_kop",
                1e3 * per(stall_count, rate_ops),
            ),
            (
                "socket.retransmits",
                self.whole.get("ff_stream_retransmits_total"),
            ),
            (
                "socket.reorders",
                self.whole.get("ff_stream_reorders_total"),
            ),
            (
                "socket.qp_reuse_per_connect",
                per(
                    delta(Phase::Conn).get("ff_channel_qp_reuse_total"),
                    conn_ops,
                ),
            ),
            (
                "telemetry.snapshot_us",
                self.last_scrape.took.as_secs_f64() * 1e6,
            ),
            (
                "telemetry.dropped_events",
                self.last_scrape.dropped_events as f64,
            ),
            ("app.lat_p99_us", tail),
            (
                "app.rate_slice_cov",
                stats::cov(&stats(Phase::Rate).slice_rates),
            ),
            (
                "app.trace_overhead_pct",
                100.0 * (untraced_rate - traced_rate) / untraced_rate,
            ),
        ]
    }
}

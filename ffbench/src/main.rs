//! `ffbench` command line.
//!
//! ```text
//! ffbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! ffbench probes
//! ffbench compare A.jsonl B.jsonl
//! ffbench manifest
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: it prints
//! every metric by name and unit and, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--out` appends the run's full record to a file of JSON lines, the
//! input of `compare`.

use ffbench::metrics::{self, RUN_SECONDS};
use ffbench::oracle::{Ledger, Watchdog};
use ffbench::report::{self, RunSet, Verdict};
use ffbench::run::{self, Config};
use ffbench::world::Workload;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Time each timed probe loop may take.
const PROBE_BUDGET: Duration = Duration::from_millis(200);

const USAGE: &str = "usage:
  ffbench --workload <verbs_shm|verbs_relay|socket_shm|socket_relay|all> \\
          [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  ffbench probes
  ffbench compare A.jsonl B.jsonl
  ffbench manifest";

/// Where build products go: `$CARGO_TARGET_DIR`, else this package's own
/// `target/` as seen from the repository root.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "ffbench/target".into(), PathBuf::from)
}

/// Pin this thread, and so every thread the process starts from here on,
/// to the highest-numbered CPU it may run on; returns that CPU.
///
/// On two cores the kernel settles the client, peer and pump threads on
/// one core or spreads them over both by chance, the placement lasts for
/// the whole run, and a wake-up across cores (an IPI to a halted virtual
/// CPU) costs about five times one on the same core: unpinned, identical
/// runs of `socket_shm` read 22 µs or 114 µs per round trip. One core
/// measures the path length, context switches and timer waits of the
/// stack, not that coin; the last CPU is the one interrupts and system
/// daemons use least.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is WORDS * 8 writable bytes, the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|i| allowed[i / 64] >> (i % 64) & 1 == 1)?;
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is WORDS * 8 readable bytes, the size passed.
    (unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(parsed)
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let cpu = pin_to_one_cpu();
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_builds: 31,
        probe_budget: PROBE_BUDGET,
        trace_dir: target_dir().join("ffbench-traces"),
    };
    let ledger = Ledger::new();
    let _watchdog = Watchdog::spawn(Arc::clone(&ledger));
    let result = run::run(&cfg, &ledger)?;
    let mut text = report::table(&result);
    match cpu {
        Some(cpu) => text.push_str(&format!("  pinned to cpu {cpu}\n")),
        None => text.push_str("  not pinned: affinity could not be set\n"),
    }
    if let Some(file) = &result.trace_file {
        text.push_str(&format!("  spans: {}\n", file.display()));
    }
    if let Some(path) = &args.out {
        let io = |e: std::io::Error| format!("append to {}: {e}", path.display());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        writeln!(f, "{}", report::record_line(&result)).map_err(io)?;
    }
    println!("{text}{}", report::result_line(&result));
    Ok(())
}

/// Every workload in a fresh process each, so one workload's threads,
/// allocator state and peak memory cannot leak into the next.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    for w in Workload::ALL {
        let argv: Vec<String> = args
            .iter()
            .map(|a| {
                if a == "all" {
                    w.name().into()
                } else {
                    a.clone()
                }
            })
            .collect();
        let status = std::process::Command::new(&exe)
            .args(&argv)
            .status()
            .map_err(|e| format!("run {}: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("workload {} failed: {status}", w.name()));
        }
    }
    Ok(())
}

/// The standalone probes alone (a traced run includes them).
fn probes() -> Result<bool, String> {
    pin_to_one_cpu();
    for (name, value) in ffbench::probes::run_all(PROBE_BUDGET)? {
        let unit = metrics::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit);
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    Ok(true)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        RunSet::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = report::compare(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two sets share no gated metric".into());
    }
    print!("{}", report::compare_table(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("probes") => probes(),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("compare") => Err(USAGE.into()),
        _ => parse_args(&args).and_then(|parsed| {
            if parsed.workload == "all" {
                run_all(&args).map(|()| true)
            } else {
                let workload = Workload::parse(&parsed.workload)
                    .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", parsed.workload))?;
                run_one(workload, &parsed).map(|()| true)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ffbench: {why}");
            ExitCode::from(2)
        }
    }
}

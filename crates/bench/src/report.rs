//! The result shape of the socket and migration suites: named runs, each
//! an op count over a wall-clock interval. `ffbench` reads these through
//! its `socket.*` and `core.migrate_*` probes.

/// One measured workload.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Workload identifier (suites suffix it with their mode).
    pub name: String,
    /// Total operations completed.
    pub ops: u64,
    /// Payload bytes per operation.
    pub bytes_per_op: u64,
    /// Wall-clock for the whole run.
    pub elapsed_ns: u128,
}

impl BenchRun {
    pub(crate) fn new(name: &str, ops: u64, bytes_per_op: u64, elapsed_ns: u128) -> Self {
        Self {
            name: name.to_string(),
            ops,
            bytes_per_op,
            elapsed_ns,
        }
    }

    /// Millions of completed operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / (self.elapsed_ns as f64 / 1e9) / 1e6
    }
}

/// One suite's runs.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which suite produced the runs (`"socket"`, `"migration"`).
    pub mode: String,
    /// One entry per workload.
    pub runs: Vec<BenchRun>,
}

impl BenchReport {
    /// Mops for the named run, if present.
    pub fn mops_of(&self, name: &str) -> Option<f64> {
        self.runs
            .iter()
            .find(|r| r.name == name)
            .map(BenchRun::mops)
    }
}

//! Cluster and host configuration.
//!
//! [`ClusterConfig`] describes the deployment the experiments run on:
//! hosts (with capabilities), the overlay CIDR the orchestrator's IPAM
//! manages, and the isolation policy knobs. Builders give the examples and
//! benches a compact way to stand up the paper's testbed shapes.

use crate::addr::OverlayCidr;
use crate::caps::HostCaps;
use crate::error::{Error, Result};
use crate::ids::HostId;

/// Configuration of one host in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// The host's id (stable across the experiment).
    pub id: HostId,
    /// Human-readable name used in reports.
    pub name: String,
    /// Hardware capabilities.
    pub caps: HostCaps,
}

impl HostConfig {
    /// A paper-testbed host with the given id.
    pub fn testbed(id: u64) -> Self {
        Self {
            id: HostId::new(id),
            name: format!("testbed-{id}"),
            caps: HostCaps::paper_testbed(),
        }
    }

    /// A commodity host (plain NIC) with the given id.
    pub fn commodity(id: u64) -> Self {
        Self {
            id: HostId::new(id),
            name: format!("commodity-{id}"),
            caps: HostCaps::commodity(),
        }
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// All hosts in the cluster.
    pub hosts: Vec<HostConfig>,
    /// The overlay address space IPAM allocates container IPs from.
    pub overlay_cidr: OverlayCidr,
    /// Whether kernel-bypass transports may be used at all. Turning this
    /// off models the "w/o trust" row of the paper's constraint matrix:
    /// everything falls back to TCP.
    pub allow_kernel_bypass: bool,
    /// Deterministic seed for any randomized component (workloads,
    /// placement). Same seed ⇒ same results.
    pub seed: u64,
}

impl ClusterConfig {
    /// A cluster of `n` paper-testbed hosts with the default overlay
    /// (`10.0.0.0/16`).
    pub fn testbed(n: usize) -> Self {
        Self {
            hosts: (0..n as u64).map(HostConfig::testbed).collect(),
            overlay_cidr: OverlayCidr::new(crate::addr::OverlayIp::from_octets(10, 0, 0, 0), 16)
                .expect("static CIDR is valid"),
            allow_kernel_bypass: true,
            seed: 0xF1EE_F10E,
        }
    }

    /// Validate internal consistency: unique ids, non-empty, overlay large
    /// enough to be useful.
    pub fn validate(&self) -> Result<()> {
        if self.hosts.is_empty() {
            return Err(Error::config("cluster has no hosts"));
        }
        let mut ids: Vec<HostId> = self.hosts.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.hosts.len() {
            return Err(Error::config("duplicate host ids"));
        }
        if self.overlay_cidr.size() < 4 {
            return Err(Error::config(format!(
                "overlay {} too small",
                self.overlay_cidr
            )));
        }
        Ok(())
    }

    /// Look up a host's config.
    pub fn host(&self, id: HostId) -> Option<&HostConfig> {
        self.hosts.iter().find(|h| h.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_cluster_is_valid() {
        let cfg = ClusterConfig::testbed(2);
        cfg.validate().unwrap();
        assert_eq!(cfg.hosts.len(), 2);
        assert!(cfg.host(HostId::new(0)).is_some());
        assert!(cfg.host(HostId::new(9)).is_none());
    }

    #[test]
    fn validate_rejects_empty() {
        let mut cfg = ClusterConfig::testbed(1);
        cfg.hosts.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_ids() {
        let mut cfg = ClusterConfig::testbed(1);
        cfg.hosts.push(HostConfig::testbed(0));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_tiny_overlay() {
        let mut cfg = ClusterConfig::testbed(1);
        cfg.overlay_cidr = "10.0.0.0/31".parse().unwrap();
        assert!(cfg.validate().is_err());
    }
}

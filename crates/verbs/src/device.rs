//! Virtual RDMA devices.
//!
//! A [`Device`] is FreeFlow's *virtual NIC*: each container gets one,
//! addressed by the container's overlay IP (the paper's vNIC "make\[s\] the
//! actual data-plane mechanism transparent to \[the\] Verbs library"). The
//! device owns the resource tables real NICs keep on-chip: registered
//! memory regions (keyed by lkey/rkey), queue pairs (keyed by QPN) and the
//! allocators behind them.

use crate::cq::CompletionQueue;
use crate::error::{VerbsError, VerbsResult};
use crate::mr::MemoryRegion;
use crate::network::VerbsNetwork;
use crate::pd::ProtectionDomain;
use crate::qp::QueuePair;
use crate::wr::{AccessFlags, SendWr, Sge};
use freeflow_shmem::{ArenaHandle, SharedArena};
use freeflow_types::OverlayIp;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Device attribute limits (subset of `ibv_device_attr`).
#[derive(Debug, Clone, Copy)]
pub struct DeviceAttr {
    /// Maximum concurrently existing queue pairs.
    pub max_qp: u32,
    /// Maximum memory regions.
    pub max_mr: u32,
    /// Maximum inline payload accepted by `post_send`.
    pub max_inline: usize,
}

impl Default for DeviceAttr {
    fn default() -> Self {
        Self {
            max_qp: 1 << 16,
            max_mr: 1 << 16,
            max_inline: 256,
        }
    }
}

#[derive(Default)]
pub(crate) struct DeviceInner {
    mrs_by_lkey: HashMap<u32, Arc<MemoryRegion>>,
    lkey_by_rkey: HashMap<u32, u32>,
    next_key: u32,
    next_va: u64,
    qps: HashMap<u32, Weak<QueuePair>>,
    next_qpn: u32,
    next_pd: u32,
}

/// A virtual RDMA NIC bound to one overlay address.
pub struct Device {
    addr: OverlayIp,
    attr: DeviceAttr,
    /// Swappable: container migration moves the device (with all its
    /// MRs, QPs and keys) onto another host's fabric wholesale — see
    /// [`VerbsNetwork::adopt_device`].
    net: RwLock<Arc<VerbsNetwork>>,
    pub(crate) inner: Mutex<DeviceInner>,
}

impl Device {
    pub(crate) fn new(addr: OverlayIp, attr: DeviceAttr, net: Arc<VerbsNetwork>) -> Arc<Self> {
        Arc::new(Self {
            addr,
            attr,
            net: RwLock::new(net),
            inner: Mutex::new(DeviceInner {
                next_va: 0x1000_0000,
                next_key: 1,
                next_qpn: 1,
                ..Default::default()
            }),
        })
    }

    /// The device's overlay address (its "GID").
    pub fn addr(&self) -> OverlayIp {
        self.addr
    }

    /// Device limits.
    pub fn attr(&self) -> DeviceAttr {
        self.attr
    }

    /// The fabric this device is currently attached to.
    pub fn network(&self) -> Arc<VerbsNetwork> {
        Arc::clone(&self.net.read())
    }

    pub(crate) fn set_network(&self, net: Arc<VerbsNetwork>) {
        *self.net.write() = net;
    }

    /// Allocate a protection domain.
    pub fn alloc_pd(self: &Arc<Self>) -> ProtectionDomain {
        let id = {
            let mut inner = self.inner.lock();
            inner.next_pd += 1;
            inner.next_pd
        };
        ProtectionDomain::new(Arc::clone(self), id)
    }

    /// Create a completion queue of `depth` entries.
    pub fn create_cq(&self, depth: usize) -> Arc<CompletionQueue> {
        CompletionQueue::new(depth)
    }

    fn alloc_keys_and_va(&self, len: u64) -> VerbsResult<(u32, u32, u64)> {
        let mut inner = self.inner.lock();
        if inner.mrs_by_lkey.len() as u32 >= self.attr.max_mr {
            return Err(VerbsError::ResourceLimit {
                detail: format!("max_mr = {}", self.attr.max_mr),
            });
        }
        let lkey = inner.next_key;
        let rkey = inner.next_key + 1;
        inner.next_key += 2;
        let va = inner.next_va;
        inner.next_va += len.next_multiple_of(4096);
        Ok((lkey, rkey, va))
    }

    /// Register `len` bytes of private memory.
    pub(crate) fn register_mr(
        &self,
        len: u64,
        access: AccessFlags,
    ) -> VerbsResult<Arc<MemoryRegion>> {
        if len == 0 {
            return Err(VerbsError::OutOfBounds {
                detail: "zero-length registration".into(),
            });
        }
        let (lkey, rkey, va) = self.alloc_keys_and_va(len)?;
        let mr = Arc::new(MemoryRegion::new_private(va, len, lkey, rkey, access));
        let mut inner = self.inner.lock();
        inner.mrs_by_lkey.insert(lkey, Arc::clone(&mr));
        inner.lkey_by_rkey.insert(rkey, lkey);
        Ok(mr)
    }

    /// Register a block of a shared arena (zero-copy intra-host path).
    pub(crate) fn register_mr_arena(
        &self,
        arena: Arc<SharedArena>,
        handle: ArenaHandle,
        access: AccessFlags,
    ) -> VerbsResult<Arc<MemoryRegion>> {
        let (lkey, rkey, va) = self.alloc_keys_and_va(handle.len)?;
        let mr = Arc::new(MemoryRegion::new_arena(
            va, lkey, rkey, access, arena, handle,
        ));
        let mut inner = self.inner.lock();
        inner.mrs_by_lkey.insert(lkey, Arc::clone(&mr));
        inner.lkey_by_rkey.insert(rkey, lkey);
        Ok(mr)
    }

    /// Deregister a memory region by lkey.
    pub fn deregister_mr(&self, lkey: u32) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        let mr = inner
            .mrs_by_lkey
            .remove(&lkey)
            .ok_or(VerbsError::BadKey { key: lkey })?;
        inner.lkey_by_rkey.remove(&mr.rkey());
        Ok(())
    }

    /// Look up an MR by local key.
    ///
    /// Public for fabric implementations (FreeFlow's library resolves
    /// scatter/gather lists itself on relayed paths).
    pub fn mr_by_lkey(&self, lkey: u32) -> VerbsResult<Arc<MemoryRegion>> {
        self.inner
            .lock()
            .mrs_by_lkey
            .get(&lkey)
            .cloned()
            .ok_or(VerbsError::BadKey { key: lkey })
    }

    /// Gather a send WR's payload, appending it to `out`: its inline data,
    /// or each SGE read through the MR table. `last` memoizes the last
    /// lkey lookup across calls — a WR chain overwhelmingly gathers from
    /// one MR, so the table lock is taken once per chain, not per SGE.
    ///
    /// The only gather: the verbs engine and FreeFlow's relayed paths both
    /// call it.
    pub fn gather_into(
        &self,
        wr: &SendWr,
        last: &mut Option<Arc<MemoryRegion>>,
        out: &mut Vec<u8>,
    ) -> VerbsResult<()> {
        if let Some(inline) = &wr.inline_data {
            let max = self.attr.max_inline;
            if inline.len() > max {
                return Err(VerbsError::InlineTooLarge {
                    len: inline.len(),
                    max,
                });
            }
            out.extend_from_slice(inline);
            return Ok(());
        }
        for sge in &wr.sge {
            let mr = match last {
                Some(mr) if mr.lkey() == sge.lkey => mr,
                _ => last.insert(self.mr_by_lkey(sge.lkey)?),
            };
            mr.dma_read_into(sge.addr, sge.len as u64, out)?;
        }
        Ok(())
    }

    /// Scatter `payload` across `sge` in order through the MR table; each
    /// MR written must grant LOCAL_WRITE. Bytes beyond the list's capacity
    /// are dropped — callers that care check the capacity first.
    ///
    /// The only scatter: receives and READ responses, verbs engine and
    /// relayed paths alike, land through it.
    pub fn scatter(&self, sge: &[Sge], payload: &[u8]) -> VerbsResult<()> {
        let mut rest = payload;
        for s in sge {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at(rest.len().min(s.len as usize));
            let mr = self.mr_by_lkey(s.lkey)?;
            if !mr.access().local_write {
                return Err(VerbsError::AccessDenied {
                    detail: "SGE MR lacks LOCAL_WRITE".into(),
                });
            }
            mr.dma_write(s.addr, now)?;
            rest = later;
        }
        Ok(())
    }

    /// Look up an MR by remote key.
    ///
    /// Public for fabric implementations executing one-sided operations
    /// on behalf of remote peers.
    pub fn mr_by_rkey(&self, rkey: u32) -> VerbsResult<Arc<MemoryRegion>> {
        let inner = self.inner.lock();
        let lkey = inner
            .lkey_by_rkey
            .get(&rkey)
            .ok_or(VerbsError::BadKey { key: rkey })?;
        inner
            .mrs_by_lkey
            .get(lkey)
            .cloned()
            .ok_or(VerbsError::BadKey { key: rkey })
    }

    /// Allocate a QPN and register the QP.
    pub(crate) fn register_qp(&self, qp: &Arc<QueuePair>) -> VerbsResult<()> {
        let mut inner = self.inner.lock();
        inner.qps.retain(|_, w| w.strong_count() > 0);
        if inner.qps.len() as u32 >= self.attr.max_qp {
            return Err(VerbsError::ResourceLimit {
                detail: format!("max_qp = {}", self.attr.max_qp),
            });
        }
        inner.qps.insert(qp.qp_num(), Arc::downgrade(qp));
        Ok(())
    }

    /// Next QPN (24-bit wrap like hardware).
    pub(crate) fn alloc_qpn(&self) -> u32 {
        let mut inner = self.inner.lock();
        let qpn = inner.next_qpn;
        inner.next_qpn = (inner.next_qpn + 1) & 0x00FF_FFFF;
        if inner.next_qpn == 0 {
            inner.next_qpn = 1;
        }
        qpn
    }

    /// Remove a destroyed QP from the table.
    pub(crate) fn unregister_qp(&self, qpn: u32) {
        self.inner.lock().qps.remove(&qpn);
    }

    /// Find a live QP by number.
    pub fn find_qp(&self, qpn: u32) -> Option<Arc<QueuePair>> {
        self.inner.lock().qps.get(&qpn).and_then(Weak::upgrade)
    }

    /// Every registered memory region, in lkey order. Used by migration
    /// checkpointing (snapshot each MR) and restore verification.
    pub fn mrs(&self) -> Vec<Arc<MemoryRegion>> {
        let inner = self.inner.lock();
        let mut mrs: Vec<_> = inner.mrs_by_lkey.values().cloned().collect();
        mrs.sort_by_key(|mr| mr.lkey());
        mrs
    }

    /// Number of registered memory regions.
    pub fn mr_count(&self) -> usize {
        self.inner.lock().mrs_by_lkey.len()
    }

    /// Number of live QPs.
    pub fn qp_count(&self) -> usize {
        let mut inner = self.inner.lock();
        inner.qps.retain(|_, w| w.strong_count() > 0);
        inner.qps.len()
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device").field("addr", &self.addr).finish()
    }
}

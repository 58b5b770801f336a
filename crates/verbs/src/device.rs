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
use crate::mr::{land, out_of_bounds, MemoryRegion, Payload, Span};
use crate::network::VerbsNetwork;
use crate::pd::ProtectionDomain;
use crate::qp::QueuePair;
use crate::wr::{AccessFlags, SendWr, Sge, WrOpcode};
use freeflow_shmem::{ArenaHandle, SharedArena};
use freeflow_types::OverlayIp;
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
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

    /// Resolve a send WR's payload, moving no byte: its inline data, or
    /// its gather list as `spans`, each SGE's MR looked up and its bounds
    /// checked. `spans` is the last WR's list, reused: a span whose MR an
    /// SGE names again is pointed at the new range, so a WR chain, which
    /// overwhelmingly gathers from one MR, takes the table lock once.
    ///
    /// The verbs engine's gather: a local peer's landing ([`Payload`])
    /// copies the bytes once, straight from the requester's MRs.
    pub(crate) fn gather<'w>(
        &self,
        wr: &'w SendWr,
        spans: &'w mut Vec<Span>,
    ) -> VerbsResult<Payload<'w>> {
        if let Some(inline) = self.inline(wr)? {
            return Ok(Payload::Bytes(inline));
        }
        spans.truncate(wr.sge.len());
        for (i, sge) in wr.sge.iter().enumerate() {
            let len = sge.len as u64;
            match spans.get_mut(i) {
                Some(span) if span.lkey() == sge.lkey => span.move_to(sge.addr, len)?,
                _ => {
                    let span = Span::new(self.mr_by_lkey(sge.lkey)?, sge.addr, len)?;
                    spans.truncate(i);
                    spans.push(span);
                }
            }
        }
        Ok(Payload::Local(spans))
    }

    /// Gather a send WR's payload, appending it to `out`: its inline data,
    /// or each SGE read through the MR table. `last` memoizes the last
    /// lkey lookup across calls — a WR chain overwhelmingly gathers from
    /// one MR, so the table lock is taken once per chain, not per SGE.
    ///
    /// FreeFlow's relayed paths below the arena threshold call it;
    /// [`Device::gather_to_block`] is its twin for a payload that rides a
    /// shared-memory block.
    pub fn gather_into(
        &self,
        wr: &SendWr,
        last: &mut Option<Arc<MemoryRegion>>,
        out: &mut Vec<u8>,
    ) -> VerbsResult<()> {
        if let Some(inline) = self.inline(wr)? {
            out.extend_from_slice(inline);
            return Ok(());
        }
        for sge in &wr.sge {
            self.lookup(last, sge.lkey)?
                .dma_read_into(sge.addr, sge.len as u64, out)?;
        }
        Ok(())
    }

    /// Gather a send WR's payload, its [`SendWr::total_len`] bytes,
    /// straight from its MRs into `block` of `arena`, with no buffer
    /// between: what [`Device::gather_into`] does for a payload that
    /// rides shared memory. `last` memoizes the lkey lookup as there.
    pub fn gather_to_block(
        &self,
        wr: &SendWr,
        last: &mut Option<Arc<MemoryRegion>>,
        arena: &SharedArena,
        block: ArenaHandle,
    ) -> VerbsResult<()> {
        if let Some(inline) = self.inline(wr)? {
            return arena.write(block, 0, inline).map_err(out_of_bounds);
        }
        let mut at = 0;
        for sge in &wr.sge {
            let len = sge.len as u64;
            self.lookup(last, sge.lkey)?
                .dma_read_to_block(sge.addr, len, arena, block, at)?;
            at += len;
        }
        Ok(())
    }

    /// A WR's inline data, refused beyond the device's inline limit.
    fn inline<'w>(&self, wr: &'w SendWr) -> VerbsResult<Option<&'w [u8]>> {
        match &wr.inline_data {
            Some(inline) if inline.len() > self.attr.max_inline => {
                Err(VerbsError::InlineTooLarge {
                    len: inline.len(),
                    max: self.attr.max_inline,
                })
            }
            inline => Ok(inline.as_deref()),
        }
    }

    /// The MR behind `lkey`, through the memo `last`.
    fn lookup<'m>(
        &self,
        last: &'m mut Option<Arc<MemoryRegion>>,
        lkey: u32,
    ) -> VerbsResult<&'m Arc<MemoryRegion>> {
        if !matches!(last, Some(mr) if mr.lkey() == lkey) {
            *last = Some(self.mr_by_lkey(lkey)?);
        }
        Ok(last.as_ref().expect("looked up"))
    }

    /// Vet a send WR's local side — what its post refuses synchronously —
    /// touching no bytes: a READ's scatter list as [`Device::check_scatter`]
    /// does, any other WR's gather list as [`Device::gather_into`] would.
    pub fn check_local(&self, wr: &SendWr) -> VerbsResult<()> {
        if let WrOpcode::Read { .. } = wr.opcode {
            return self.check_scatter(&wr.sge);
        }
        if self.inline(wr)?.is_some() {
            return Ok(());
        }
        for sge in &wr.sge {
            (self.mr_by_lkey(sge.lkey)?).va_to_offset(sge.addr, sge.len as u64)?;
        }
        Ok(())
    }

    /// Scatter `payload` across `sge` in order through the MR table; each
    /// MR written must grant LOCAL_WRITE. Bytes beyond the list's capacity
    /// are dropped — callers that care check the capacity first.
    ///
    /// The only scatter: receives and READ responses, verbs engine and
    /// relayed paths alike, land through it. Every SGE is vetted before
    /// any byte lands, so a refused one lands nothing and a block is freed
    /// unlanded.
    ///
    /// The resolved list is this thread's, reused: a landing allocates
    /// nothing.
    pub fn scatter(&self, sge: &[Sge], payload: Payload<'_>) -> VerbsResult<()> {
        thread_local! {
            static TO: Cell<Vec<Span>> = const { Cell::new(Vec::new()) };
        }
        let (mut to, mut rest) = (TO.take(), payload.len());
        let mut resolved = Ok(());
        for s in sge {
            if rest == 0 {
                break;
            }
            let n = rest.min(s.len as u64);
            match self.writable(s).and_then(|mr| Span::new(mr, s.addr, n)) {
                Ok(span) => to.push(span),
                Err(e) => {
                    resolved = Err(e);
                    break;
                }
            }
            rest -= n;
        }
        let landed = match resolved {
            Ok(()) => land(&to, payload),
            Err(e) => {
                payload.discard();
                Err(e)
            }
        };
        // Released before it is kept: no region outlives its landing here.
        to.clear();
        TO.set(to);
        landed
    }

    /// Vet every SGE of a scatter list — key, LOCAL_WRITE, bounds —
    /// writing nothing. A READ's destination is checked this way before
    /// the request leaves, so a bad one fails the post on every path.
    pub fn check_scatter(&self, sge: &[Sge]) -> VerbsResult<()> {
        for s in sge {
            self.writable(s)?.va_to_offset(s.addr, s.len as u64)?;
        }
        Ok(())
    }

    /// The MR behind `s`, if it grants LOCAL_WRITE.
    fn writable(&self, s: &Sge) -> VerbsResult<Arc<MemoryRegion>> {
        let mr = self.mr_by_lkey(s.lkey)?;
        if !mr.access().local_write {
            return Err(VerbsError::AccessDenied {
                detail: "SGE MR lacks LOCAL_WRITE".into(),
            });
        }
        Ok(mr)
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

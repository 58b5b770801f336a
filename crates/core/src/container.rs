//! The container handle: what an application holds.
//!
//! A [`Container`] is the reproduction's stand-in for a Docker container
//! (see DESIGN.md's substitution table): an isolated identity — overlay
//! IP, tenant, namespace of QPs/MRs — whose networking goes exclusively
//! through its embedded FreeFlow [`NetLibrary`]. It is `Send`, so
//! application code can run it on its own thread like a real container
//! process.

use crate::library::NetLibrary;
use crate::qp::FfQp;
use freeflow_types::{ContainerId, HostId, OverlayIp, Result, TenantId};
use freeflow_verbs::wr::AccessFlags;
use freeflow_verbs::{CompletionQueue, MemoryRegion, VerbsResult};
use std::sync::Arc;

/// One containerized application instance.
pub struct Container {
    id: ContainerId,
    tenant: TenantId,
    lib: NetLibrary,
}

impl Container {
    pub(crate) fn new(id: ContainerId, tenant: TenantId, lib: NetLibrary) -> Self {
        Self { id, tenant, lib }
    }

    /// The container's cluster-wide id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The container's overlay IP — its stable, location-independent
    /// network identity.
    pub fn ip(&self) -> OverlayIp {
        self.lib.ip()
    }

    /// The physical host currently underneath (diagnostics only —
    /// applications that read this are breaking the abstraction).
    pub fn host(&self) -> HostId {
        self.lib.host()
    }

    /// The embedded network library.
    pub fn lib(&self) -> &NetLibrary {
        &self.lib
    }

    /// A cloneable handle onto the library — what long-lived networking
    /// objects (socket listeners, channel pools) hold instead of
    /// borrowing the container.
    pub fn handle(&self) -> crate::library::LibHandle {
        self.lib.handle()
    }

    pub(crate) fn into_lib(self) -> NetLibrary {
        self.lib
    }

    // --- convenience delegates (the app-facing API) -----------------------

    /// Register memory with the virtual NIC.
    pub fn register(&self, len: u64, access: AccessFlags) -> VerbsResult<Arc<MemoryRegion>> {
        self.lib.register(len, access)
    }

    /// Create a completion queue.
    pub fn create_cq(&self, depth: usize) -> Arc<CompletionQueue> {
        self.lib.create_cq(depth)
    }

    /// Create a virtual queue pair.
    pub fn create_qp(
        &self,
        send_cq: &Arc<CompletionQueue>,
        recv_cq: &Arc<CompletionQueue>,
        sq_depth: usize,
        rq_depth: usize,
    ) -> VerbsResult<Arc<FfQp>> {
        self.lib.create_qp(send_cq, recv_cq, sq_depth, rq_depth)
    }

    /// Resolve a peer's path (socket/MPI layers use this; plain verbs
    /// applications never need it).
    pub fn resolve(&self, dst: OverlayIp) -> Result<crate::library::ResolvedPath> {
        self.lib.resolve(dst)
    }
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("id", &self.id)
            .field("ip", &self.ip())
            .field("tenant", &self.tenant)
            .finish()
    }
}

//! Work requests, scatter/gather elements and work completions.
//!
//! The vocabulary of the Verbs data path, mirroring `ibv_send_wr`,
//! `ibv_recv_wr`, `ibv_sge` and `ibv_wc`.

use crate::error::WcStatus;

/// Memory-region access permissions (subset of `ibv_access_flags`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFlags {
    /// The owner may have the NIC write into the region (receives, READ
    /// responses landing locally).
    pub local_write: bool,
    /// Remote peers may WRITE into the region.
    pub remote_write: bool,
    /// Remote peers may READ from the region.
    pub remote_read: bool,
}

impl AccessFlags {
    /// Local read/write only (receive buffers, send staging).
    pub const fn local_rw() -> Self {
        Self {
            local_write: true,
            remote_write: false,
            remote_read: false,
        }
    }

    /// Everything allowed — typical for benchmark buffers.
    pub const fn all() -> Self {
        Self {
            local_write: true,
            remote_write: true,
            remote_read: true,
        }
    }

    /// Remote-write only (a one-sided WRITE target).
    pub const fn remote_write_only() -> Self {
        Self {
            local_write: true,
            remote_write: true,
            remote_read: false,
        }
    }
}

/// A scatter/gather element: a (virtual address, length, lkey) triple
/// naming a slice of a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sge {
    /// Virtual address within the owning MR's address range.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Local key of the MR.
    pub lkey: u32,
}

/// Send-side opcodes (subset of `ibv_wr_opcode` used by the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrOpcode {
    /// Two-sided send; consumes a posted receive at the peer.
    Send,
    /// One-sided write into remote memory; invisible to the peer CPU.
    Write {
        /// Remote virtual address to write at.
        remote_addr: u64,
        /// Remote key authorizing the write.
        rkey: u32,
    },
    /// One-sided write that also consumes a receive and delivers
    /// `imm` to the peer's CQ.
    WriteWithImm {
        /// Remote virtual address to write at.
        remote_addr: u64,
        /// Remote key authorizing the write.
        rkey: u32,
        /// Immediate value delivered in the peer's completion.
        imm: u32,
    },
    /// One-sided read from remote memory into the local SGE.
    Read {
        /// Remote virtual address to read from.
        remote_addr: u64,
        /// Remote key authorizing the read.
        rkey: u32,
    },
}

impl WrOpcode {
    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            WrOpcode::Send => "SEND",
            WrOpcode::Write { .. } => "WRITE",
            WrOpcode::WriteWithImm { .. } => "WRITE_WITH_IMM",
            WrOpcode::Read { .. } => "READ",
        }
    }

    /// The opcode the sender's completion reports, success or failure.
    pub fn completes_as(&self) -> WcOpcode {
        match self {
            WrOpcode::Send => WcOpcode::Send,
            WrOpcode::Write { .. } | WrOpcode::WriteWithImm { .. } => WcOpcode::RdmaWrite,
            WrOpcode::Read { .. } => WcOpcode::RdmaRead,
        }
    }
}

/// A send work request (`ibv_send_wr`).
#[derive(Debug, Clone)]
pub struct SendWr {
    /// Caller cookie, returned in the completion.
    pub wr_id: u64,
    /// The operation.
    pub opcode: WrOpcode,
    /// Gather list (data source). Empty together with `inline_data` for
    /// zero-length operations.
    pub sge: Vec<Sge>,
    /// Inline payload (copied at post time; no MR needed). Mutually
    /// exclusive with `sge`.
    pub inline_data: Option<Vec<u8>>,
    /// Whether a completion should be generated on success (failure always
    /// completes).
    pub signaled: bool,
}

impl SendWr {
    /// A signaled two-sided SEND from one SGE.
    pub fn send(wr_id: u64, sge: Sge) -> Self {
        Self {
            wr_id,
            opcode: WrOpcode::Send,
            sge: vec![sge],
            inline_data: None,
            signaled: true,
        }
    }

    /// A signaled SEND with inline payload.
    pub fn send_inline(wr_id: u64, data: impl Into<Vec<u8>>) -> Self {
        Self {
            wr_id,
            opcode: WrOpcode::Send,
            sge: Vec::new(),
            inline_data: Some(data.into()),
            signaled: true,
        }
    }

    /// A signaled one-sided WRITE.
    pub fn write(wr_id: u64, sge: Sge, remote_addr: u64, rkey: u32) -> Self {
        Self {
            wr_id,
            opcode: WrOpcode::Write { remote_addr, rkey },
            sge: vec![sge],
            inline_data: None,
            signaled: true,
        }
    }

    /// A signaled WRITE_WITH_IMM.
    pub fn write_with_imm(wr_id: u64, sge: Sge, remote_addr: u64, rkey: u32, imm: u32) -> Self {
        Self {
            wr_id,
            opcode: WrOpcode::WriteWithImm {
                remote_addr,
                rkey,
                imm,
            },
            sge: vec![sge],
            inline_data: None,
            signaled: true,
        }
    }

    /// A signaled one-sided READ.
    pub fn read(wr_id: u64, sge: Sge, remote_addr: u64, rkey: u32) -> Self {
        Self {
            wr_id,
            opcode: WrOpcode::Read { remote_addr, rkey },
            sge: vec![sge],
            inline_data: None,
            signaled: true,
        }
    }

    /// Mark the WR unsignaled (no success completion).
    pub fn unsignaled(mut self) -> Self {
        self.signaled = false;
        self
    }

    /// Total gather length in bytes.
    pub fn total_len(&self) -> u64 {
        if let Some(d) = &self.inline_data {
            d.len() as u64
        } else {
            self.sge.iter().map(|s| s.len as u64).sum()
        }
    }
}

/// A receive work request (`ibv_recv_wr`).
#[derive(Debug, Clone)]
pub struct RecvWr {
    /// Caller cookie, returned in the completion.
    pub wr_id: u64,
    /// Scatter list (where incoming data lands).
    pub sge: Vec<Sge>,
}

impl RecvWr {
    /// A receive into one SGE.
    pub fn new(wr_id: u64, sge: Sge) -> Self {
        Self {
            wr_id,
            sge: vec![sge],
        }
    }

    /// A zero-length receive (for WRITE_WITH_IMM notifications).
    pub fn empty(wr_id: u64) -> Self {
        Self {
            wr_id,
            sge: Vec::new(),
        }
    }

    /// Total scatter capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sge.iter().map(|s| s.len as u64).sum()
    }
}

/// Which operation a completion reports (subset of `ibv_wc_opcode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    /// A send WR completed (any send-side opcode).
    Send,
    /// RDMA WRITE completed (sender side).
    RdmaWrite,
    /// RDMA READ completed (sender side).
    RdmaRead,
    /// A receive consumed by a SEND.
    Recv,
    /// A receive consumed by WRITE_WITH_IMM.
    RecvRdmaWithImm,
}

/// A work completion (`ibv_wc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCompletion {
    /// Cookie of the completed WR.
    pub wr_id: u64,
    /// Outcome.
    pub status: WcStatus,
    /// Operation class.
    pub opcode: WcOpcode,
    /// Bytes transferred (receive side: bytes landed).
    pub byte_len: u64,
    /// Immediate data, if the peer sent any.
    pub imm: Option<u32>,
    /// QP number the completion belongs to.
    pub qp_num: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_wr_constructors() {
        let sge = Sge {
            addr: 0x1000,
            len: 64,
            lkey: 7,
        };
        let wr = SendWr::send(1, sge);
        assert_eq!(wr.opcode.name(), "SEND");
        assert_eq!(wr.total_len(), 64);
        assert!(wr.signaled);
        let wr = SendWr::write(2, sge, 0x2000, 9).unsignaled();
        assert!(!wr.signaled);
        assert_eq!(wr.opcode.name(), "WRITE");
        let wr = SendWr::send_inline(3, b"abc".to_vec());
        assert_eq!(wr.total_len(), 3);
        let wr = SendWr::read(4, sge, 0x2000, 9);
        assert_eq!(wr.opcode.name(), "READ");
        let wr = SendWr::write_with_imm(5, sge, 0x2000, 9, 42);
        assert_eq!(wr.opcode.name(), "WRITE_WITH_IMM");
    }

    #[test]
    fn recv_wr_capacity() {
        let r = RecvWr::new(
            1,
            Sge {
                addr: 0,
                len: 128,
                lkey: 1,
            },
        );
        assert_eq!(r.capacity(), 128);
        assert_eq!(RecvWr::empty(2).capacity(), 0);
    }

    #[test]
    fn access_flag_presets() {
        assert!(!AccessFlags::local_rw().remote_write);
        assert!(AccessFlags::all().remote_read);
        let w = AccessFlags::remote_write_only();
        assert!(w.remote_write && !w.remote_read);
    }
}

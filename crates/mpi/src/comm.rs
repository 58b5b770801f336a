//! Ranks, the world builder, point-to-point messaging and collectives.

use freeflow::{Container, FreeFlowCluster};
use freeflow_socket::{FfStream, SocketStack};
use freeflow_types::wire::{Reader, Writer};
use freeflow_types::{Error, HostId, Result, TenantId};
use std::collections::VecDeque;
use std::time::Duration;

/// Rendezvous port every rank's listener binds (per-container port spaces
/// make one well-known port fine).
const MPI_PORT: u16 = 5555;

/// Frame header: tag (u32) + payload length (u64).
const HDR: usize = 12;

/// Payload bytes a receive reads (and allocates) at a time, so its memory
/// tracks the bytes that actually arrive, not the length a header claims.
const RECV_CHUNK: u64 = 64 * 1024;

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl Op {
    fn fold(self, acc: &mut [f64], x: &[f64]) {
        for (a, b) in acc.iter_mut().zip(x) {
            *a = match self {
                Op::Sum => *a + *b,
                Op::Min => a.min(*b),
                Op::Max => a.max(*b),
            };
        }
    }
}

/// Reserved tags for collectives (applications should use tags < 2^30).
mod sys_tag {
    pub const BARRIER_IN: u32 = 0xFFFF_0001;
    pub const BARRIER_OUT: u32 = 0xFFFF_0002;
    pub const BCAST: u32 = 0xFFFF_0003;
    pub const GATHER: u32 = 0xFFFF_0004;
    pub const REDUCE: u32 = 0xFFFF_0005;
    pub const SCATTER: u32 = 0xFFFF_0006;
    pub const ALLTOALL: u32 = 0xFFFF_0007;
}

/// One MPI process: a FreeFlow container plus links to every peer.
pub struct Rank {
    rank: usize,
    size: usize,
    container: Container,
    links: Vec<Option<FfStream>>,
    /// Frames read while looking for a different tag, per source.
    unexpected: Vec<VecDeque<(u32, Vec<u8>)>>,
}

/// World construction.
pub struct World;

impl World {
    /// Launch `placements.len()` ranks (rank *i* on `placements[i]`) and
    /// wire the full mesh. Returns the ranks, to be moved to their own
    /// threads.
    pub fn create(
        cluster: &FreeFlowCluster,
        tenant: TenantId,
        placements: &[HostId],
    ) -> Result<Vec<Rank>> {
        let size = placements.len();
        if size == 0 {
            return Err(Error::config("empty MPI world"));
        }
        let stack = SocketStack::new();
        let containers: Vec<Container> = placements
            .iter()
            .map(|h| cluster.launch(tenant, *h))
            .collect::<Result<_>>()?;
        let listeners: Vec<_> = containers
            .iter()
            .map(|c| stack.bind(c, MPI_PORT))
            .collect::<Result<Vec<_>>>()?;

        // Full mesh: rank i dials every j > i; the dialer introduces
        // itself with a hello frame so the acceptor knows who called.
        let mut matrix: Vec<Vec<Option<FfStream>>> = Vec::new();
        for _ in 0..size {
            matrix.push((0..size).map(|_| None).collect());
        }
        std::thread::scope(|s| -> Result<()> {
            let mut acceptors = Vec::new();
            for (j, listener) in listeners.iter().enumerate() {
                acceptors.push(s.spawn(move || -> Result<Vec<(usize, FfStream)>> {
                    let mut got = Vec::new();
                    for _ in 0..j {
                        let mut stream = listener.accept(Duration::from_secs(30))?;
                        let mut hello = [0u8; 8];
                        stream.read_exact(&mut hello)?;
                        got.push((Reader::new(&hello).u64()? as usize, stream));
                    }
                    Ok(got)
                }));
            }
            let mut dialers = Vec::new();
            for i in 0..size {
                let container = &containers[i];
                let stack = &stack;
                let containers = &containers;
                dialers.push(s.spawn(move || -> Result<Vec<(usize, FfStream)>> {
                    let mut out = Vec::new();
                    for (j, peer) in containers.iter().enumerate().skip(i + 1) {
                        let mut stream = stack.connect(container, peer.ip(), MPI_PORT)?;
                        stream.write_all(&(i as u64).to_le_bytes())?;
                        out.push((j, stream));
                    }
                    Ok(out)
                }));
            }
            for (i, d) in dialers.into_iter().enumerate() {
                for (j, stream) in d.join().expect("dialer thread")? {
                    matrix[i][j] = Some(stream);
                }
            }
            for (j, a) in acceptors.into_iter().enumerate() {
                for (i, stream) in a.join().expect("acceptor thread")? {
                    matrix[j][i] = Some(stream);
                }
            }
            Ok(())
        })?;

        let mut ranks = Vec::new();
        for (rank, (container, links)) in containers.into_iter().zip(matrix).enumerate() {
            ranks.push(Rank {
                rank,
                size,
                container,
                links,
                unexpected: (0..size).map(|_| VecDeque::new()).collect(),
            });
        }
        Ok(ranks)
    }
}

impl Rank {
    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The underlying container (diagnostics).
    pub fn container(&self) -> &Container {
        &self.container
    }

    fn link(&mut self, peer: usize) -> Result<&mut FfStream> {
        if peer == self.rank {
            return Err(Error::config("rank cannot message itself"));
        }
        self.links
            .get_mut(peer)
            .and_then(Option::as_mut)
            .ok_or_else(|| Error::not_found(format!("no link to rank {peer}")))
    }

    /// Tagged point-to-point send (blocking until buffered/transferred).
    pub fn send(&mut self, dst: usize, tag: u32, data: &[u8]) -> Result<()> {
        let mut frame = Vec::with_capacity(HDR + data.len());
        frame.u32(tag).u64(data.len() as u64).put(data);
        self.link(dst)?.write_all(&frame)?;
        Ok(())
    }

    /// Tagged point-to-point receive (blocking). Frames with other tags
    /// from the same source are parked and matched by later receives —
    /// MPI's unexpected-message queue.
    pub fn recv(&mut self, src: usize, tag: u32) -> Result<Vec<u8>> {
        if let Some(pos) = self.unexpected[src].iter().position(|(t, _)| *t == tag) {
            let (_, data) = self.unexpected[src].remove(pos).expect("position valid");
            return Ok(data);
        }
        loop {
            let (got_tag, data) = {
                let stream = self.link(src)?;
                let mut hdr = [0u8; HDR];
                stream.read_exact(&mut hdr)?;
                let mut r = Reader::new(&hdr);
                let (got_tag, len) = (r.u32()?, r.u64()?);
                let mut data = Vec::new();
                while (data.len() as u64) < len {
                    let at = data.len();
                    data.resize(at + (len - at as u64).min(RECV_CHUNK) as usize, 0);
                    stream.read_exact(&mut data[at..])?;
                }
                (got_tag, data)
            };
            if got_tag == tag {
                return Ok(data);
            }
            self.unexpected[src].push_back((got_tag, data));
        }
    }

    // --- collectives ------------------------------------------------------

    /// Synchronize all ranks (centralized: gather at 0, then release).
    pub fn barrier(&mut self) -> Result<()> {
        if self.rank == 0 {
            for peer in 1..self.size {
                let _ = self.recv(peer, sys_tag::BARRIER_IN)?;
            }
            for peer in 1..self.size {
                self.send(peer, sys_tag::BARRIER_OUT, &[])?;
            }
        } else {
            self.send(0, sys_tag::BARRIER_IN, &[])?;
            let _ = self.recv(0, sys_tag::BARRIER_OUT)?;
        }
        Ok(())
    }

    /// Broadcast `data` from `root` to every rank (in place).
    pub fn broadcast(&mut self, root: usize, data: &mut Vec<u8>) -> Result<()> {
        if self.rank == root {
            for peer in 0..self.size {
                if peer != root {
                    self.send(peer, sys_tag::BCAST, data)?;
                }
            }
        } else {
            *data = self.recv(root, sys_tag::BCAST)?;
        }
        Ok(())
    }

    /// Gather every rank's buffer at `root`; returns rank-ordered buffers
    /// there, `None` elsewhere.
    pub fn gather(&mut self, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        if self.rank == root {
            let mut all: Vec<Vec<u8>> = Vec::with_capacity(self.size);
            for peer in 0..self.size {
                if peer == root {
                    all.push(data.to_vec());
                } else {
                    all.push(self.recv(peer, sys_tag::GATHER)?);
                }
            }
            Ok(Some(all))
        } else {
            self.send(root, sys_tag::GATHER, data)?;
            Ok(None)
        }
    }

    /// Elementwise reduction of `f64` vectors at `root`.
    pub fn reduce(&mut self, root: usize, data: &[f64], op: Op) -> Result<Option<Vec<f64>>> {
        let bytes = f64s_to_bytes(data);
        if self.rank == root {
            let mut acc = data.to_vec();
            for peer in 0..self.size {
                if peer != root {
                    let got = self.recv(peer, sys_tag::REDUCE)?;
                    let vals = bytes_to_f64s(&got)?;
                    if vals.len() != acc.len() {
                        return Err(Error::config(format!(
                            "reduce length mismatch: {} vs {}",
                            vals.len(),
                            acc.len()
                        )));
                    }
                    op.fold(&mut acc, &vals);
                }
            }
            Ok(Some(acc))
        } else {
            self.send(root, sys_tag::REDUCE, &bytes)?;
            Ok(None)
        }
    }

    /// Scatter: `root` holds one buffer per rank (rank-ordered); every
    /// rank receives its slice. Returns this rank's piece.
    pub fn scatter(&mut self, root: usize, data: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        if self.rank == root {
            let data = data.ok_or_else(|| Error::config("root must supply scatter data"))?;
            if data.len() != self.size {
                return Err(Error::config(format!(
                    "scatter needs {} buffers, got {}",
                    self.size,
                    data.len()
                )));
            }
            for (peer, buf) in data.iter().enumerate() {
                if peer != root {
                    self.send(peer, sys_tag::SCATTER, buf)?;
                }
            }
            Ok(data[root].clone())
        } else {
            self.recv(root, sys_tag::SCATTER)
        }
    }

    /// All-to-all personalized exchange: `data[j]` goes to rank `j`;
    /// returns rank-ordered buffers received from every rank (own slot is
    /// this rank's own contribution, as in MPI_Alltoall).
    pub fn alltoall(&mut self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        if data.len() != self.size {
            return Err(Error::config(format!(
                "alltoall needs {} buffers, got {}",
                self.size,
                data.len()
            )));
        }
        // Send phase: everything out first (streams buffer; no deadlock at
        // these sizes thanks to credit windows sized per link).
        for (peer, buf) in data.iter().enumerate() {
            if peer != self.rank {
                self.send(peer, sys_tag::ALLTOALL, buf)?;
            }
        }
        // Receive phase.
        let mut out = Vec::with_capacity(self.size);
        for peer in 0..self.size {
            if peer == self.rank {
                out.push(data[self.rank].clone());
            } else {
                out.push(self.recv(peer, sys_tag::ALLTOALL)?);
            }
        }
        Ok(out)
    }

    /// Reduce-to-all: every rank gets the reduction result.
    pub fn allreduce(&mut self, data: &[f64], op: Op) -> Result<Vec<f64>> {
        let reduced = self.reduce(0, data, op)?;
        let mut buf = match reduced {
            Some(v) => f64s_to_bytes(&v),
            None => Vec::new(),
        };
        self.broadcast(0, &mut buf)?;
        bytes_to_f64s(&buf)
    }
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rank")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("ip", &self.container.ip())
            .finish()
    }
}

fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn bytes_to_f64s(b: &[u8]) -> Result<Vec<f64>> {
    if b.len() % 8 != 0 {
        return Err(Error::parse(format!(
            "{} bytes is not f64-aligned",
            b.len()
        )));
    }
    Ok(b.chunks_exact(8)
        .map(|c| f64::from_bits(Reader::new(c).u64().expect("an 8-byte chunk")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeflow_types::HostCaps;

    /// 4 ranks over 2 hosts: links mix shared memory and the RDMA wire.
    fn world_of_four() -> Vec<Rank> {
        let cluster = FreeFlowCluster::with_defaults();
        let h0 = cluster.add_host(HostCaps::paper_testbed());
        let h1 = cluster.add_host(HostCaps::paper_testbed());
        // Leak the cluster so containers outlive this helper (tests only).
        let cluster = Box::leak(Box::new(cluster));
        World::create(cluster, TenantId::new(1), &[h0, h0, h1, h1]).unwrap()
    }

    fn run_all<F>(ranks: Vec<Rank>, f: F)
    where
        F: Fn(&mut Rank) + Send + Sync + Copy + 'static,
    {
        std::thread::scope(|s| {
            for mut rank in ranks {
                s.spawn(move || f(&mut rank));
            }
        });
    }

    #[test]
    fn point_to_point_ring() {
        run_all(world_of_four(), |r| {
            let next = (r.rank() + 1) % r.size();
            let prev = (r.rank() + r.size() - 1) % r.size();
            let msg = format!("from {}", r.rank());
            r.send(next, 7, msg.as_bytes()).unwrap();
            let got = r.recv(prev, 7).unwrap();
            assert_eq!(got, format!("from {prev}").as_bytes());
        });
    }

    #[test]
    fn tag_matching_parks_unexpected_messages() {
        run_all(world_of_four(), |r| match r.rank() {
            0 => {
                // Send tag 2 first, then tag 1: receiver asks for 1 first.
                r.send(1, 2, b"second").unwrap();
                r.send(1, 1, b"first").unwrap();
            }
            1 => {
                assert_eq!(r.recv(0, 1).unwrap(), b"first");
                assert_eq!(r.recv(0, 2).unwrap(), b"second");
            }
            _ => {}
        });
    }

    #[test]
    fn barrier_and_broadcast() {
        run_all(world_of_four(), |r| {
            r.barrier().unwrap();
            let mut data = if r.rank() == 2 {
                b"root payload".to_vec()
            } else {
                Vec::new()
            };
            r.broadcast(2, &mut data).unwrap();
            assert_eq!(data, b"root payload");
            r.barrier().unwrap();
        });
    }

    #[test]
    fn gather_is_rank_ordered() {
        run_all(world_of_four(), |r| {
            let mine = vec![r.rank() as u8; 3];
            match r.gather(0, &mine).unwrap() {
                Some(all) => {
                    assert_eq!(all.len(), 4);
                    for (i, buf) in all.iter().enumerate() {
                        assert_eq!(buf, &vec![i as u8; 3]);
                    }
                }
                None => assert_ne!(r.rank(), 0),
            }
        });
    }

    #[test]
    fn allreduce_sum_min_max() {
        run_all(world_of_four(), |r| {
            let x = vec![r.rank() as f64, 10.0 * r.rank() as f64];
            let sum = r.allreduce(&x, Op::Sum).unwrap();
            assert_eq!(sum, vec![6.0, 60.0]); // 0+1+2+3
            let min = r.allreduce(&x, Op::Min).unwrap();
            assert_eq!(min, vec![0.0, 0.0]);
            let max = r.allreduce(&x, Op::Max).unwrap();
            assert_eq!(max, vec![3.0, 30.0]);
        });
    }

    #[test]
    fn scatter_distributes_rank_ordered_slices() {
        run_all(world_of_four(), |r| {
            let piece = if r.rank() == 1 {
                let bufs: Vec<Vec<u8>> = (0..r.size()).map(|j| vec![j as u8; j + 1]).collect();
                r.scatter(1, Some(&bufs)).unwrap()
            } else {
                r.scatter(1, None).unwrap()
            };
            assert_eq!(piece, vec![r.rank() as u8; r.rank() + 1]);
        });
    }

    #[test]
    fn alltoall_personalized_exchange() {
        run_all(world_of_four(), |r| {
            // data[j] = [my_rank, j].
            let data: Vec<Vec<u8>> = (0..r.size())
                .map(|j| vec![r.rank() as u8, j as u8])
                .collect();
            let got = r.alltoall(&data).unwrap();
            for (src, buf) in got.iter().enumerate() {
                assert_eq!(buf, &vec![src as u8, r.rank() as u8]);
            }
        });
    }

    #[test]
    fn alltoall_wrong_arity_rejected() {
        let mut ranks = world_of_four();
        let r0 = &mut ranks[0];
        assert!(r0.alltoall(&[vec![0u8]]).is_err());
    }

    #[test]
    fn reduce_length_mismatch_is_error() {
        run_all(world_of_four(), |r| {
            let x = vec![1.0_f64; r.rank() + 1]; // deliberately ragged
            match r.reduce(0, &x, Op::Sum) {
                Ok(None) => assert_ne!(r.rank(), 0),
                Ok(Some(_)) => panic!("ragged reduce must fail at root"),
                Err(_) => assert_eq!(r.rank(), 0),
            }
        });
    }

    #[test]
    fn recv_survives_a_header_claiming_a_terabyte() {
        let cluster = FreeFlowCluster::with_defaults();
        let h = cluster.add_host(HostCaps::paper_testbed());
        let a = cluster.launch(TenantId::new(1), h).unwrap();
        let b = cluster.launch(TenantId::new(1), h).unwrap();
        let stack = SocketStack::new();
        let listener = stack.bind(&b, MPI_PORT).unwrap();
        let (mut liar, stream) = std::thread::scope(|s| {
            let accepted = s.spawn(|| listener.accept(Duration::from_secs(30)).unwrap());
            let liar = stack.connect(&a, b.ip(), MPI_PORT).unwrap();
            (liar, accepted.join().unwrap())
        });
        let mut rank = Rank {
            rank: 0,
            size: 2,
            container: b,
            links: vec![None, Some(stream)],
            unexpected: vec![VecDeque::new(), VecDeque::new()],
        };
        let mut frame = Vec::new();
        frame.u32(7).u64(1 << 40).put(&[0xAB; 1000]);
        liar.write_all(&frame).unwrap();
        liar.shutdown().unwrap();
        assert!(rank.recv(1, 7).is_err(), "a 1 TiB claim ends at EOF");
    }

    #[test]
    fn self_send_rejected() {
        let mut ranks = world_of_four();
        let r0 = &mut ranks[0];
        assert!(r0.send(0, 1, b"loop").is_err());
    }
}

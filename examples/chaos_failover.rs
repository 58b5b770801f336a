//! Chaos failover demo: an RDMA NIC dies under a live connection and the
//! QP transparently fails over to kernel TCP — same QP, same API. The send
//! posted into the outage is not lost: the QP re-sends it on the new path
//! once routes converge, and it completes successfully, exactly once.
//!
//! ```console
//! $ cargo run --example chaos_failover
//! ```

use freeflow::qp::FfPath;
use freeflow::FreeFlowCluster;
use freeflow_types::{HostCaps, TenantId};
use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
use std::time::Duration;

fn transport_of(qp: &freeflow::FfQp) -> String {
    match qp.path() {
        FfPath::Remote { transport, .. } => transport.name().to_string(),
        FfPath::Local { .. } => "shared memory".into(),
        FfPath::Unbound => "?".into(),
    }
}

fn main() {
    let cluster = FreeFlowCluster::with_defaults();
    let h0 = cluster.add_host(HostCaps::paper_testbed());
    let h1 = cluster.add_host(HostCaps::paper_testbed());
    let tenant = TenantId::new(1);
    let client = cluster.launch(tenant, h0).unwrap();
    let server = cluster.launch(tenant, h1).unwrap();
    // No timer to tune: the agent nacks a send on the dead wire at once,
    // and the QP's 1 s op deadline is there only for a silent loss.

    let mr_c = client.register(4096, AccessFlags::all()).unwrap();
    let mr_s = server.register(4096, AccessFlags::all()).unwrap();
    let cq_c = client.create_cq(16);
    let cq_s = server.create_cq(16);
    let qp_c = client.create_qp(&cq_c, &cq_c, 8, 8).unwrap();
    let qp_s = server.create_qp(&cq_s, &cq_s, 8, 8).unwrap();
    qp_c.connect(qp_s.endpoint()).unwrap();
    qp_s.connect(qp_c.endpoint()).unwrap();
    println!("connected: data plane = {}", transport_of(&qp_c));

    let t = Duration::from_secs(10);
    qp_s.post_recv(RecvWr::new(1, mr_s.sge(0, 4096))).unwrap();
    mr_c.write(0, b"hello over rdma").unwrap();
    qp_c.post_send(SendWr::send(1, mr_c.sge(0, 15))).unwrap();
    cq_s.wait_one(t).unwrap();
    cq_c.wait_one(t).unwrap();
    println!("sent #1 over {}", transport_of(&qp_c));

    println!("--- killing host-0's RDMA NIC (routes not yet updated) ---");
    cluster.fail_nic(h0).unwrap();

    qp_s.post_recv(RecvWr::new(2, mr_s.sge(0, 4096))).unwrap();
    mr_c.write(0, b"into the outage").unwrap();
    qp_c.post_send(SendWr::send(2, mr_c.sge(0, 15))).unwrap();
    while qp_c.failover_count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    println!(
        "QP re-pathed itself: data plane = {} ({} failover), send #2 kept",
        transport_of(&qp_c),
        qp_c.failover_count()
    );

    println!("--- routes converge onto TCP ---");
    cluster.refresh_routes();
    cq_s.wait_one(t).unwrap();
    let wc = cq_c.wait_one(t).expect("a completion, not a hang");
    println!(
        "send #2 completed with status: {} (wr_id {}), re-sent {} time(s)",
        wc.status,
        wc.wr_id,
        qp_c.resent_count()
    );
    assert!(wc.status.is_ok());

    qp_s.post_recv(RecvWr::new(3, mr_s.sge(0, 4096))).unwrap();
    mr_c.write(0, b"hello over tcp!").unwrap();
    qp_c.post_send(SendWr::send(3, mr_c.sge(0, 15))).unwrap();
    cq_s.wait_one(t).unwrap();
    cq_c.wait_one(t).unwrap();
    let mut buf = [0u8; 15];
    mr_s.read(0, &mut buf).unwrap();
    println!(
        "sent #3 over {}: server got {:?}",
        transport_of(&qp_c),
        std::str::from_utf8(&buf).unwrap()
    );

    cluster.restore_nic(h0).unwrap();
    cluster.refresh_routes();
    println!("--- NIC restored; new connections ride {} again ---", {
        let qp2_c = client.create_qp(&cq_c, &cq_c, 8, 8).unwrap();
        let qp2_s = server.create_qp(&cq_s, &cq_s, 8, 8).unwrap();
        qp2_c.connect(qp2_s.endpoint()).unwrap();
        qp2_s.connect(qp2_c.endpoint()).unwrap();
        transport_of(&qp2_c)
    });
    assert_eq!(qp_c.failover_count(), 1);
}

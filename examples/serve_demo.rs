//! Out-of-process ingestion, end to end, in one process.
//!
//! A producer thread samples a workload and streams `regmon-wire-v2`
//! frames over one half of a unix socket pair; the server ingests the
//! other half through the fleet engine, drains, and reports. The demo
//! closes by verifying the served summary is byte-identical to running
//! the same session in-process — the serve mode's core guarantee.
//!
//! Run with: `cargo run --example serve_demo`

#[cfg(unix)]
fn main() {
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    use regmon::{MonitoringSession, SessionConfig};
    use regmon_sampling::Sampler;
    use regmon_serve::journal::JournalWriter;
    use regmon_serve::server::{ServeOptions, Server};
    use regmon_serve::wire::AdmitFrame;
    use regmon_workload::suite;

    const WORKLOAD: &str = "172.mgrid";
    const INTERVALS: usize = 40;

    let config = SessionConfig::new(45_000);
    let (producer_side, server_side) = UnixStream::pair().expect("socketpair");

    let server = Arc::new(Server::new(ServeOptions {
        shards: 2,
        queue_depth: 64,
        expect_sessions: 1,
        ..ServeOptions::default()
    }));
    let ingest = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.handle(server_side))
    };

    // The producer: admit one tenant, stream every sampled interval as
    // one Batch frame, finish, and close the socket.
    let workload = suite::by_name(WORKLOAD).expect("suite workload");
    let mut journal = JournalWriter::new(producer_side).expect("hello frame");
    journal
        .admit(AdmitFrame {
            tenant: 0,
            name: format!("{WORKLOAD}@wire"),
            workload: WORKLOAD.to_string(),
            config: config.clone(),
            max_intervals: INTERVALS as u64,
        })
        .expect("admit frame");
    for interval in Sampler::new(&workload, config.sampling).take(INTERVALS) {
        journal.batch(0, vec![interval]).expect("batch frame");
    }
    journal.finish(0).expect("finish frame");
    drop(journal.into_inner().expect("flush")); // EOF for the server

    ingest
        .join()
        .expect("ingest thread")
        .expect("clean wire stream");
    let report = server.finish();

    println!(
        "served {} session(s) over {} connection(s): {} frames, {} bytes",
        report.sessions.len(),
        report.connections,
        report.frames,
        report.bytes
    );
    let served = report.sessions[0]
        .summary
        .as_ref()
        .expect("session summary");
    println!(
        "  {}: {} intervals, {} regions formed, GPD {} phase changes, \
         UCR median {:.3}",
        report.sessions[0].name,
        served.intervals,
        served.regions_formed,
        served.gpd.phase_changes,
        served.ucr_median
    );

    // The guarantee: wire transport changed nothing.
    let direct = MonitoringSession::run_limited(&workload, &config, INTERVALS);
    assert_eq!(
        format!("{served:?}"),
        format!("{direct:?}"),
        "served summary diverged from the in-process run"
    );
    println!("byte-identical to the in-process run ✓");
}

#[cfg(not(unix))]
fn main() {
    println!("serve_demo needs unix socket pairs; use `regmon serve --tcp` instead");
}

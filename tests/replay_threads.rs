//! Failing replays join their shard thread.
//!
//! A replay runs on a one-shard in-process server, and the fleet
//! engine under it has no `Drop`: a replay that failed without
//! finishing its server would leave the shard thread parked for the
//! life of the process. This binary holds a single test, so the thread
//! count it reads is its own.

#[cfg(target_os = "linux")]
#[test]
fn failing_replays_leave_no_thread_behind() {
    use regmon::SessionConfig;
    use regmon_sampling::Sampler;
    use regmon_serve::journal::JournalWriter;
    use regmon_serve::replay::{replay_stream, ReplayOptions};
    use regmon_serve::wire::AdmitFrame;
    use regmon_workload::suite;

    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let config = SessionConfig::new(45_000);
    let w = suite::by_name("172.mgrid").unwrap();
    let mut journal = JournalWriter::new(Vec::new()).unwrap();
    journal
        .admit(AdmitFrame {
            tenant: 0,
            name: "mgrid".into(),
            workload: "172.mgrid".into(),
            config: config.clone(),
            max_intervals: 6,
        })
        .unwrap();
    let intervals: Vec<_> = Sampler::new(&w, config.sampling).take(6).collect();
    for batch in intervals.chunks(2) {
        journal.batch(0, batch.to_vec()).unwrap();
    }
    journal.finish(0).unwrap();
    let bytes = journal.into_inner().unwrap();

    let before = threads();
    for case in 0..50 {
        // Even cases flip one byte, odd ones cut the stream short; both
        // sweep the journal from its Hello to its Finish.
        let at = case * (bytes.len() - 1) / 49;
        let damaged = if case % 2 == 0 {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            flipped
        } else {
            bytes[..at].to_vec()
        };
        let result = replay_stream(damaged.as_slice(), &ReplayOptions::default());
        assert!(result.is_err(), "case {case} (byte {at}) replayed");
    }
    assert_eq!(threads(), before, "a failed replay left a thread behind");
}

//! Emits the fleet supporting-rows matrix as JSON.
//!
//! These rows time single layers of the ingest path in isolation; the
//! end-to-end number (wire bytes in, per-tenant verdicts out) is
//! `pipebench`'s, and `scripts/bench_guard.sh` gates on that one. Each
//! row says what it times:
//!
//! * `ring` cells — the shard queue transport alone: `RingQueue` with
//!   waiter-gated notifications and `--batch N` interval coalescing
//!   (one message per N intervals of one tenant, like the driver's
//!   shipping policy). The consumers only checksum the arriving
//!   intervals, so session compute is excluded.
//! * `wire2` cells — the same transport fed by the `regmon serve` codec:
//!   pre-encoded wire-v2 Batch frames are CRC-checked and decoded on the
//!   producer side (as a connection would) before the decoded intervals
//!   travel through the same `RingQueue`s.
//! * `serve_scaling` — a live unix-socket server (decode, transport and
//!   session compute) under idle connection fan-in.
//! * `cpd_m_points_per_sec` — the `--cpd` change-point hub fed one UCR
//!   point per tenant per round.
//!
//! Usage: `fleet_matrix [OUTPUT.json]` (default `BENCH_fleet.json` in
//! the current directory). The `headline` object reports the reference
//! cell (64 tenants over 8 shards, batch 32). `QUICK_BENCH=1` shrinks
//! reps for CI smoke runs.

use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use regmon_binary::Addr;
use regmon_cpd::{CpdHub, Metric, SeriesKey, StreamConfig, NO_REGION};
use regmon_fleet::{Droppable, QueuePolicy, RingQueue};
use regmon_sampling::{Interval, PcSample};
use regmon_serve::wire::{read_frame, Frame};

/// Samples per synthetic interval payload (the payload travels by move,
/// so this sets consumer accounting work, not copy volume).
const PAYLOAD_PCS: usize = 64;
const TENANT_COUNTS: [usize; 2] = [16, 64];
const SHARD_COUNTS: [usize; 2] = [2, 8];
const BATCHES: [usize; 3] = [1, 8, 32];
const QUEUE_DEPTH: usize = 64;
const HEADLINE_TENANTS: usize = 64;
const HEADLINE_SHARDS: usize = 8;
const HEADLINE_BATCH: usize = 32;

/// The document's `note`: what each kind of row times.
const NOTE: &str = "supporting rows, median million intervals/sec; the end-to-end number is \
                    pipebench's. ring = RingQueue transport with per-tenant interval batching, \
                    consumers only checksum; wire2 = wire-v2 Batch frame CRC-check + decode on \
                    the producer side feeding the same ring queues; serve_scaling = a live \
                    unix-socket server (decode + transport + session compute) under idle \
                    connection fan-in; cpd = the --cpd change-point hub fed one UCR point per \
                    tenant per round (million points/sec)";

/// The message shape of the fleet ingest path, minus session state.
enum Msg {
    /// One tenant interval (tenant tag, PC payload).
    Interval(u32, Vec<u64>),
    /// A coalesced chunk of one tenant's intervals.
    Batch(u32, Vec<Vec<u64>>),
    /// Intervals decoded from a wire Batch frame.
    Wire(u32, Vec<Interval>),
}

impl Droppable for Msg {
    fn droppable(&self) -> bool {
        true
    }

    fn units(&self) -> Option<usize> {
        match self {
            Msg::Interval(..) => Some(1),
            Msg::Batch(_, chunk) => Some(chunk.len()),
            Msg::Wire(_, intervals) => Some(intervals.len()),
        }
    }
}

fn payload(tenant: u32, seq: usize) -> Vec<u64> {
    let seed = u64::from(tenant)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq as u64);
    (0..PAYLOAD_PCS as u64)
        .map(|k| seed.wrapping_add(k * 4))
        .collect()
}

/// Wrapping checksum over a payload: the samples are full-range `u64`s,
/// so a plain `sum::<u64>()` overflows (and aborts debug builds —
/// consumer panics would deadlock the blocked producer).
fn checksum(pcs: &[u64]) -> u64 {
    pcs.iter().fold(0u64, |acc, &pc| acc.wrapping_add(pc))
}

/// Consumer-side accounting shared by every cell: touch every
/// interval in the message and count it.
fn account(msg: &Msg) -> usize {
    match msg {
        Msg::Interval(tag, pcs) => {
            black_box((*tag, checksum(pcs)));
            1
        }
        Msg::Batch(tag, chunk) => {
            for pcs in chunk {
                black_box((*tag, checksum(pcs)));
            }
            chunk.len()
        }
        Msg::Wire(tag, intervals) => {
            for interval in intervals {
                let sum = interval
                    .samples
                    .iter()
                    .fold(0u64, |acc, s| acc.wrapping_add(s.addr.get()));
                black_box((*tag, sum));
            }
            intervals.len()
        }
    }
}

/// One cell of the ingest matrix: fleet shape + batching factor.
#[derive(Clone, Copy)]
struct Shape {
    tenants: usize,
    shards: usize,
    batch: usize,
    per_tenant: usize,
}

/// Spawns one sink consumer per shard queue, times `produce` filling
/// the queues, closes them and waits until the consumers have accounted
/// every interval of `shape`. Returns elapsed seconds.
fn run_transport(shape: Shape, produce: impl FnOnce(&[Arc<RingQueue<Msg>>])) -> f64 {
    let queues: Vec<Arc<RingQueue<Msg>>> = (0..shape.shards)
        .map(|_| Arc::new(RingQueue::new(QUEUE_DEPTH)))
        .collect();
    let consumers: Vec<thread::JoinHandle<usize>> = queues
        .iter()
        .map(|q| {
            let q = Arc::clone(q);
            thread::spawn(move || {
                let mut seen = 0usize;
                while let Some(msg) = q.pop() {
                    seen += account(&msg);
                }
                seen
            })
        })
        .collect();

    let start = Instant::now();
    produce(&queues);
    for q in &queues {
        q.close();
    }
    let seen: usize = consumers
        .into_iter()
        .map(|c| c.join().expect("consumer panicked"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        seen,
        shape.tenants * shape.per_tenant,
        "transport lost intervals"
    );
    elapsed
}

/// Ships `per_tenant` intervals for each of `tenants` tenants through
/// `shards` ring queues (tenant `t` homes on shard `t % shards`,
/// coalesced in per-tenant chunks of `batch` like the driver). Returns
/// elapsed seconds.
fn run_ring(shape: Shape) -> f64 {
    run_transport(shape, |queues| {
        let rounds = shape.per_tenant.div_ceil(shape.batch);
        for round in 0..rounds {
            for t in 0..shape.tenants {
                let produced = round * shape.batch;
                let want = shape.batch.min(shape.per_tenant - produced);
                if want == 0 {
                    continue;
                }
                let tag = u32::try_from(t).expect("tenant tag");
                let msg = if want == 1 {
                    Msg::Interval(tag, payload(tag, produced))
                } else {
                    Msg::Batch(tag, (0..want).map(|k| payload(tag, produced + k)).collect())
                };
                queues[t % shape.shards]
                    .push(msg, QueuePolicy::Block)
                    .expect("queue open");
            }
        }
    })
}

/// One synthetic interval for the wire cells: the same PC payload as
/// the `ring` cells, carried as real `PcSample`s.
fn wire_interval(tenant: u32, seq: usize) -> Interval {
    let base = seq as u64 * PAYLOAD_PCS as u64;
    Interval {
        index: seq,
        start_cycle: base,
        end_cycle: base + PAYLOAD_PCS as u64,
        samples: payload(tenant, seq)
            .into_iter()
            .enumerate()
            .map(|(k, pc)| PcSample {
                addr: Addr::new(pc),
                cycle: base + k as u64,
            })
            .collect(),
    }
}

/// Pre-encodes the cell's whole production schedule as wire-v2 frames,
/// in the exact (round, tenant) order `run_ring`
/// ships: one Batch frame per message, tagged with its destination
/// shard. Encoding is producer work and stays outside the timed region;
/// decoding is what the serve ingest path pays per message and is timed
/// in [`run_wire`].
fn encode_wire_frames(shape: Shape) -> Vec<(usize, Vec<u8>)> {
    let mut frames = Vec::new();
    let rounds = shape.per_tenant.div_ceil(shape.batch);
    for round in 0..rounds {
        for t in 0..shape.tenants {
            let produced = round * shape.batch;
            let want = shape.batch.min(shape.per_tenant - produced);
            if want == 0 {
                continue;
            }
            let tag = u32::try_from(t).expect("tenant tag");
            let frame = Frame::Batch {
                tenant: tag,
                intervals: (0..want)
                    .map(|k| wire_interval(tag, produced + k))
                    .collect(),
            };
            frames.push((t % shape.shards, frame.encode()));
        }
    }
    frames
}

/// The serve ingest path: CRC-check + decode each pre-encoded frame
/// (connection work) and ship the decoded intervals through the ring
/// queues. Returns elapsed seconds.
fn run_wire(shape: Shape, frames: &[(usize, Vec<u8>)]) -> f64 {
    run_transport(shape, |queues| {
        for (shard, bytes) in frames {
            let frame = read_frame(&mut bytes.as_slice())
                .expect("pre-encoded frame decodes")
                .expect("one frame per message");
            let Frame::Batch { tenant, intervals } = frame else {
                unreachable!("only Batch frames are encoded")
            };
            queues[*shard]
                .push(Msg::Wire(tenant, intervals), QueuePolicy::Block)
                .expect("queue open");
        }
    })
}

/// Pre-encoded single-session wire streams (Hello + Admit + batch-32
/// frames + Finish) for the connection-scaling rows. Producers write
/// the whole stream before reading the `Hello` answer, so the rows time
/// the serve loop's connection handling, not a `Hello` round-trip.
#[cfg(unix)]
fn encode_session_streams(active: usize, per_conn: usize) -> Vec<Vec<u8>> {
    use regmon_serve::wire::AdmitFrame;
    let w = regmon_workload::suite::by_name("172.mgrid").expect("bundled workload");
    let config = regmon::SessionConfig::new(45_000);
    let intervals: Vec<Interval> = regmon_sampling::Sampler::new(&w, config.sampling)
        .take(per_conn)
        .collect();
    (0..active)
        .map(|t| {
            let mut bytes = Frame::hello().encode();
            bytes.extend(
                Frame::Admit(Box::new(AdmitFrame {
                    tenant: 0,
                    name: format!("172.mgrid#{t}"),
                    workload: "172.mgrid".to_string(),
                    config: config.clone(),
                    max_intervals: per_conn as u64,
                }))
                .encode(),
            );
            for chunk in intervals.chunks(HEADLINE_BATCH) {
                bytes.extend(
                    Frame::Batch {
                        tenant: 0,
                        intervals: chunk.to_vec(),
                    }
                    .encode(),
                );
            }
            bytes.extend(Frame::Finish { tenant: 0 }.encode());
            bytes
        })
        .collect()
}

/// Connects with retries: under the 256-connection fan-in the listen
/// backlog (128 on Linux) can fill faster than the accept loop drains
/// it, and a bounced connect is congestion, not failure.
#[cfg(unix)]
fn connect_retry(sock: &std::path::Path) -> std::os::unix::net::UnixStream {
    for _ in 0..500 {
        match std::os::unix::net::UnixStream::connect(sock) {
            Ok(stream) => return stream,
            Err(_) => thread::sleep(std::time::Duration::from_millis(2)),
        }
    }
    panic!("could not connect to {}", sock.display());
}

/// Drives one live serve run: `idle` connections that never send a
/// byte plus one active producer per stream, against a unix-socket
/// server with 4 event-loop workers. Returns elapsed seconds.
#[cfg(unix)]
fn run_connection_scaling(idle: usize, streams: &[Vec<u8>]) -> f64 {
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::UnixStream;
    let sock = std::env::temp_dir().join(format!("regmon-fleet-scale-{}.sock", std::process::id()));
    let options = regmon_serve::ServeOptions {
        shards: HEADLINE_SHARDS,
        queue_depth: QUEUE_DEPTH,
        expect_sessions: streams.len(),
        event_workers: 4,
        ..Default::default()
    };
    let server = {
        let sock = sock.clone();
        thread::spawn(move || regmon_serve::serve_unix(&sock, options).expect("serve run"))
    };
    for _ in 0..2000 {
        if sock.exists() {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(2));
    }
    let idles: Vec<UnixStream> = (0..idle).map(|_| connect_retry(&sock)).collect();
    let start = Instant::now();
    let senders: Vec<thread::JoinHandle<()>> = streams
        .iter()
        .map(|bytes| {
            let bytes = bytes.clone();
            let sock = sock.clone();
            thread::spawn(move || {
                // Write everything, half-close, then read the replies
                // to EOF: the Hello answer waits in the socket buffer,
                // and the server closes once it has read the stream.
                let mut stream = connect_retry(&sock);
                stream.write_all(&bytes).expect("stream session");
                stream
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close session");
                let mut replies = Vec::new();
                stream.read_to_end(&mut replies).expect("read replies");
            })
        })
        .collect();
    for sender in senders {
        sender.join().expect("sender panicked");
    }
    // Idle connections must reach EOF before the serve loop can drain.
    drop(idles);
    let report = server.join().expect("serve thread panicked");
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        report.errors.is_empty(),
        "serve errors: {:?}",
        report.errors
    );
    assert_eq!(report.sessions.len(), streams.len(), "sessions lost");
    elapsed
}

/// One timed pass of the fleet's change-point hub: the exact shape the
/// `--cpd` driver feeds it — one UCR point per tenant per round, with a
/// step regression planted in every eighth tenant halfway through so
/// the detection scans (the expensive path: windowed E-divisive with a
/// permutation test every `detect_every` points) actually fire and
/// find something. A deterministic sub-1% wobble keeps the flat series
/// from being degenerate constants. Returns elapsed seconds.
fn run_cpd(tenants: usize, rounds: usize) -> f64 {
    let mut hub = CpdHub::new(StreamConfig::default());
    let start = Instant::now();
    for round in 0..rounds {
        for t in 0..tenants {
            let key = SeriesKey {
                tenant: t as u64,
                region: NO_REGION,
                metric: Metric::Ucr,
            };
            let base = if t % 8 == 3 && round >= rounds / 2 {
                0.9
            } else {
                0.1
            };
            let h = (round as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(t as u64)
                .wrapping_mul(0xD1B5_4A32_D192_ED03);
            let wobble = (h >> 40) as f64 / (1u64 << 24) as f64 * 0.005;
            hub.observe(key, round as u64, base + wobble);
        }
    }
    hub.flush();
    black_box(hub.take_detections());
    start.elapsed().as_secs_f64()
}

/// Median throughput in million intervals per second over `reps` runs
/// of `run` (which returns its elapsed seconds), after one warmup.
fn median_mips(total_intervals: usize, reps: usize, run: impl FnMut() -> f64) -> f64 {
    total_intervals as f64 / regmon_bench::median_secs(1, reps, run) / 1.0e6
}

struct Cell {
    transport: &'static str,
    batch: usize,
    tenants: usize,
    shards: usize,
    mips: f64,
}

fn fmt_cell(c: &Cell) -> String {
    format!(
        "    {{\"transport\": \"{}\", \"batch\": {}, \"tenants\": {}, \"shards\": {}, \
         \"m_intervals_per_sec\": {:.3}}}",
        c.transport, c.batch, c.tenants, c.shards, c.mips
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let quick = std::env::var_os("QUICK_BENCH").is_some();
    let (reps, per_tenant) = if quick { (3, 120) } else { (11, 600) };

    let mut cells: Vec<Cell> = Vec::new();
    for &tenants in &TENANT_COUNTS {
        for &shards in &SHARD_COUNTS {
            let total = tenants * per_tenant;
            for &batch in &BATCHES {
                let shape = Shape {
                    tenants,
                    shards,
                    batch,
                    per_tenant,
                };
                let mips = median_mips(total, reps, || run_ring(shape));
                cells.push(Cell {
                    transport: "ring",
                    batch,
                    tenants,
                    shards,
                    mips,
                });
                let frames = encode_wire_frames(shape);
                let mips = median_mips(total, reps, || run_wire(shape, &frames));
                cells.push(Cell {
                    transport: "wire2",
                    batch,
                    tenants,
                    shards,
                    mips,
                });
            }
        }
    }

    let pick = |transport: &str| -> f64 {
        cells
            .iter()
            .find(|c| {
                c.transport == transport
                    && c.batch == HEADLINE_BATCH
                    && c.tenants == HEADLINE_TENANTS
                    && c.shards == HEADLINE_SHARDS
            })
            .expect("headline cell measured")
            .mips
    };
    let ring_mips = pick("ring");
    let wire2_mips = pick("wire2");

    // Change-point detection throughput: the `--cpd` hub at the
    // headline tenant count, in points (observations) per second.
    let cpd_rounds = per_tenant;
    let cpd_total = HEADLINE_TENANTS * cpd_rounds;
    let cpd_mpps = median_mips(cpd_total, reps, || run_cpd(HEADLINE_TENANTS, cpd_rounds));

    // Connection scaling: a live `regmon serve` over a unix socket,
    // many mostly-idle connections plus a core of active producers,
    // multiplexed by 4 event-loop workers. This row times the whole
    // server (wire decode + ring transport + session compute), so its
    // absolute rate sits far below the transport-only cells.
    #[cfg(unix)]
    let scaling_rows: Vec<String> = {
        let (idle, active, per_conn) = if quick { (32, 8, 20) } else { (256, 64, 60) };
        let streams = encode_session_streams(active, per_conn);
        let scale_total = active * per_conn;
        let scale_reps = if quick { 1 } else { 3 };
        let mips = median_mips(scale_total, scale_reps, || {
            run_connection_scaling(idle, &streams)
        });
        vec![format!(
            "    {{\"mode\": \"events\", \"idle_connections\": {idle}, \
             \"active_connections\": {active}, \"intervals_per_connection\": {per_conn}, \
             \"m_intervals_per_sec\": {mips:.3}}}"
        )]
    };
    #[cfg(not(unix))]
    let scaling_rows: Vec<String> = Vec::new();

    let f3 = |v: f64| format!("{v:.3}");
    let headline = [
        ("tenants", HEADLINE_TENANTS.to_string()),
        ("shards", HEADLINE_SHARDS.to_string()),
        ("batch", HEADLINE_BATCH.to_string()),
        ("ring_batch_m_intervals_per_sec", f3(ring_mips)),
        ("wire_v2_m_intervals_per_sec", f3(wire2_mips)),
        ("cpd_m_points_per_sec", f3(cpd_mpps)),
    ];
    let rendered: Vec<String> = cells.iter().map(fmt_cell).collect();
    let json = format!(
        "{{\n  \"schema\": \"regmon-fleet-matrix-v1\",\n  \"reps\": {reps},\n  \
         \"intervals_per_tenant\": {per_tenant},\n  \"note\": \"{NOTE}\",\n  \
         \"headline\": {{\n{}\n  }},\n  \
         \"serve_scaling\": [\n{}\n  ],\n  \"cells\": [\n{}\n  ]\n}}\n",
        regmon_bench::json_members(&headline),
        scaling_rows.join(",\n"),
        rendered.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write matrix json");
    eprintln!(
        "fleet matrix: {} cells -> {out_path} (at {HEADLINE_TENANTS} tenants / \
         {HEADLINE_SHARDS} shards, batch {HEADLINE_BATCH}: ring {ring_mips:.2}, wire-v2 \
         {wire2_mips:.2} M intervals/s; cpd hub {cpd_mpps:.3} M points/s)",
        cells.len(),
    );
}

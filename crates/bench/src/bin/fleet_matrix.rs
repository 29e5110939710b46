//! Emits the fleet ingestion-transport benchmark matrix as JSON.
//!
//! Measures the queue transport of the fleet ingest path in isolation —
//! the cost of moving interval payloads from the producing driver to
//! the shard workers — at several tenant/shard scales. Session compute
//! (attribution, detection) is benchmarked separately
//! (`BENCH_attribution.json`, `benches/detectors.rs`); here the
//! consumers only account for the arriving intervals, so the numbers
//! expose the synchronisation and message overhead that PR 3's fast
//! path attacks. Two transports are timed:
//!
//! * `legacy` — the seed's shard queue, reconstructed exactly: a
//!   `Mutex<VecDeque>` bounded queue that issues an **unconditional**
//!   condvar notification on every push *and* every pop, carrying one
//!   interval per message. This is the baseline the ISSUE's ≥3×
//!   acceptance criterion is measured against.
//! * `ring` — today's `RingQueue`: fixed-capacity ring storage,
//!   waiter-gated notifications (uncontended pushes are syscall-free)
//!   and `--batch N` interval coalescing (one message per N intervals
//!   of one tenant, exactly like the driver's shipping policy).
//! * `wire` — the `regmon serve` ingest path: pre-encoded
//!   `regmon-wire-v1` Batch frames are CRC-checked and decoded on the
//!   producer side (as a connection thread would) and the decoded
//!   intervals travel through the same `RingQueue`s. The delta against
//!   `ring` is the out-of-process wire-codec tax.
//!
//! Usage: `fleet_matrix [OUTPUT.json]` (default `BENCH_fleet.json` in
//! the current directory). The `headline` object compares the legacy
//! per-interval transport against ring/batch-32 at the reference cell
//! (64 tenants over 8 shards) and is what CI's regression guard reads.
//! `QUICK_BENCH=1` (or the criterion-shim's `--smoke`) shrinks reps for
//! CI smoke runs.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use regmon_binary::Addr;
use regmon_cpd::{CpdHub, Metric, SeriesKey, StreamConfig, NO_REGION};
use regmon_fleet::{Droppable, QueuePolicy, RingQueue};
use regmon_sampling::{Interval, PcSample};
use regmon_serve::wire::{read_frame, Frame, WireDialect};
use regmon_stats::{simd, SimdLevel};

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

/// The message shape of the fleet ingest path, minus session state.
enum Msg {
    /// One tenant interval (tenant tag, PC payload).
    Interval(u32, Vec<u64>),
    /// A coalesced chunk of one tenant's intervals.
    Batch(u32, Vec<Vec<u64>>),
    /// Intervals decoded from a `regmon-wire-v1` Batch frame.
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

/// Consumer-side accounting shared by both transports: touch every
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

// ---------------------------------------------------------------------------
// The seed's transport: Mutex<VecDeque> + unconditional notifications
// ---------------------------------------------------------------------------

struct LegacyInner {
    buf: VecDeque<Msg>,
    closed: bool,
}

/// The pre-PR-3 shard queue, byte-for-byte in behaviour: every push and
/// every pop hits a condvar `notify_one` whether or not anyone waits.
struct LegacyQueue {
    inner: Mutex<LegacyInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl LegacyQueue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LegacyInner {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn push(&self, msg: Msg) {
        let mut inner = self.inner.lock().expect("legacy queue poisoned");
        while inner.buf.len() >= self.capacity {
            inner = self.not_full.wait(inner).expect("legacy queue poisoned");
        }
        inner.buf.push_back(msg);
        drop(inner);
        self.not_empty.notify_one(); // unconditional: the herding cost
    }

    fn pop(&self) -> Option<Msg> {
        let mut inner = self.inner.lock().expect("legacy queue poisoned");
        loop {
            if let Some(msg) = inner.buf.pop_front() {
                drop(inner);
                self.not_full.notify_one(); // unconditional
                return Some(msg);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("legacy queue poisoned");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("legacy queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

// ---------------------------------------------------------------------------
// One timed ingest run
// ---------------------------------------------------------------------------

/// One cell of the ingest matrix: fleet shape + batching factor.
#[derive(Clone, Copy)]
struct Shape {
    tenants: usize,
    shards: usize,
    batch: usize,
    per_tenant: usize,
}

/// Ships `per_tenant` intervals for each of `tenants` tenants through
/// `shards` queues (tenant `t` homes on shard `t % shards`, coalesced
/// in per-tenant chunks of `batch` like the driver) and waits for the
/// sink consumers to account every interval. Returns elapsed seconds.
fn run_ingest<Q, Push, Pop, Close>(
    shape: Shape,
    queues: Vec<Arc<Q>>,
    push: Push,
    pop: Pop,
    close: Close,
) -> f64
where
    Q: Send + Sync + 'static,
    Push: Fn(&Q, Msg),
    Pop: Fn(&Q) -> Option<Msg> + Send + Copy + 'static,
    Close: Fn(&Q),
{
    let consumers: Vec<thread::JoinHandle<usize>> = queues
        .iter()
        .map(|q| {
            let q = Arc::clone(q);
            thread::spawn(move || {
                let mut seen = 0usize;
                while let Some(msg) = pop(&q) {
                    seen += account(&msg);
                }
                seen
            })
        })
        .collect();

    let start = Instant::now();
    let rounds = shape.per_tenant.div_ceil(shape.batch);
    for round in 0..rounds {
        for t in 0..shape.tenants {
            let shard = t % shape.shards;
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
            push(&queues[shard], msg);
        }
    }
    for q in &queues {
        close(q);
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

fn run_legacy(shape: Shape) -> f64 {
    let queues: Vec<Arc<LegacyQueue>> = (0..shape.shards)
        .map(|_| Arc::new(LegacyQueue::new(QUEUE_DEPTH)))
        .collect();
    run_ingest(
        Shape { batch: 1, ..shape },
        queues,
        LegacyQueue::push,
        LegacyQueue::pop,
        LegacyQueue::close,
    )
}

fn run_ring(shape: Shape) -> f64 {
    let queues: Vec<Arc<RingQueue<Msg>>> = (0..shape.shards)
        .map(|_| Arc::new(RingQueue::new(QUEUE_DEPTH)))
        .collect();
    run_ingest(
        shape,
        queues,
        |q, msg| q.push(msg, QueuePolicy::Block).expect("queue open"),
        RingQueue::pop,
        RingQueue::close,
    )
}

/// One synthetic interval for the wire transport: the same PC payload
/// as the in-memory transports, carried as real `PcSample`s.
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

/// Pre-encodes the cell's whole production schedule as wire frames in
/// the given dialect, in the exact (round, tenant) order `run_ingest`
/// ships: one Batch frame per message, tagged with its destination
/// shard. Encoding is producer work and stays outside the timed region;
/// decoding is what the serve ingest path pays per message and is timed
/// in [`run_wire`].
fn encode_wire_frames(shape: Shape, dialect: WireDialect) -> Vec<(usize, Vec<u8>)> {
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
            frames.push((t % shape.shards, dialect.encode_frame(&frame)));
        }
    }
    frames
}

/// The serve ingest path: CRC-check + decode each pre-encoded frame
/// (connection-thread work) and ship the decoded intervals through the
/// ring queues. Returns elapsed seconds.
fn run_wire(shape: Shape, frames: &[(usize, Vec<u8>)]) -> f64 {
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
        "wire transport lost intervals"
    );
    elapsed
}

// ---------------------------------------------------------------------------
// Connection scaling: the live serve loop under idle fan-in
// ---------------------------------------------------------------------------

/// Pre-encoded single-session wire-v1 streams (Hello + Admit +
/// batch-32 frames + Finish) for the connection-scaling rows. v1 is
/// deliberate: v1 producers are one-way (no Hello reply to wait for),
/// so the rows time the serve loop's connection handling, not the
/// codec or the `Hello` round-trip.
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
            let mut bytes = Frame::Hello { version: 1 }.encode();
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
                bytes.extend(WireDialect::V1.encode_frame(&Frame::Batch {
                    tenant: 0,
                    intervals: chunk.to_vec(),
                }));
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
    use std::io::Write as _;
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
                let mut stream = connect_retry(&sock);
                stream.write_all(&bytes).expect("stream session");
                stream.flush().expect("flush session");
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

// ---------------------------------------------------------------------------
// The seed's wire codec, reconstructed as the decode baseline
// ---------------------------------------------------------------------------

/// The seed's byte-at-a-time CRC-32 (IEEE) — the loop-carried-dependency
/// form the slice-by-8 kernel in `regmon-serve` replaced. Checksum
/// values are identical; only the throughput differs.
fn legacy_crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        const POLY: u32 = 0xEDB8_8320;
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut state = 0xFFFF_FFFFu32;
    for &b in bytes {
        state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state ^ 0xFFFF_FFFF
}

/// The seed's Batch-frame decode, reconstructed exactly: bytewise CRC
/// over the body plus a per-sample cursor loop (two bounds-checked
/// reads per sample) instead of today's prevalidated bulk copy. This is
/// the baseline the committed `wire_decode_speedup` measures against,
/// the same way `LegacyQueue` anchors the transport rows.
fn legacy_decode_batch(bytes: &[u8]) -> (u32, Vec<Interval>) {
    struct Cur<'a> {
        bytes: &'a [u8],
        pos: usize,
    }
    impl Cur<'_> {
        fn u32(&mut self) -> u32 {
            let v = u32::from_le_bytes(
                self.bytes[self.pos..self.pos + 4]
                    .try_into()
                    .expect("four bytes"),
            );
            self.pos += 4;
            v
        }
        fn u64(&mut self) -> u64 {
            let v = u64::from_le_bytes(
                self.bytes[self.pos..self.pos + 8]
                    .try_into()
                    .expect("eight bytes"),
            );
            self.pos += 8;
            v
        }
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("len")) as usize;
    let want = u32::from_le_bytes(bytes[4..8].try_into().expect("crc"));
    let body = &bytes[8..8 + len];
    assert_eq!(legacy_crc32(body), want, "reconstructed CRC mismatch");
    assert_eq!(body[0], 3, "expected a Batch frame");
    let mut cur = Cur {
        bytes: body,
        pos: 1,
    };
    let tenant = cur.u32();
    let count = cur.u32() as usize;
    let mut intervals = Vec::with_capacity(count);
    for _ in 0..count {
        let index = cur.u64() as usize;
        let start_cycle = cur.u64();
        let end_cycle = cur.u64();
        let nsamples = cur.u32() as usize;
        let mut samples = Vec::with_capacity(nsamples);
        for _ in 0..nsamples {
            samples.push(PcSample {
                addr: Addr::new(cur.u64()),
                cycle: cur.u64(),
            });
        }
        intervals.push(Interval {
            index,
            start_cycle,
            end_cycle,
            samples,
        });
    }
    assert_eq!(cur.pos, body.len(), "trailing bytes in Batch frame");
    (tenant, intervals)
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

/// Median throughput in million intervals per second over `reps` runs.
fn median_mips<F: FnMut() -> f64>(total_intervals: usize, reps: usize, mut run: F) -> f64 {
    run(); // warmup
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| total_intervals as f64 / run() / 1.0e6)
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
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
            let shape = Shape {
                tenants,
                shards,
                batch: 1,
                per_tenant,
            };
            let mips = median_mips(total, reps, || run_legacy(shape));
            cells.push(Cell {
                transport: "legacy",
                batch: 1,
                tenants,
                shards,
                mips,
            });
            for &batch in &BATCHES {
                let shape = Shape { batch, ..shape };
                let mips = median_mips(total, reps, || run_ring(shape));
                cells.push(Cell {
                    transport: "ring",
                    batch,
                    tenants,
                    shards,
                    mips,
                });
            }
            for &batch in &BATCHES {
                let shape = Shape { batch, ..shape };
                let frames = encode_wire_frames(shape, WireDialect::V1);
                let mips = median_mips(total, reps, || run_wire(shape, &frames));
                cells.push(Cell {
                    transport: "wire",
                    batch,
                    tenants,
                    shards,
                    mips,
                });
            }
            for &batch in &BATCHES {
                let shape = Shape { batch, ..shape };
                let frames = encode_wire_frames(shape, WireDialect::v2(false));
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

    // Wire-decode microbench: the serve connection-thread codec in
    // isolation — CRC check, frame parse, and the bulk sample decode of
    // the pre-encoded headline frames — with no queues or consumer
    // threads, so the rows isolate the codec the kernel port targets.
    // The baseline is the seed's codec reconstructed below (bytewise
    // CRC + per-sample cursor decode), and every supported SIMD level
    // of today's codec is timed within the same run (forced via
    // `simd::force`), which keeps the committed speedup meaningful
    // across hosts of different absolute speed. The forced-scalar row
    // shows the bulk-decode restructuring alone; the vector rows add
    // the SIMD copies, which must match it byte-for-byte.
    let decode_shape = Shape {
        tenants: HEADLINE_TENANTS,
        shards: HEADLINE_SHARDS,
        batch: HEADLINE_BATCH,
        per_tenant,
    };
    let decode_frames = encode_wire_frames(decode_shape, WireDialect::V1);
    let decode_total = HEADLINE_TENANTS * per_tenant;
    let decode_all = |frames: &[(usize, Vec<u8>)]| -> f64 {
        let start = Instant::now();
        let mut seen = 0usize;
        for (_, bytes) in frames {
            let frame = read_frame(&mut bytes.as_slice())
                .expect("pre-encoded frame decodes")
                .expect("one frame per message");
            let Frame::Batch { intervals, .. } = frame else {
                unreachable!("only Batch frames are encoded")
            };
            seen += intervals.len();
            black_box(intervals);
        }
        assert_eq!(seen, decode_total, "decode lost intervals");
        start.elapsed().as_secs_f64()
    };
    // The reconstructed seed codec must produce the exact intervals the
    // current decoder does — checked once, outside the timed region.
    {
        let (_, bytes) = &decode_frames[0];
        let (legacy_tenant, legacy_intervals) = legacy_decode_batch(bytes);
        let Frame::Batch { tenant, intervals } = read_frame(&mut bytes.as_slice())
            .expect("pre-encoded frame decodes")
            .expect("one frame per message")
        else {
            unreachable!("only Batch frames are encoded")
        };
        assert_eq!(legacy_tenant, tenant, "legacy codec tenant mismatch");
        assert_eq!(
            legacy_intervals, intervals,
            "legacy codec interval mismatch"
        );
    }
    let decode_legacy_mips = median_mips(decode_total, reps, || {
        let start = Instant::now();
        let mut seen = 0usize;
        for (_, bytes) in &decode_frames {
            let (tenant, intervals) = legacy_decode_batch(bytes);
            seen += intervals.len();
            black_box((tenant, intervals));
        }
        assert_eq!(seen, decode_total, "legacy decode lost intervals");
        start.elapsed().as_secs_f64()
    });
    let level_before = simd::active();
    let mut decode_rows: Vec<(SimdLevel, f64)> = Vec::new();
    for level in SimdLevel::ALL {
        if simd::force(level) != level {
            continue; // level not supported on this host
        }
        let mips = median_mips(decode_total, reps, || decode_all(&decode_frames));
        decode_rows.push((level, mips));
    }
    simd::force(level_before);
    let decode_scalar_mips = decode_rows
        .iter()
        .find(|(level, _)| *level == SimdLevel::Scalar)
        .expect("scalar decode row")
        .1;
    let &(decode_level, decode_simd_mips) = decode_rows.last().expect("decode rows");
    let decode_speedup = decode_simd_mips / decode_legacy_mips;

    let pick = |transport: &str, batch: usize| -> f64 {
        cells
            .iter()
            .find(|c| {
                c.transport == transport
                    && c.batch == batch
                    && c.tenants == HEADLINE_TENANTS
                    && c.shards == HEADLINE_SHARDS
            })
            .expect("headline cell measured")
            .mips
    };
    let legacy_mips = pick("legacy", 1);
    let ring_mips = pick("ring", HEADLINE_BATCH);
    let wire_mips = pick("wire", HEADLINE_BATCH);
    let wire2_mips = pick("wire2", HEADLINE_BATCH);
    let speedup = ring_mips / legacy_mips;
    // Wire-v2 vs wire-v1 at the headline cell, within-run: the ratio
    // the regression guard gates. The delta-encoded columnar frames
    // carry ~2 bytes/sample instead of 16, so both the slice-by-8 CRC
    // and the bulk column decode sweep far fewer bytes per interval.
    let wire_v2_speedup = wire2_mips / wire_mips;
    // LZ-wrapped v2 at the same cell — informational only: compression
    // trades decode throughput for wire bytes, so it carries no floor.
    let wire2z_frames = encode_wire_frames(decode_shape, WireDialect::v2(true));
    let wire2z_mips = median_mips(decode_total, reps, || {
        run_wire(decode_shape, &wire2z_frames)
    });
    drop(wire2z_frames);

    // Telemetry overhead on the headline cell: the ring transport with
    // the metric registry disabled (one relaxed-atomic branch per hook)
    // vs enabled (live counters + batch histogram + journal). Off/on
    // reps run as interleaved pairs so both legs of a pair see the same
    // host conditions, and each pair yields its own overhead estimate
    // (off rate vs on rate, negative noise clamped to zero). The guard
    // gates the **minimum** across pairs: scheduler interference on a
    // shared host only ever slows one leg down, inflating that pair's
    // estimate, so the minimum is the low-variance reading of what the
    // hooks actually cost, while the median is recorded alongside as
    // the honest typical-weather figure. A real hook regression (an
    // accidental lock or syscall on the hot path) inflates *every*
    // pair, minimum included.
    // The estimator ignores QUICK_BENCH sizing: it measures one shape,
    // so full-length runs and a fixed pair budget cost well under a
    // second, while quick-mode runs are too short (~1 ms on a small
    // host) to resolve a few-percent-budget gate above scheduler
    // jitter.
    let estimator_per_tenant = 600;
    let headline_shape = Shape {
        tenants: HEADLINE_TENANTS,
        shards: HEADLINE_SHARDS,
        batch: HEADLINE_BATCH,
        per_tenant: estimator_per_tenant,
    };
    let headline_total = HEADLINE_TENANTS * estimator_per_tenant;
    run_ring(headline_shape); // warmup (disabled path)
    regmon_telemetry::set_enabled(true);
    run_ring(headline_shape); // warmup (stripe + journal thread-locals)
    regmon_telemetry::set_enabled(false);
    let pairs = 25;
    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    let mut overheads = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        // Alternate which side goes first so within-pair ordering
        // effects (warmed allocator, scheduler state left by the
        // previous run's threads) cancel across the series.
        let on_first = pair % 2 == 1;
        let mut rate_off = 0.0f64;
        let mut rate_on = 0.0f64;
        for leg in 0..2 {
            let enabled = (leg == 0) == on_first;
            regmon_telemetry::set_enabled(enabled);
            let rate = headline_total as f64 / run_ring(headline_shape) / 1.0e6;
            if enabled {
                rate_on = rate;
                best_on = best_on.max(rate);
            } else {
                rate_off = rate;
                best_off = best_off.max(rate);
            }
        }
        regmon_telemetry::set_enabled(false);
        overheads.push(((rate_off / rate_on - 1.0) * 100.0).max(0.0));
    }
    regmon_telemetry::reset();
    overheads.sort_by(f64::total_cmp);
    let telemetry_off = best_off;
    let telemetry_on = best_on;
    let telemetry_overhead_min_pct = overheads[0];
    let telemetry_overhead_median_pct = overheads[overheads.len() / 2];

    // Change-point detection throughput: the `--cpd` hub at the
    // headline tenant count, measured in points (observations) per
    // second. The guarded figure is what bounds how many telemetry
    // series a fleet can watch per round before detection becomes the
    // bottleneck rather than ingest.
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
        run_connection_scaling(idle, &streams); // warmup
        let mut rates: Vec<f64> = (0..scale_reps)
            .map(|_| scale_total as f64 / run_connection_scaling(idle, &streams) / 1.0e6)
            .collect();
        rates.sort_by(f64::total_cmp);
        let mips = rates[rates.len() / 2];
        vec![format!(
            "    {{\"mode\": \"events\", \"idle_connections\": {idle}, \
             \"active_connections\": {active}, \"intervals_per_connection\": {per_conn}, \
             \"m_intervals_per_sec\": {mips:.3}}}"
        )]
    };
    #[cfg(not(unix))]
    let scaling_rows: Vec<String> = Vec::new();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"regmon-fleet-matrix-v1\",\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"intervals_per_tenant\": {per_tenant},\n"));
    json.push_str(
        "  \"note\": \"median million intervals/sec through the shard ingest transport; \
         legacy = Mutex<VecDeque> + unconditional notify, one interval per message \
         (the seed's shard queue); ring = RingQueue with waiter-gated notifies and \
         per-tenant interval batching (PR 3 fast path); wire = regmon-wire-v1 frame \
         CRC-check + decode on the producer side feeding the same ring queues \
         (the serve-mode ingest path); wire2 = the same path over delta-encoded \
         columnar wire-v2 Batch frames; serve_scaling = a live unix-socket server \
         (decode + transport + session compute) under idle connection fan-in, \
         served by the poll(2) event loop; cpd = the --cpd change-point hub fed one \
         UCR point per tenant per round (million points/sec)\",\n",
    );
    json.push_str("  \"headline\": {\n");
    json.push_str(&format!("    \"tenants\": {HEADLINE_TENANTS},\n"));
    json.push_str(&format!("    \"shards\": {HEADLINE_SHARDS},\n"));
    json.push_str(&format!("    \"batch\": {HEADLINE_BATCH},\n"));
    json.push_str(&format!(
        "    \"legacy_m_intervals_per_sec\": {legacy_mips:.3},\n"
    ));
    json.push_str(&format!(
        "    \"ring_batch_m_intervals_per_sec\": {ring_mips:.3},\n"
    ));
    json.push_str(&format!(
        "    \"wire_m_intervals_per_sec\": {wire_mips:.3},\n"
    ));
    json.push_str(&format!(
        "    \"wire_v2_m_intervals_per_sec\": {wire2_mips:.3},\n"
    ));
    json.push_str(&format!(
        "    \"wire_v2_compress_m_intervals_per_sec\": {wire2z_mips:.3},\n"
    ));
    json.push_str(&format!("    \"wire_v2_speedup\": {wire_v2_speedup:.2},\n"));
    json.push_str(&format!("    \"speedup\": {speedup:.2},\n"));
    json.push_str(&format!(
        "    \"wire_decode_legacy_m_intervals_per_sec\": {decode_legacy_mips:.3},\n"
    ));
    json.push_str(&format!(
        "    \"wire_decode_scalar_m_intervals_per_sec\": {decode_scalar_mips:.3},\n"
    ));
    json.push_str(&format!(
        "    \"wire_decode_simd_m_intervals_per_sec\": {decode_simd_mips:.3},\n"
    ));
    json.push_str(&format!(
        "    \"wire_decode_simd_level\": \"{}\",\n",
        decode_level.label()
    ));
    json.push_str(&format!(
        "    \"wire_decode_speedup\": {decode_speedup:.2},\n"
    ));
    json.push_str(&format!("    \"cpd_m_points_per_sec\": {cpd_mpps:.3},\n"));
    json.push_str(&format!(
        "    \"telemetry_off_m_intervals_per_sec\": {telemetry_off:.3},\n"
    ));
    json.push_str(&format!(
        "    \"telemetry_on_m_intervals_per_sec\": {telemetry_on:.3},\n"
    ));
    json.push_str(&format!(
        "    \"telemetry_overhead_min_pct\": {telemetry_overhead_min_pct:.2},\n"
    ));
    json.push_str(&format!(
        "    \"telemetry_overhead_median_pct\": {telemetry_overhead_median_pct:.2}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"simd\": [\n");
    let mut decode_rendered = vec![format!(
        "    {{\"kernel\": \"wire_decode_legacy\", \"level\": \"seed\", \
         \"tenants\": {HEADLINE_TENANTS}, \"batch\": {HEADLINE_BATCH}, \
         \"m_intervals_per_sec\": {decode_legacy_mips:.3}}}"
    )];
    decode_rendered.extend(decode_rows.iter().map(|(level, mips)| {
        format!(
            "    {{\"kernel\": \"wire_decode\", \"level\": \"{}\", \
             \"tenants\": {HEADLINE_TENANTS}, \"batch\": {HEADLINE_BATCH}, \
             \"m_intervals_per_sec\": {mips:.3}}}",
            level.label()
        )
    }));
    json.push_str(&decode_rendered.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"serve_scaling\": [\n");
    json.push_str(&scaling_rows.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"cells\": [\n");
    let rendered: Vec<String> = cells.iter().map(fmt_cell).collect();
    json.push_str(&rendered.join(",\n"));
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write matrix json");
    eprintln!(
        "fleet matrix: {} cells -> {out_path} (headline speedup {speedup:.2}x: \
         legacy {legacy_mips:.2} M intervals/s vs ring/batch-{HEADLINE_BATCH} \
         {ring_mips:.2} M intervals/s at {HEADLINE_TENANTS} tenants / {HEADLINE_SHARDS} shards; \
         wire ingest v1 {wire_mips:.2} vs v2 {wire2_mips:.2} M intervals/s \
         ({wire_v2_speedup:.2}x, compressed {wire2z_mips:.2}); \
         wire decode {} vs seed codec {decode_speedup:.2}x \
         ({decode_legacy_mips:.2} -> {decode_simd_mips:.2} M intervals/s, \
         forced-scalar bulk {decode_scalar_mips:.2}); \
         telemetry overhead min {telemetry_overhead_min_pct:.2}% / \
         median {telemetry_overhead_median_pct:.2}% \
         (best {telemetry_off:.2} off vs {telemetry_on:.2} on); \
         cpd hub {cpd_mpps:.3} M points/s)",
        cells.len(),
        decode_level.label()
    );
}

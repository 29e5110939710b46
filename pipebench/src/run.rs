//! One timed repetition of a workload through the system's public entry
//! points, and the loop that repeats it for the measured window.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use regmon_fleet::{run_fleet, FleetConfig, Schedule, TenantSpec};
use regmon_serve::{DurableOptions, ServeOptions, Server};

use crate::sys;
use crate::traffic::{seeded_program, tenant_name, Encoded, Traffic, Workload};

/// Queue depth of the fleet workload (the `regmon fleet` default).
pub const FLEET_QUEUE_DEPTH: usize = 16;

/// What one repetition measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// From the first call into the system until every tenant is
    /// admitted and the first interval can be taken.
    pub setup_s: f64,
    /// From the first byte handed over until the final report exists.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the same window.
    pub cpu_s: f64,
    /// Wall time inside `handle_io` for the measured connection.
    pub feed_s: f64,
    /// Wall time inside `finish`.
    pub drain_s: f64,
    /// Intervals whose verdicts appear in the final report.
    pub verdicts: usize,
    /// Intervals attempted.
    pub attempted: usize,
    /// Attempted intervals whose tenant summary differs from the
    /// reference, plus report errors.
    pub failed: usize,
    /// Growth of the peak RSS over the RSS before the repetition.
    pub peak_rss_bytes: u64,
    /// CPU time the hypervisor took from this machine during the
    /// repetition, in clock ticks.
    pub steal_ticks: u64,
}

/// An in-memory producer connection: reads the pre-encoded bytes and
/// discards the server's replies (the correctness gate reads the
/// report, and a failed `Resume` shows up there as an error).
struct Connection<'a>(&'a [u8]);

impl Read for Connection<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Connection<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Server options of the serve workloads: one shard, so the feeding
/// thread plus the shard worker never exceed two cores.
#[must_use]
pub fn serve_options(tenants: usize, durable: Option<&Path>) -> ServeOptions {
    ServeOptions {
        shards: 1,
        expect_sessions: tenants,
        durable: durable.map(DurableOptions::new),
        drain_deadline: Duration::from_secs(120),
        ..ServeOptions::default()
    }
}

/// A fresh, empty directory for one durable server.
///
/// # Panics
///
/// If the directory cannot be emptied or created.
fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("empty the durable directory");
    }
    std::fs::create_dir_all(dir).expect("create the durable directory");
}

/// One serve repetition: `Server::new` plus the admission connection
/// (set-up), then the measured connection that re-binds every tenant
/// with `Resume` and streams its intervals, then `finish`.
///
/// A durable directory is emptied before the set-up clock starts.
#[must_use]
pub fn serve_rep(
    traffic: &Traffic,
    encoded: &Encoded,
    reference: &[String],
    durable: Option<&Path>,
) -> Rep {
    if let Some(dir) = durable {
        fresh_dir(dir);
    }
    let options = serve_options(traffic.tenants.len(), durable);

    let setup = Instant::now();
    let server = Server::new(options);
    let admitted = server.handle_io(Connection(&encoded.admission));
    let setup_s = setup.elapsed().as_secs_f64();

    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let fed = server.handle_io(Connection(&encoded.stream));
    let feed_s = start.elapsed().as_secs_f64();
    let report = server.finish();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    drop(server);

    let summaries: Vec<_> = report.sessions.iter().map(|s| s.summary.as_ref()).collect();
    // Connection errors are also in `report.errors`; the returned
    // results are checked too so no failure can go unseen.
    let extra = usize::from(admitted.is_err()) + usize::from(fed.is_err());
    let mut rep = check(
        traffic,
        reference,
        &summaries,
        report.errors.len().max(extra),
    );
    rep.setup_s = setup_s;
    rep.wall_s = wall_s;
    rep.cpu_s = cpu_s;
    rep.feed_s = feed_s;
    rep.drain_s = wall_s - feed_s;
    rep
}

/// One repetition of the workload's own path. `cpd` turns change-point
/// detection, and with it telemetry, on for the fleet path.
#[must_use]
pub fn workload_rep(
    traffic: &Traffic,
    encoded: &Encoded,
    reference: &[String],
    durable: &Path,
    cpd: bool,
) -> Rep {
    match traffic.workload {
        Workload::ServeLoops | Workload::ServeChurn => serve_rep(traffic, encoded, reference, None),
        Workload::ServeDurable => serve_rep(traffic, encoded, reference, Some(durable)),
        Workload::FleetCpd => fleet_rep(traffic, reference, cpd),
    }
}

/// The fleet workload's specs, built from its plans.
#[must_use]
pub fn fleet_specs(workload: Workload, seed: u64, intervals: usize) -> Vec<TenantSpec> {
    workload
        .tenants(intervals)
        .into_iter()
        .enumerate()
        .map(|(index, plan)| {
            let program = seeded_program(&plan, seed, index);
            let spec = TenantSpec::new(
                tenant_name(plan.program, index),
                program,
                plan.config.clone(),
                intervals,
            );
            match plan.degrade_from {
                Some(from) => spec.with_degrade_from(from),
                None => spec,
            }
        })
        .collect()
}

/// One fleet repetition: building the `TenantSpec`s (set-up), then
/// `run_fleet` in lockstep on one shard. Change-point detection needs
/// telemetry, so `cpd` turns it on.
#[must_use]
pub fn fleet_rep(traffic: &Traffic, reference: &[String], cpd: bool) -> Rep {
    if cpd {
        regmon_telemetry::set_enabled(true);
    }
    regmon_telemetry::reset();
    let config = FleetConfig::new(1, FLEET_QUEUE_DEPTH).with_cpd(cpd);

    let setup = Instant::now();
    let specs = fleet_specs(traffic.workload, traffic.seed, traffic.intervals);
    let setup_s = setup.elapsed().as_secs_f64();

    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let report = run_fleet(&config, &specs, &Schedule::new());
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let summaries: Vec<_> = report.tenants.iter().map(|t| t.summary.as_ref()).collect();
    let errors = report.tenants.iter().filter(|t| t.error.is_some()).count();
    let mut rep = check(traffic, reference, &summaries, errors);
    rep.setup_s = setup_s;
    rep.wall_s = wall_s;
    rep.cpu_s = cpu_s;
    rep.feed_s = wall_s;
    rep
}

/// The correctness gate: each tenant's summary against the reference.
fn check(
    traffic: &Traffic,
    reference: &[String],
    summaries: &[Option<&regmon::SessionSummary>],
    errors: usize,
) -> Rep {
    let mut rep = Rep {
        attempted: traffic.interval_count(),
        failed: errors,
        ..Rep::default()
    };
    for (i, tenant) in traffic.tenants.iter().enumerate() {
        let got = summaries.get(i).copied().flatten();
        let ok = got.is_some_and(|s| format!("{s:?}") == reference[i]);
        if ok {
            rep.verdicts += got.map_or(0, |s| s.intervals);
        } else {
            rep.failed += tenant.intervals.len();
        }
    }
    rep
}

/// Repetitions for the peak-RSS measurement, after the timed ones.
pub const MEMORY_REPS: usize = 3;

/// A run's repetitions.
#[derive(Debug, Clone, Default)]
pub struct Reps {
    /// Timed repetitions, on a warm heap.
    pub timed: Vec<Rep>,
    /// Repetitions on a trimmed heap that measure peak RSS; their times
    /// are not used.
    pub memory: Vec<Rep>,
}

impl Reps {
    /// Every repetition, for the correctness counts.
    pub fn all(&self) -> impl Iterator<Item = &Rep> {
        self.timed.iter().chain(&self.memory)
    }
}

/// Runs `rep` once untimed to warm caches and lazy state, repeats it
/// until `seconds` have passed (at least `min_reps` times), then
/// [`MEMORY_REPS`] more times to measure memory.
///
/// The timed repetitions reuse the heap the previous ones freed, as a
/// long-running server does. Each memory repetition first hands freed
/// heap back to the kernel and resets the peak RSS, so its
/// [`Rep::peak_rss_bytes`] is what it allocated itself, never the
/// input, which is resident before the first repetition.
pub fn repeat(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> Rep) -> Reps {
    // The first repetition of a process runs ~10% slower on CPU.
    let _ = rep();
    let start = Instant::now();
    let mut reps = Reps::default();
    while reps.timed.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let steal = sys::steal_ticks().unwrap_or(0);
        let mut r = rep();
        r.steal_ticks = sys::steal_ticks().unwrap_or(0).saturating_sub(steal);
        reps.timed.push(r);
    }
    for _ in 0..MEMORY_REPS {
        sys::trim_heap();
        let base = sys::status_bytes("VmRSS").unwrap_or(0);
        // Where the reset is refused the growth includes earlier peaks;
        // the caller warns once.
        let _ = sys::reset_peak_rss();
        let mut r = rep();
        r.peak_rss_bytes = sys::status_bytes("VmHWM").unwrap_or(0).saturating_sub(base);
        reps.memory.push(r);
    }
    reps
}

/// The repetitions that lost the least CPU to the hypervisor: those at
/// or below the median steal rate. Other guests take this machine's
/// CPUs in bursts, and a repetition that runs during one is slower for
/// reasons outside the program.
#[must_use]
pub fn quietest(reps: &[Rep]) -> Vec<Rep> {
    let rate = |r: &Rep| r.steal_ticks as f64 / (r.setup_s + r.wall_s);
    let cut = regmon_stats::median(&reps.iter().map(rate).collect::<Vec<_>>()).unwrap_or(0.0);
    reps.iter().filter(|r| rate(r) <= cut).copied().collect()
}

/// The durable directory for this process, inside the working directory.
#[must_use]
pub fn durable_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("durable-{}-{tag}", std::process::id()))
}

//! The CLI subcommands.

use std::path::{Path, PathBuf};

use regmon::regions::IndexKind;
use regmon::rto::{simulate, speedup_percent, RtoConfig, RtoMode};
use regmon::sampling::Sampler;
use regmon::workload::{suite, Workload};
use regmon::{MonitoringSession, SessionConfig, SessionSummary};
use regmon_baselines::{BbvConfig, BbvDetector, WssConfig, WssDetector};
use regmon_cpd::{CpdHub, EDivConfig, Metric, SeriesKey, StreamConfig, NO_REGION, NO_TENANT};
use regmon_fleet::{
    batch_bucket_label, run_fleet, CpdReport, FleetConfig, Pacing, QueuePolicy, Schedule,
    TenantSpec, BATCH_BUCKETS, DEFAULT_QUEUE_DEPTH,
};
use regmon_serve::replay::ReplayOptions;
use regmon_serve::server::{ServeOptions, ServeReport};
use regmon_serve::wire::Frame;
use regmon_stats::simd;

use crate::args::{parse, Parsed};
use crate::json::Json;

/// Usage text.
pub const USAGE: &str = "\
regmon — region monitoring for local phase detection (CGO'06 reproduction)

USAGE:
  regmon list
  regmon run <benchmark> [--period N] [--intervals N] [--skid N] [--interprocedural]
             [--index linear|tree|flat] [--json] [--trace-out FILE] [--record FILE]
  regmon features [--json]
  regmon sweep <benchmark> [--intervals N]
  regmon rto <benchmark> [--period N] [--intervals N]
  regmon baselines <benchmark> [--period N] [--intervals N]
  regmon fleet <benchmark|all> [--tenants N] [--shards N] [--intervals N]
               [--period N] [--queue-depth N] [--policy block|drop-oldest]
               [--batch N] [--pacing lockstep|freerun]
               [--index linear|tree|flat] [--json] [--metrics-every N]
               [--trace-out FILE] [--record DIR]
               [--cpd] [--degrade TENANT:INTERVAL]
  regmon replay <journal> [--json] [--snapshot-at N] [--snapshot-out FILE]
               [--resume FILE]
  regmon serve (--unix PATH | --tcp ADDR) [--shards N] [--queue-depth N]
               [--expect-sessions N] [--event-workers N]
               [--durable DIR | --recover DIR] [--checkpoint-every N]
               [--fsync always|checkpoint|never] [--idle-timeout-ms N]
               [--max-conns N] [--drain-deadline-ms N]
               [--json] [--trace-out FILE]
  regmon send <journal> (--unix PATH | --tcp ADDR)
               [--retries N] [--timeout-ms N] [--backoff-ms N] [--resume]
               [--no-finish]
  regmon migrate <journal> --at N (--from PATH | --from-tcp ADDR)
               (--to PATH | --to-tcp ADDR) [--retries N]
               [--timeout-ms N] [--backoff-ms N]
  regmon metrics [<benchmark>] [--intervals N] [--json]
  regmon metrics --check FILE
  regmon cpd (--trace FILE | --bench FILE[,FILE...]) [--top N] [--json]
  regmon help

Benchmarks are the synthetic SPEC CPU2000-like models (see `regmon list`).
Periods are cycles per PMU interrupt (paper sweep: 45000/450000/900000).

Out-of-process ingestion: `--record` writes the sampled intervals as a
wire frame journal; `regmon replay` feeds a journal through the
server's state machine in-process, byte-identically to the run that
recorded it and to `regmon serve` given the same bytes (optionally
checkpointing with --snapshot-at/--snapshot-out, or resuming with
--resume); `regmon serve` ingests journals streamed by `regmon send`
over a unix socket or TCP and reports each finished session like
`regmon run`.

Everything regmon writes and reads — journals, the --durable WAL,
`send` and `migrate` — is wire v2: columnar batches (delta-encoded
addresses, delta-of-delta-encoded cycles). Wire v1 journals and WALs
and LZ-compressed streams from older builds are no longer read: they
fail with an error naming the retired format. `regmon serve` (unix
only) multiplexes all connections over --event-workers poll(2)
workers. `regmon migrate` moves a live session between two servers
mid-stream: the first server checkpoints and retires the tenant, the
second resumes it byte-identically.

Durability: `serve --durable DIR` write-ahead-logs each session's
wire frames as they arrived (CRC-checked) and checkpoints each
session's RGSN atomically every --checkpoint-every intervals; after a
crash, `serve --recover DIR` restores the checkpoints, replays the WAL
through the live ingest path, and every session resumes
byte-identically (torn tails are truncated, never fatal). Without
--recover, a DIR that already holds session files is refused.
`send --retries N` reconnects with deterministic exponential backoff
and resumes from the last acknowledged interval; on giving up it exits
nonzero reporting the exact frame/interval position. `--max-conns`
sheds excess connections with a Busy reply, --idle-timeout-ms reaps
silent peers, and --drain-deadline-ms bounds shutdown when a peer
wedges mid-frame.

The flat index's attribution kernel uses AVX2 when the CPU has it
(`regmon features` shows the detected level); REGMON_SIMD=scalar dials
it down, and any value other than scalar|avx2 is an error. Results are
bitwise identical at both levels.

Telemetry is off unless requested: `--trace-out` writes a
chrome://tracing event journal, `--metrics-every N` prints a Prometheus
exposition to stderr every N lockstep rounds, and `regmon metrics`
prints the registry after a short demo run (`--check` validates a
previously written trace/snapshot/exposition file).

Change-point detection: `fleet --cpd` runs streaming E-divisive
detectors over every tenant's UCR and per-region r/rt series plus
per-shard queue stalls, reporting which series shifted, at which
interval, by how much, and with what permutation-test confidence —
deterministically (byte-identical across batch/simd, and the
JSON without `--cpd` is unchanged). `--degrade TENANT:INTERVAL` plants
a synthetic regression to exercise it. Offline, `regmon cpd --trace`
re-hunts a recorded trace artifact and finds the same points, and
`regmon cpd --bench` watches the committed BENCH_*.json history.";

/// `--index`, defaulting to [`IndexKind::default`] (the flat index).
fn index_flag(p: &Parsed) -> Result<IndexKind, String> {
    IndexKind::parse(&p.value_or("index", IndexKind::default().label().to_string())?)
}

/// `--period` in cycles per interrupt, defaulting to `default`; a
/// sampler cannot run at a zero period.
fn period_flag(p: &Parsed, default: u64) -> Result<u64, String> {
    match p.value_or("period", default)? {
        0 => Err("--period must be positive".into()),
        period => Ok(period),
    }
}

fn workload(name: Option<&str>) -> Result<Workload, String> {
    let name = name.ok_or("missing <benchmark> argument")?;
    if let Some(w) = suite::by_name(name) {
        return Ok(w);
    }
    // Ergonomics: allow the bare program name ("mcf" for "181.mcf") when
    // it is unambiguous.
    let matches: Vec<&str> = suite::names()
        .into_iter()
        .filter(|n| n.split('.').nth(1) == Some(name) || n.contains(name))
        .collect();
    match matches.as_slice() {
        [one] => Ok(suite::by_name(one).expect("listed names build")),
        [] => Err(format!("unknown benchmark {name:?}; try `regmon list`")),
        many => Err(format!("ambiguous benchmark {name:?}: {many:?}")),
    }
}

/// The candidate closest to `given` by edit distance, when close
/// enough to plausibly be a typo — powers `did you mean ...?` errors.
pub fn closest<'a>(given: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|c| (edit_distance(given, c), *c))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= 2.max(given.len() / 3))
        .map(|(_, c)| c)
}

/// Classic Levenshtein distance (two-row dynamic program).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `regmon list` (takes no arguments; any are ignored)
pub fn list(_argv: &[String]) -> Result<(), String> {
    println!("{:<14} {:>7} {:>8}  notes", "benchmark", "procs", "loops");
    for name in suite::names() {
        let w = suite::by_name(name).expect("listed names build");
        let procs = w.binary().procedures().len();
        let loops: usize = w
            .binary()
            .procedures()
            .iter()
            .map(|p| p.loops().len())
            .sum();
        let note = match name {
            "181.mcf" => "paper's running example (Figs 2, 9, 10, 17)",
            "187.facerec" => "periodic region switching (Fig 5)",
            "254.gap" | "186.crafty" => "high UCR: hot code called from loops (Figs 6, 7)",
            "188.ammp" => "very large region, r near threshold (Fig 13)",
            "178.galgel" => "GPD thrash champion (Fig 3)",
            _ => "",
        };
        println!("{name:<14} {procs:>7} {loops:>8}  {note}");
    }
    Ok(())
}

/// `regmon run <benchmark>`
pub fn run(argv: &[String]) -> Result<(), String> {
    let p = parse("run", argv)?;
    let w = workload(p.positional(0))?;
    let period = period_flag(&p, 45_000)?;
    let intervals: usize = p.value_or("intervals", 200)?;
    let skid: u64 = p.value_or("skid", 0)?;
    if skid >= period {
        return Err("--skid must be smaller than --period".into());
    }
    let mut config = SessionConfig::new(period);
    config.sampling = config.sampling.with_skid(skid);
    config.formation.interprocedural = p.flag("interprocedural");
    config.index = index_flag(&p)?;
    let trace_out: String = p.value_or("trace-out", String::new())?;
    if !trace_out.is_empty() {
        regmon_telemetry::set_enabled(true);
    }
    let summary = MonitoringSession::run_limited(&w, &config, intervals);
    if !trace_out.is_empty() {
        write_trace(&trace_out)?;
    }
    let record: String = p.value_or("record", String::new())?;
    if !record.is_empty() {
        regmon_serve::record_run(Path::new(&record), &w, &config, intervals)
            .map_err(|e| format!("--record {record}: {e}"))?;
        eprintln!("record: wire journal written to {record}");
    }

    if p.flag("json") {
        println!(
            "{}",
            summary_json(p.flag("interprocedural"), &summary).render()
        );
        return Ok(());
    }
    print_summary_text(&summary);
    Ok(())
}

/// The `regmon run --json` document for one finished session; shared
/// with `replay` and `serve` so all three transports emit byte-identical
/// reports for equivalent sessions.
fn summary_json(interprocedural: bool, summary: &SessionSummary) -> Json {
    let regions: Vec<Json> = summary
        .lpd
        .iter()
        .map(|(id, s)| {
            Json::obj(vec![
                ("region", Json::Str(id.to_string())),
                ("intervals", Json::Num(s.intervals as f64)),
                ("active", Json::Num(s.active_intervals as f64)),
                ("stable_fraction", Json::Num(s.stable_fraction())),
                ("phase_changes", Json::Num(s.phase_changes as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("benchmark", Json::Str(summary.workload.clone())),
        ("period", Json::Num(summary.period as f64)),
        ("intervals", Json::Num(summary.intervals as f64)),
        ("interprocedural", Json::Bool(interprocedural)),
        // The *hardware* level, not the dispatched one: both dispatch
        // levels are bitwise-identical, so this document must not vary
        // with REGMON_SIMD (see `regmon features` for the active
        // level).
        ("host_simd", Json::Str(simd::detected().label().to_string())),
        (
            "gpd_phase_changes",
            Json::Num(summary.gpd.phase_changes as f64),
        ),
        (
            "gpd_stable_fraction",
            Json::Num(summary.gpd.stable_fraction()),
        ),
        ("ucr_median", Json::Num(summary.ucr_median)),
        ("regions_formed", Json::Num(summary.regions_formed as f64)),
        ("regions", Json::Arr(regions)),
    ])
}

/// The `regmon run` text report for one finished session.
fn print_summary_text(summary: &SessionSummary) {
    println!(
        "== {} @ {} cycles/interrupt ==",
        summary.workload, summary.period
    );
    println!("intervals      : {}", summary.intervals);
    println!("regions formed : {}", summary.regions_formed);
    println!("median UCR     : {:.1}%", summary.ucr_median * 100.0);
    println!(
        "GPD            : {} changes, {:.1}% stable",
        summary.gpd.phase_changes,
        summary.gpd.stable_fraction() * 100.0
    );
    println!(
        "LPD            : {} changes across {} regions",
        summary.lpd_total_phase_changes(),
        summary.lpd.len()
    );
    for (id, s) in &summary.lpd {
        println!(
            "  {id}: active {:>4}/{:<4} stable {:>5.1}% changes {}",
            s.active_intervals,
            s.intervals,
            s.stable_fraction() * 100.0,
            s.phase_changes
        );
    }
}

/// `regmon features` — detected SIMD level, dispatch state and CPU
/// count. The one place where *active* (as opposed to
/// hardware-detected) settings are reported, so every other `--json`
/// document can stay byte-identical across `REGMON_SIMD`.
pub fn features(argv: &[String]) -> Result<(), String> {
    let p = parse("features", argv)?;
    let detected = simd::detected();
    let active = simd::active();
    let env = simd::env_override();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let supported: Vec<&str> = simd::SimdLevel::ALL
        .iter()
        .filter(|l| l.is_supported())
        .map(|l| l.label())
        .collect();

    if p.flag("json") {
        let out = Json::obj(vec![
            ("host_simd", Json::Str(detected.label().to_string())),
            ("active_simd", Json::Str(active.label().to_string())),
            ("simd_env", env.map_or(Json::Null, Json::Str)),
            (
                "simd_levels",
                Json::Arr(
                    supported
                        .iter()
                        .map(|l| Json::Str((*l).to_string()))
                        .collect(),
                ),
            ),
            ("cpus", Json::Num(cpus as f64)),
        ]);
        println!("{}", out.render());
        return Ok(());
    }
    println!("host SIMD        : {}", detected.label());
    println!(
        "active dispatch  : {}{}",
        active.label(),
        match simd::env_override() {
            Some(e) => format!("  ({}={e})", simd::SIMD_ENV),
            None => String::new(),
        }
    );
    println!("levels supported : {}", supported.join(", "));
    println!("cpus             : {cpus}");
    Ok(())
}

/// `regmon sweep <benchmark>` — the paper's three sampling periods.
pub fn sweep(argv: &[String]) -> Result<(), String> {
    let p = parse("sweep", argv)?;
    let w = workload(p.positional(0))?;
    let intervals_45k: usize = p.value_or("intervals", 400)?;
    println!(
        "{:>8} | {:>11} {:>9} | {:>11} {:>9}",
        "period", "GPD changes", "GPD %stab", "LPD changes", "LPD %stab"
    );
    for period in regmon::sampling::SWEEP_PERIODS {
        let config = SessionConfig::new(period);
        let budget = ((45_000 * intervals_45k as u64) / period).max(8) as usize;
        let s = MonitoringSession::run_limited(&w, &config, budget);
        println!(
            "{:>8} | {:>11} {:>8.1}% | {:>11} {:>8.1}%",
            period,
            s.gpd.phase_changes,
            s.gpd.stable_fraction() * 100.0,
            s.lpd_total_phase_changes(),
            s.lpd_mean_stable_fraction() * 100.0
        );
    }
    Ok(())
}

/// `regmon rto <benchmark>` — optimizer comparison at one period.
pub fn rto(argv: &[String]) -> Result<(), String> {
    let p = parse("rto", argv)?;
    let w = workload(p.positional(0))?;
    let period = period_flag(&p, 800_000)?;
    let intervals: usize = p.value_or("intervals", usize::MAX)?;
    let mut config = RtoConfig::new(period);
    if intervals != usize::MAX {
        config.max_intervals = Some(intervals);
    }
    let orig = simulate(&w, &config, RtoMode::Global);
    let lpd = simulate(&w, &config, RtoMode::Local);
    println!("== {} @ {period} cycles/interrupt ==", w.name());
    for (label, r) in [
        ("RTO_ORIG (GPD-gated)", &orig),
        ("RTO_LPD  (per-region)", &lpd),
    ] {
        println!(
            "{label}: speedup over baseline {:>6.2}%, stable {:>5.1}%, {} patches / {} unpatches",
            r.speedup_over_baseline_percent(),
            r.detector_stable_fraction * 100.0,
            r.patch_events,
            r.unpatch_events
        );
    }
    println!(
        "RTO_LPD over RTO_ORIG: {:+.2}%",
        speedup_percent(&orig, &lpd)
    );
    Ok(())
}

/// `regmon fleet <benchmark|all>` — a sharded multi-tenant fleet run.
///
/// With `all`, tenants cycle through the whole synthetic suite; with a
/// benchmark name every tenant runs that workload. Without `--period`
/// the tenants use heterogeneous sampling periods (45k/90k/450k cycles)
/// to exercise per-tenant configs. The run is lockstep-paced, so the
/// report — including every backpressure counter — is deterministic;
/// `--json` emits it machine-readably (wall-clock excluded so identical
/// invocations yield byte-identical output).
pub fn fleet(argv: &[String]) -> Result<(), String> {
    let p = parse("fleet", argv)?;
    let target = p.positional(0).ok_or("missing <benchmark|all> argument")?;
    let tenants: usize = p.value_or("tenants", 32)?;
    let shards: usize = p.value_or("shards", 4)?;
    let intervals: usize = p.value_or("intervals", 50)?;
    let period: u64 = p.value_or("period", 0)?;
    let queue_depth: usize = p.value_or("queue-depth", DEFAULT_QUEUE_DEPTH)?;
    let policy = QueuePolicy::parse(&p.value_or("policy", "block".to_string())?)?;
    let batch: usize = p.value_or("batch", 1)?;
    let pacing = Pacing::parse(&p.value_or("pacing", "lockstep".to_string())?)?;
    let index = index_flag(&p)?;
    let metrics_every: usize = p.value_or("metrics-every", 0)?;
    let trace_out: String = p.value_or("trace-out", String::new())?;
    let record: String = p.value_or("record", String::new())?;
    let cpd_on = p.flag("cpd");
    let degrade: String = p.value_or("degrade", String::new())?;
    if tenants == 0 || shards == 0 || intervals == 0 || queue_depth == 0 || batch == 0 {
        return Err("--tenants/--shards/--intervals/--queue-depth/--batch must be positive".into());
    }
    if cpd_on && pacing == Pacing::Freerun {
        return Err(
            "--cpd needs --pacing lockstep (the detector is driven off the deterministic \
             round tick)"
                .into(),
        );
    }
    let degrade: Option<(usize, usize)> = if degrade.is_empty() {
        None
    } else {
        let (t, n) = degrade
            .split_once(':')
            .ok_or("--degrade expects TENANT:INTERVAL (e.g. --degrade 3:40)")?;
        let t: usize = t
            .parse()
            .map_err(|_| format!("--degrade: cannot parse tenant {t:?}"))?;
        let n: usize = n
            .parse()
            .map_err(|_| format!("--degrade: cannot parse interval {n:?}"))?;
        if t >= tenants || n >= intervals {
            return Err(format!(
                "--degrade {t}:{n}: tenant must be < {tenants} and interval < {intervals}"
            ));
        }
        Some((t, n))
    };
    if metrics_every > 0 || !trace_out.is_empty() || cpd_on {
        regmon_telemetry::set_enabled(true);
    }

    let workloads: Vec<Workload> = if target == "all" {
        suite::names()
            .into_iter()
            .map(|n| suite::by_name(n).expect("listed names build"))
            .collect()
    } else {
        vec![workload(Some(target))?]
    };
    // Resolved display label ("mcf" -> "181.mcf"; "all" stays "all").
    let target = if target == "all" {
        "all".to_string()
    } else {
        workloads[0].name().to_string()
    };
    if !record.is_empty() {
        std::fs::create_dir_all(&record).map_err(|e| format!("--record {record}: {e}"))?;
    }
    let mut specs: Vec<TenantSpec> = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let w = &workloads[i % workloads.len()];
        let tenant_period = if period > 0 {
            period
        } else {
            [45_000, 90_000, 450_000][i % 3]
        };
        let mut config = SessionConfig::new(tenant_period);
        config.index = index;
        if !record.is_empty() {
            // One single-tenant journal per tenant (wire tenant id 0 in
            // each file), replayable with `regmon replay`.
            let path = Path::new(&record).join(format!("tenant-{i:03}.rgj"));
            regmon_serve::record_run(&path, w, &config, intervals)
                .map_err(|e| format!("--record {}: {e}", path.display()))?;
        }
        let mut spec = TenantSpec::new(format!("{}#{i}", w.name()), w.clone(), config, intervals);
        if let Some((t, n)) = degrade {
            if t == i {
                spec = spec.with_degrade_from(n);
            }
        }
        specs.push(spec);
    }
    if !record.is_empty() {
        eprintln!("record: {tenants} wire journal(s) written to {record}/");
    }

    let config = FleetConfig::new(shards, queue_depth)
        .with_policy(policy)
        .with_batch(batch)
        .with_pacing(pacing)
        .with_metrics_every(metrics_every)
        .with_cpd(cpd_on);
    let report = run_fleet(&config, &specs, &Schedule::new());
    let agg = &report.aggregate;
    if !trace_out.is_empty() {
        // The change-point feed drains the journal as it runs, so the
        // trace artifact comes from its event log instead.
        match &report.cpd {
            Some(c) => write_trace_events(&trace_out, &c.events, c.lost)?,
            None => write_trace(&trace_out)?,
        }
    }

    if p.flag("json") {
        let tenants_json: Vec<Json> = report
            .tenants
            .iter()
            .map(|t| {
                let mut pairs = vec![
                    ("id", Json::Num(f64::from(t.id.0))),
                    ("name", Json::Str(t.name.clone())),
                    ("workload", Json::Str(t.workload.clone())),
                    ("shard", Json::Num(t.shard as f64)),
                    ("state", Json::Str(t.state.label().to_string())),
                    ("intervals_produced", Json::Num(t.intervals_produced as f64)),
                    (
                        "intervals_processed",
                        Json::Num(t.intervals_processed as f64),
                    ),
                    ("restarts", Json::Num(t.restarts as f64)),
                ];
                if let Some(s) = &t.summary {
                    pairs.extend([
                        ("period", Json::Num(s.period as f64)),
                        ("gpd_phase_changes", Json::Num(s.gpd.phase_changes as f64)),
                        ("gpd_stable_fraction", Json::Num(s.gpd.stable_fraction())),
                        (
                            "lpd_phase_changes",
                            Json::Num(s.lpd_total_phase_changes() as f64),
                        ),
                        (
                            "lpd_stable_fraction",
                            Json::Num(s.lpd_mean_stable_fraction()),
                        ),
                        ("ucr_median", Json::Num(s.ucr_median)),
                        ("regions_formed", Json::Num(s.regions_formed as f64)),
                        ("regions_pruned", Json::Num(s.regions_pruned as f64)),
                    ]);
                }
                Json::obj(pairs)
            })
            .collect();
        let shards_json: Vec<Json> = report
            .shards
            .iter()
            .map(|s| {
                let labels: Vec<String> = (0..BATCH_BUCKETS).map(batch_bucket_label).collect();
                let histogram: Vec<(&str, Json)> = labels
                    .iter()
                    .enumerate()
                    .map(|(b, label)| (label.as_str(), Json::Num(s.batch_sizes[b] as f64)))
                    .collect();
                Json::obj(vec![
                    ("shard", Json::Num(s.shard as f64)),
                    ("tenants", Json::Num(s.tenants as f64)),
                    ("messages_processed", Json::Num(s.messages_processed as f64)),
                    (
                        "backpressure_stalls",
                        Json::Num(s.backpressure_stalls as f64),
                    ),
                    ("dropped_intervals", Json::Num(s.dropped_intervals as f64)),
                    ("queue_high_water", Json::Num(s.queue_high_water as f64)),
                    ("batch_sizes", Json::obj(histogram)),
                ])
            })
            .collect();
        let mut top = vec![
            ("benchmark", Json::Str(target.to_string())),
            ("tenants", Json::Num(tenants as f64)),
            ("shards", Json::Num(shards as f64)),
            ("intervals", Json::Num(intervals as f64)),
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("batch", Json::Num(batch as f64)),
            // The host capability, not the active level: this document
            // stays byte-identical with REGMON_SIMD set or not (the
            // active setting lives in `regmon features`).
            ("host_simd", Json::Str(simd::detected().label().to_string())),
            (
                "pacing",
                Json::Str(
                    match pacing {
                        Pacing::Lockstep => "lockstep",
                        Pacing::Freerun => "freerun",
                    }
                    .to_string(),
                ),
            ),
            (
                "policy",
                Json::Str(
                    match policy {
                        QueuePolicy::Block => "block",
                        QueuePolicy::DropOldest => "drop-oldest",
                    }
                    .to_string(),
                ),
            ),
            (
                "aggregate",
                Json::obj(vec![
                    ("completed", Json::Num(agg.completed as f64)),
                    ("evicted", Json::Num(agg.evicted as f64)),
                    ("failed", Json::Num(agg.failed as f64)),
                    ("restarts", Json::Num(agg.restarts as f64)),
                    (
                        "intervals_produced",
                        Json::Num(agg.intervals_produced as f64),
                    ),
                    (
                        "intervals_processed",
                        Json::Num(agg.intervals_processed as f64),
                    ),
                    ("dropped_intervals", Json::Num(agg.dropped_intervals as f64)),
                    (
                        "backpressure_stalls",
                        Json::Num(agg.backpressure_stalls as f64),
                    ),
                    ("gpd_phase_changes", Json::Num(agg.gpd_phase_changes as f64)),
                    (
                        "gpd_stable_fraction_mean",
                        Json::Num(agg.gpd_stable_fraction_mean),
                    ),
                    ("lpd_phase_changes", Json::Num(agg.lpd_phase_changes as f64)),
                    (
                        "lpd_stable_fraction_mean",
                        Json::Num(agg.lpd_stable_fraction_mean),
                    ),
                    ("ucr_median_mean", Json::Num(agg.ucr_median_mean)),
                    ("regions_formed", Json::Num(agg.regions_formed as f64)),
                    ("regions_pruned", Json::Num(agg.regions_pruned as f64)),
                ]),
            ),
            ("shards_detail", Json::Arr(shards_json)),
            ("tenants_detail", Json::Arr(tenants_json)),
        ];
        // Appended last so output with `--cpd` off is byte-identical to
        // a CPD-less build, and stripping the suffix recovers it.
        if let Some(c) = &report.cpd {
            top.push(("cpd", cpd_json(c)));
        }
        println!("{}", Json::obj(top).render());
        return Ok(());
    }

    println!(
        "== fleet: {target} x {tenants} tenants over {shards} shards (depth {queue_depth}, {policy:?}, batch {batch}) =="
    );
    println!(
        "completed {}  evicted {}  failed {}  restarts {}",
        agg.completed, agg.evicted, agg.failed, agg.restarts
    );
    println!(
        "intervals {} produced / {} processed  drops {}  stalls {}",
        agg.intervals_produced,
        agg.intervals_processed,
        agg.dropped_intervals,
        agg.backpressure_stalls
    );
    println!(
        "GPD {} changes ({:.1}% stable mean)   LPD {} changes ({:.1}% stable mean)",
        agg.gpd_phase_changes,
        agg.gpd_stable_fraction_mean * 100.0,
        agg.lpd_phase_changes,
        agg.lpd_stable_fraction_mean * 100.0
    );
    println!(
        "regions {} formed / {} pruned   mean median-UCR {:.1}%   wall {} ms",
        agg.regions_formed,
        agg.regions_pruned,
        agg.ucr_median_mean * 100.0,
        report.wall_ms
    );
    println!(
        "{:>5} {:>8} {:>10} {:>8} {:>8} {:>11}  batch sizes",
        "shard", "tenants", "messages", "stalls", "drops", "high-water"
    );
    for s in &report.shards {
        let histogram = (0..BATCH_BUCKETS)
            .filter(|&b| s.batch_sizes[b] > 0)
            .map(|b| format!("{}:{}", batch_bucket_label(b), s.batch_sizes[b]))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:>5} {:>8} {:>10} {:>8} {:>8} {:>11}  {}",
            s.shard,
            s.tenants,
            s.messages_processed,
            s.backpressure_stalls,
            s.dropped_intervals,
            s.queue_high_water,
            histogram
        );
    }
    if let Some(c) = &report.cpd {
        println!(
            "== change points: {} detected over {} series / {} points ==",
            c.change_points.len(),
            c.series_tracked,
            c.points_ingested
        );
        for cp in &c.change_points {
            println!(
                "{:<34} round {:>4}  magnitude {:+.4}  confidence {:>5.1}%",
                cp.series.label(),
                cp.round,
                cp.magnitude,
                cp.confidence * 100.0
            );
        }
        if c.change_points.is_empty() {
            println!("(no change points; all series stationary)");
        }
    }
    Ok(())
}

/// The `"cpd"` member of `fleet --json`: detections plus hub totals.
/// `CpdReport::lost` is deliberately absent — drain timing makes it
/// scheduling-dependent, like `wall_ms`.
fn cpd_json(c: &CpdReport) -> Json {
    let points: Vec<Json> = c
        .change_points
        .iter()
        .map(|cp| {
            Json::obj(vec![
                ("series", Json::Str(cp.series.label())),
                (
                    "tenant",
                    if cp.series.tenant == NO_TENANT {
                        Json::Null
                    } else {
                        Json::Num(cp.series.tenant as f64)
                    },
                ),
                (
                    // Queue series store the shard index here.
                    "region",
                    if cp.series.region == NO_REGION {
                        Json::Null
                    } else {
                        Json::Num(cp.series.region as f64)
                    },
                ),
                ("metric", Json::Str(cp.series.metric.name().to_string())),
                ("round", Json::Num(cp.round as f64)),
                ("magnitude", Json::Num(cp.magnitude)),
                ("confidence", Json::Num(cp.confidence)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("series_tracked", Json::Num(c.series_tracked as f64)),
        ("points_ingested", Json::Num(c.points_ingested as f64)),
        ("change_points", Json::Arr(points)),
    ])
}

/// `regmon replay <journal>` — re-process a recorded frame journal.
///
/// The replay runs the server's state machine on a one-shard
/// in-process server, so it is byte-identical to the run that recorded
/// the journal and to `regmon serve` given the same bytes: with
/// `--json` the output matches the equivalent `regmon run --json`
/// exactly. `--snapshot-at N --snapshot-out FILE` checkpoints the
/// session after N intervals (and continues), and fails when the replay
/// never reaches N; `--resume FILE` restores a checkpoint and skips the
/// intervals it already covers.
pub fn replay(argv: &[String]) -> Result<(), String> {
    let p = parse("replay", argv)?;
    let journal = p.positional(0).ok_or("missing <journal> argument")?;
    let snapshot_at: usize = p.value_or("snapshot-at", 0)?;
    let snapshot_out: String = p.value_or("snapshot-out", String::new())?;
    let resume: String = p.value_or("resume", String::new())?;
    if (snapshot_at > 0) == snapshot_out.is_empty() {
        return Err("--snapshot-at and --snapshot-out must be given together".into());
    }
    let options = ReplayOptions {
        snapshot_at: (snapshot_at > 0).then_some(snapshot_at),
        snapshot_out: (!snapshot_out.is_empty()).then(|| PathBuf::from(&snapshot_out)),
        resume: (!resume.is_empty()).then(|| PathBuf::from(&resume)),
    };
    let outcome = regmon_serve::replay::replay(Path::new(journal), &options)
        .map_err(|e| format!("{journal}: {e}"))?;
    if !snapshot_out.is_empty() {
        if !outcome.snapshot_written {
            return Err(format!(
                "{journal}: --snapshot-at {snapshot_at} was never reached (the journal ends \
                 first, or the --resume checkpoint already covers it); {snapshot_out} not written"
            ));
        }
        eprintln!("snapshot: session checkpoint written to {snapshot_out}");
    }
    for tenant in &outcome.tenants {
        if p.flag("json") {
            println!(
                "{}",
                summary_json(tenant.config.formation.interprocedural, &tenant.summary).render()
            );
        } else {
            print_summary_text(&tenant.summary);
        }
    }
    Ok(())
}

/// Socket failures name the socket; durable-directory failures name
/// their file.
#[cfg(unix)]
fn serve_listener(unix: &str, tcp: &str, options: ServeOptions) -> Result<ServeReport, String> {
    let report = if unix.is_empty() {
        regmon_serve::serve_tcp(tcp, options)
    } else {
        regmon_serve::serve_unix(Path::new(unix), options)
    };
    report.map_err(|e| e.to_string())
}

#[cfg(not(unix))]
fn serve_listener(_unix: &str, _tcp: &str, _options: ServeOptions) -> Result<ServeReport, String> {
    Err("regmon serve runs on a poll(2) event loop, which this platform lacks".into())
}

/// `regmon serve` — ingest wire streams from producer processes.
///
/// Accepts `--expect-sessions N` producer sessions over a unix socket
/// or TCP listener, demultiplexes their frames into the fleet engine,
/// then drains and reports every finished session in admission order —
/// with `--json`, one `regmon run --json`-shaped document per session.
pub fn serve(argv: &[String]) -> Result<(), String> {
    let p = parse("serve", argv)?;
    let unix: String = p.value_or("unix", String::new())?;
    let tcp: String = p.value_or("tcp", String::new())?;
    if unix.is_empty() == tcp.is_empty() {
        return Err("serve needs exactly one of --unix PATH or --tcp ADDR".into());
    }
    let durable_dir: String = p.value_or("durable", String::new())?;
    let recover_dir: String = p.value_or("recover", String::new())?;
    if !durable_dir.is_empty() && !recover_dir.is_empty() && durable_dir != recover_dir {
        return Err("--durable and --recover must name the same directory".into());
    }
    let dir = if recover_dir.is_empty() {
        durable_dir
    } else {
        recover_dir.clone()
    };
    let durable = if dir.is_empty() {
        None
    } else {
        Some(regmon_serve::DurableOptions {
            dir: PathBuf::from(dir),
            checkpoint_every: p.value_or("checkpoint-every", 32u64)?,
            fsync: regmon_serve::FsyncPolicy::parse(
                &p.value_or("fsync", "checkpoint".to_string())?,
            )
            .map_err(|e| format!("--fsync: {e}"))?,
        })
    };
    let idle_ms: u64 = p.value_or("idle-timeout-ms", 30_000u64)?;
    let options = ServeOptions {
        shards: p.value_or("shards", 2)?,
        queue_depth: p.value_or("queue-depth", DEFAULT_QUEUE_DEPTH)?,
        expect_sessions: p.value_or("expect-sessions", 1)?,
        event_workers: p.value_or("event-workers", 2)?,
        durable,
        recover: !recover_dir.is_empty(),
        idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
        max_conns: p.value_or("max-conns", 0usize)?,
        drain_deadline: std::time::Duration::from_millis(
            p.value_or("drain-deadline-ms", 5_000u64)?,
        ),
    };
    if options.shards == 0
        || options.queue_depth == 0
        || options.expect_sessions == 0
        || options.event_workers == 0
    {
        return Err(
            "--shards/--queue-depth/--expect-sessions/--event-workers must be positive".into(),
        );
    }
    let trace_out: String = p.value_or("trace-out", String::new())?;
    if !trace_out.is_empty() {
        regmon_telemetry::set_enabled(true);
    }

    let report = serve_listener(&unix, &tcp, options)?;
    if !trace_out.is_empty() {
        write_trace(&trace_out)?;
    }

    eprintln!(
        "serve: {} session(s) over {} connection(s), {} frames, {} bytes",
        report.sessions.len(),
        report.connections,
        report.frames,
        report.bytes
    );
    if report.recovered > 0 {
        eprintln!(
            "serve: {} session(s) recovered from the write-ahead log",
            report.recovered
        );
    }
    if report.shed > 0 {
        eprintln!(
            "serve: {} connection(s) shed at the --max-conns limit",
            report.shed
        );
    }
    if report.stragglers > 0 {
        eprintln!(
            "serve: {} straggler connection(s) abandoned at the drain deadline",
            report.stragglers
        );
    }
    for err in &report.errors {
        eprintln!("serve: connection error: {err}");
    }
    for session in &report.sessions {
        if session.migrated {
            eprintln!("serve: session {:?} migrated away", session.name);
            continue;
        }
        let Some(summary) = &session.summary else {
            eprintln!("serve: session {:?} never finished", session.name);
            continue;
        };
        if p.flag("json") {
            println!(
                "{}",
                summary_json(session.config.formation.interprocedural, summary).render()
            );
        } else {
            print_summary_text(summary);
        }
    }
    Ok(())
}

/// A bidirectional client transport (unix or TCP socket).
trait Transport: std::io::Read + std::io::Write {
    /// Arms the socket read deadline (`None` waits forever).
    fn set_read_deadline(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()>;
}

impl Transport for std::net::TcpStream {
    fn set_read_deadline(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

#[cfg(unix)]
impl Transport for std::os::unix::net::UnixStream {
    fn set_read_deadline(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

#[cfg(unix)]
fn connect_stream(unix: &str, tcp: &str) -> Result<Box<dyn Transport>, String> {
    if unix.is_empty() {
        let stream = std::net::TcpStream::connect(tcp).map_err(|e| format!("--tcp {tcp}: {e}"))?;
        Ok(Box::new(stream))
    } else {
        let stream = std::os::unix::net::UnixStream::connect(unix)
            .map_err(|e| format!("--unix {unix}: {e}"))?;
        Ok(Box::new(stream))
    }
}

#[cfg(not(unix))]
fn connect_stream(unix: &str, tcp: &str) -> Result<Box<dyn Transport>, String> {
    if !unix.is_empty() {
        return Err("unix sockets are unavailable on this platform; use --tcp ADDR".into());
    }
    let stream = std::net::TcpStream::connect(tcp).map_err(|e| format!("--tcp {tcp}: {e}"))?;
    Ok(Box::new(stream))
}

/// Parses the shared `--retries/--timeout-ms/--backoff-ms` retry knobs.
fn parse_retry_policy(p: &crate::args::Parsed) -> Result<regmon_serve::RetryPolicy, String> {
    Ok(regmon_serve::RetryPolicy {
        retries: p.value_or("retries", 0u32)?,
        timeout: std::time::Duration::from_millis(p.value_or("timeout-ms", 5_000u64)?),
        backoff: std::time::Duration::from_millis(p.value_or("backoff-ms", 50u64)?),
    })
}

/// `regmon send <journal>` — stream a recorded journal to a live server.
///
/// With `--retries N` a dropped connection reconnects after a
/// deterministic exponential backoff and resumes from the last
/// interval the server acknowledged; `--resume` opens
/// even the first connection with the resume handshake, continuing a
/// stream a previous process started. On giving up the exit is
/// nonzero and the error reports the exact frame / interval position
/// reached. `--no-finish` streams the journal but leaves every
/// session open (for hand-off to a later `send --resume`).
pub fn send(argv: &[String]) -> Result<(), String> {
    let p = parse("send", argv)?;
    let journal = p.positional(0).ok_or("missing <journal> argument")?;
    let unix: String = p.value_or("unix", String::new())?;
    let tcp: String = p.value_or("tcp", String::new())?;
    if unix.is_empty() == tcp.is_empty() {
        return Err("send needs exactly one of --unix PATH or --tcp ADDR".into());
    }
    let resume = p.flag("resume");
    let policy = parse_retry_policy(&p)?;

    let frames =
        regmon_serve::read_journal(Path::new(journal)).map_err(|e| format!("{journal}: {e}"))?;
    let mut plan =
        regmon_serve::SendPlan::from_frames(frames).map_err(|e| format!("{journal}: {e}"))?;
    if p.flag("no-finish") {
        for session in &mut plan.sessions {
            session.finish = false;
        }
    }

    let deadline = (!policy.timeout.is_zero()).then_some(policy.timeout);
    let started = std::time::Instant::now();
    let outcome = regmon_serve::send_plan(
        || {
            let stream = connect_stream(&unix, &tcp).map_err(std::io::Error::other)?;
            stream.set_read_deadline(deadline)?;
            Ok(stream)
        },
        &plan,
        &policy,
        resume,
        None,
    )
    .map_err(|e| format!("send: {e}"))?;

    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let retried = if outcome.retries > 0 {
        format!(" ({} reconnect(s))", outcome.retries)
    } else {
        String::new()
    };
    eprintln!(
        "send: {} frames, {} bytes streamed, {} intervals, \
         {:.1} ms, {:.3} M intervals/s{retried}",
        outcome.frames,
        outcome.bytes,
        outcome.intervals,
        elapsed * 1e3,
        outcome.intervals as f64 / elapsed / 1e6,
    );
    Ok(())
}

/// `regmon migrate <journal>` — hand a live session from one server to
/// another mid-stream.
///
/// The journal (single tenant) is split at `--at N` intervals: the
/// first server ingests the prefix, a `Checkpoint` frame freezes and
/// retires the tenant there, and the returned session snapshot plus
/// the remaining intervals go to the second server, which finishes the
/// session byte-identically to an uninterrupted run.
pub fn migrate(argv: &[String]) -> Result<(), String> {
    let p = parse("migrate", argv)?;
    let journal = p.positional(0).ok_or("missing <journal> argument")?;
    let at: usize = p.value_or("at", 0)?;
    if at == 0 {
        return Err(
            "--at N (intervals before the hand-off) is required and must be positive".into(),
        );
    }
    let from: String = p.value_or("from", String::new())?;
    let from_tcp: String = p.value_or("from-tcp", String::new())?;
    let to: String = p.value_or("to", String::new())?;
    let to_tcp: String = p.value_or("to-tcp", String::new())?;
    if from.is_empty() == from_tcp.is_empty() {
        return Err("migrate needs exactly one of --from PATH or --from-tcp ADDR".into());
    }
    if to.is_empty() == to_tcp.is_empty() {
        return Err("migrate needs exactly one of --to PATH or --to-tcp ADDR".into());
    }
    let policy = parse_retry_policy(&p)?;
    let deadline = (!policy.timeout.is_zero()).then_some(policy.timeout);

    // Load and validate the journal: exactly one tenant, finished.
    let frames =
        regmon_serve::read_journal(Path::new(journal)).map_err(|e| format!("{journal}: {e}"))?;
    let full =
        regmon_serve::SendPlan::from_frames(frames).map_err(|e| format!("{journal}: {e}"))?;
    let session = match full.sessions.as_slice() {
        [] => return Err(format!("{journal}: journal admits no tenant")),
        [one] => one,
        _ => return Err(format!("{journal}: migrate needs a single-tenant journal")),
    };
    if !session.finish {
        return Err(format!("{journal}: journal has no Finish frame"));
    }
    let intervals = session.batches.concat();
    if at >= intervals.len() {
        return Err(format!(
            "--at {at}: journal only has {} intervals (the hand-off must happen mid-stream)",
            intervals.len()
        ));
    }
    let admit = session.admit.clone();
    let tenant = admit.tenant;
    let connect = |unix: &str, tcp: &str| {
        let unix = unix.to_string();
        let tcp = tcp.to_string();
        move || -> std::io::Result<Box<dyn Transport>> {
            let stream = connect_stream(&unix, &tcp).map_err(std::io::Error::other)?;
            stream.set_read_deadline(deadline)?;
            Ok(stream)
        }
    };

    // First server: prefix, then checkpoint-and-retire. Retrying is
    // safe on this leg — resume re-attaches to the half-fed session.
    let prefix = regmon_serve::SendPlan {
        sessions: vec![regmon_serve::SessionStream {
            admit: admit.clone(),
            snapshot: None,
            base: 0,
            batches: intervals[..at].chunks(32).map(<[_]>::to_vec).collect(),
            finish: false,
            checkpoint: true,
        }],
    };
    let first = regmon_serve::send_plan(connect(&from, &from_tcp), &prefix, &policy, false, None)
        .map_err(|e| format!("migrate (first server): {e}"))?;
    let snapshot = first
        .snapshots
        .into_iter()
        .next()
        .flatten()
        .ok_or("migrate: first server sent no Snapshot answer to Checkpoint")?;

    // Second server: adopt the snapshot, stream the rest.
    let mut suffix_frames = vec![Frame::Snapshot(Box::new(snapshot))];
    for chunk in intervals[at..].chunks(32) {
        suffix_frames.push(Frame::Batch {
            tenant,
            intervals: chunk.to_vec(),
        });
    }
    suffix_frames.push(Frame::Finish { tenant });
    let suffix =
        regmon_serve::SendPlan::from_frames(suffix_frames).map_err(|e| format!("migrate: {e}"))?;
    let second = regmon_serve::send_plan(connect(&to, &to_tcp), &suffix, &policy, false, None)
        .map_err(|e| format!("migrate (second server): {e}"))?;

    let retried = first.retries + second.retries;
    let retried = if retried > 0 {
        format!(" ({retried} reconnect(s))")
    } else {
        String::new()
    };
    eprintln!(
        "migrate: session {:?} handed off after {at}/{} intervals{retried}",
        admit.name,
        intervals.len(),
    );
    Ok(())
}

/// Drains the event journal and writes it to `path` as chrome://tracing
/// trace-event JSON.
fn write_trace(path: &str) -> Result<(), String> {
    let drained = regmon_telemetry::journal::drain();
    write_trace_events(path, &drained.events, drained.lost)
}

/// Writes already-drained journal events to `path` as chrome://tracing
/// trace-event JSON.
fn write_trace_events(
    path: &str,
    events: &[regmon_telemetry::journal::Event],
    lost: u64,
) -> Result<(), String> {
    let trace = regmon_telemetry::expo::trace_json(events);
    std::fs::write(path, trace).map_err(|e| format!("--trace-out {path}: {e}"))?;
    let lost = if lost > 0 {
        format!(" ({lost} lost to ring wraparound)")
    } else {
        String::new()
    };
    eprintln!("trace: {} events written to {path}{lost}", events.len());
    Ok(())
}

/// `regmon metrics` — run a short demo and print the registry, or
/// validate a previously written telemetry file with `--check`.
pub fn metrics(argv: &[String]) -> Result<(), String> {
    let p = parse("metrics", argv)?;

    let check: String = p.value_or("check", String::new())?;
    if !check.is_empty() {
        let text = std::fs::read_to_string(&check).map_err(|e| format!("--check {check}: {e}"))?;
        if text.trim_start().starts_with('{') {
            let doc = regmon_telemetry::parse::parse(&text).map_err(|e| format!("{check}: {e}"))?;
            if let Some(events) = doc.get("traceEvents").and_then(|v| v.as_array()) {
                if events.is_empty() {
                    return Err(format!("{check}: trace has no events"));
                }
                let change_points = events
                    .iter()
                    .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("cpd"))
                    .count();
                if change_points > 0 {
                    println!(
                        "ok: trace with {} events ({change_points} change-point)",
                        events.len()
                    );
                } else {
                    println!("ok: trace with {} events", events.len());
                }
            } else if doc.get("counters").is_some() {
                println!("ok: metrics snapshot");
            } else {
                return Err(format!("{check}: JSON is neither a trace nor a snapshot"));
            }
        } else {
            let samples = regmon_telemetry::expo::validate_prometheus(&text)
                .map_err(|e| format!("{check}: {e}"))?;
            if samples == 0 {
                return Err(format!("{check}: exposition has no samples"));
            }
            let cpd_samples = text
                .lines()
                .filter(|l| l.trim_start().starts_with("regmon_cpd_"))
                .count();
            if cpd_samples > 0 {
                println!("ok: prometheus exposition with {samples} samples ({cpd_samples} cpd)");
            } else {
                println!("ok: prometheus exposition with {samples} samples");
            }
        }
        return Ok(());
    }

    let w = workload(Some(p.positional(0).unwrap_or("181.mcf")))?;
    let intervals: usize = p.value_or("intervals", 60)?;
    let config = SessionConfig::new(45_000);
    regmon_telemetry::set_enabled(true);
    let _ = MonitoringSession::run_limited(&w, &config, intervals);
    if p.flag("json") {
        println!("{}", regmon_telemetry::expo::json_snapshot());
    } else {
        print!("{}", regmon_telemetry::expo::prometheus_text());
    }
    Ok(())
}

/// `regmon cpd` — offline change-point hunting over recorded telemetry.
///
/// `--trace FILE` replays a chrome://tracing journal (written by
/// `fleet --trace-out`) through the same streaming detectors the online
/// `fleet --cpd` path uses, so it finds the same change points;
/// `--bench FILE[,FILE...]` treats the numeric headline fields of
/// BENCH_*.json documents as one series per field across the files in
/// order — change-point detection over the repo's own committed bench
/// history. Output is ranked by confidence, then magnitude.
pub fn cpd(argv: &[String]) -> Result<(), String> {
    let p = parse("cpd", argv)?;
    let trace: String = p.value_or("trace", String::new())?;
    let bench: String = p.value_or("bench", String::new())?;
    if trace.is_empty() == bench.is_empty() {
        if let Some(pos) = p.positional(0) {
            if let Some(best) = closest(pos, &["--trace", "--bench"]) {
                return Err(format!(
                    "cpd does not take positional argument {pos:?}; did you mean {best}?"
                ));
            }
        }
        return Err("cpd needs exactly one of --trace FILE or --bench FILE[,FILE...]".into());
    }
    let ranked = if trace.is_empty() {
        cpd_over_bench_history(&bench)?
    } else {
        cpd_over_trace(&trace)?
    };
    let top: usize = p.value_or("top", 0)?;
    let shown: &[ChangePointRow] = if top > 0 && top < ranked.len() {
        &ranked[..top]
    } else {
        &ranked
    };

    if p.flag("json") {
        let rows: Vec<Json> = shown
            .iter()
            .map(|row| {
                Json::obj(vec![
                    ("series", Json::Str(row.label.clone())),
                    ("round", Json::Num(row.round as f64)),
                    ("magnitude", Json::Num(row.magnitude)),
                    ("confidence", Json::Num(row.confidence)),
                ])
            })
            .collect();
        let out = Json::obj(vec![
            (
                "source",
                Json::Str(if trace.is_empty() { bench } else { trace }),
            ),
            ("change_points", Json::Arr(rows)),
        ]);
        println!("{}", out.render());
        return Ok(());
    }

    if shown.is_empty() {
        println!("no change points detected");
        return Ok(());
    }
    println!(
        "{:<40} {:>6} {:>12} {:>11}",
        "series", "round", "magnitude", "confidence"
    );
    for row in shown {
        println!(
            "{:<40} {:>6} {:>+12.4} {:>10.1}%",
            row.label,
            row.round,
            row.magnitude,
            row.confidence * 100.0
        );
    }
    Ok(())
}

/// One ranked offline detection, already labeled for display.
struct ChangePointRow {
    label: String,
    round: u64,
    magnitude: f64,
    confidence: f64,
}

/// Ranks detections by confidence, then |magnitude|, breaking ties by
/// label and round so the output is deterministic.
fn rank_rows(mut rows: Vec<ChangePointRow>) -> Vec<ChangePointRow> {
    rows.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.magnitude.abs().total_cmp(&a.magnitude.abs()))
            .then_with(|| a.label.cmp(&b.label))
            .then(a.round.cmp(&b.round))
    });
    rows
}

/// Replays a trace artifact through the online feed's series mapping:
/// `interval_end` markers carry each tenant's dense UCR series (and
/// assign interval ordinals), `lpd_transition` events carry per-region
/// r/rt. Identical per-series point sequences mean identical
/// detections to `fleet --cpd`.
fn cpd_over_trace(path: &str) -> Result<Vec<ChangePointRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--trace {path}: {e}"))?;
    let doc = regmon_telemetry::parse::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{path}: not a trace (no traceEvents array)"))?;

    let mut hub = CpdHub::new(StreamConfig::default());
    let mut intervals_seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let field =
        |ev: &regmon_telemetry::parse::JsonValue, key: &str| ev.get(key).and_then(|v| v.as_f64());
    for ev in events {
        let Some(name) = ev.get("name").and_then(|v| v.as_str()) else {
            continue;
        };
        let Some(tenant) = field(ev, "pid") else {
            continue;
        };
        let tenant = tenant as u64;
        let Some(args) = ev.get("args") else {
            continue;
        };
        match name {
            "interval_end" => {
                let (Some(interval), Some(ucr)) = (field(args, "interval"), field(args, "ucr"))
                else {
                    continue;
                };
                let interval = interval as u64;
                intervals_seen.insert(tenant, interval + 1);
                hub.observe(
                    SeriesKey {
                        tenant,
                        region: NO_REGION,
                        metric: Metric::Ucr,
                    },
                    interval,
                    ucr,
                );
            }
            "lpd_transition" => {
                let (Some(region), Some(r), Some(rt)) =
                    (field(args, "region"), field(args, "r"), field(args, "rt"))
                else {
                    continue;
                };
                let ordinal = intervals_seen.get(&tenant).copied().unwrap_or(0);
                let region = region as u64;
                hub.observe(
                    SeriesKey {
                        tenant,
                        region,
                        metric: Metric::PearsonR,
                    },
                    ordinal,
                    r,
                );
                hub.observe(
                    SeriesKey {
                        tenant,
                        region,
                        metric: Metric::SimilarityThreshold,
                    },
                    ordinal,
                    rt,
                );
            }
            _ => {}
        }
    }
    hub.flush();
    let rows = hub
        .take_detections()
        .into_iter()
        .map(|cp| ChangePointRow {
            label: cp.series.label(),
            round: cp.round,
            magnitude: cp.magnitude,
            confidence: cp.confidence,
        })
        .collect();
    Ok(rank_rows(rows))
}

/// Batch change-point detection over bench-history documents: each
/// top-level numeric field of each file is one point in that field's
/// series, in file order. Histories are short, so the kernel runs with
/// a small minimum segment and more permutations.
fn cpd_over_bench_history(list: &str) -> Result<Vec<ChangePointRow>, String> {
    let files: Vec<&str> = list.split(',').filter(|f| !f.is_empty()).collect();
    if files.is_empty() {
        return Err("--bench: no files given".into());
    }
    let mut series: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("--bench {file}: {e}"))?;
        let doc = regmon_telemetry::parse::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        let members = doc
            .as_object()
            .ok_or_else(|| format!("{file}: not a JSON object"))?;
        for (key, value) in members {
            if let Some(v) = value.as_f64() {
                series.entry(key.clone()).or_default().push(v);
            } else if let Some(obj) = value.as_object() {
                // One level of nesting covers the snapshots' `headline`
                // objects, where the guarded figures live.
                for (inner, value) in obj {
                    if let Some(v) = value.as_f64() {
                        series.entry(format!("{key}.{inner}")).or_default().push(v);
                    }
                }
            }
        }
    }
    let config = EDivConfig {
        min_segment: 2,
        permutations: 199,
        ..EDivConfig::default()
    };
    let mut rows = Vec::new();
    for (name, values) in &series {
        for d in regmon_cpd::detect(values, &config) {
            rows.push(ChangePointRow {
                label: name.clone(),
                round: d.index as u64,
                magnitude: d.magnitude,
                confidence: d.confidence,
            });
        }
    }
    if series.values().all(|v| v.len() < 2 * config.min_segment) {
        eprintln!(
            "note: {} file(s) give series of at most {} point(s); change-point detection \
             needs at least {}",
            files.len(),
            series.values().map(Vec::len).max().unwrap_or(0),
            2 * config.min_segment
        );
    }
    Ok(rank_rows(rows))
}

/// `regmon baselines <benchmark>` — all three global schemes side by side.
pub fn baselines(argv: &[String]) -> Result<(), String> {
    let p = parse("baselines", argv)?;
    let w = workload(p.positional(0))?;
    let period = period_flag(&p, 45_000)?;
    let intervals: usize = p.value_or("intervals", 400)?;

    let config = SessionConfig::new(period);
    let mut session = MonitoringSession::new(config.clone());
    session.attach_binary(&w);
    let mut bbv = BbvDetector::new(BbvConfig::default());
    let mut wss = WssDetector::new(WssConfig::default());
    for interval in Sampler::new(&w, config.sampling).take(intervals) {
        bbv.observe(w.binary(), &interval.samples);
        wss.observe(w.binary(), &interval.samples);
        session.process_interval(&interval);
    }
    let summary = session.summary(w.name());

    println!(
        "== {} @ {period} cycles/interrupt, {} intervals ==",
        w.name(),
        summary.intervals
    );
    println!(
        "{:<26} {:>13} {:>10}",
        "detector", "phase changes", "% stable"
    );
    let rows = [
        (
            "centroid (paper GPD)",
            summary.gpd.phase_changes,
            summary.gpd.stable_fraction(),
        ),
        (
            "basic-block vector",
            bbv.stats().phase_changes,
            bbv.stats().stable_fraction(),
        ),
        (
            "working-set signature",
            wss.stats().phase_changes,
            wss.stats().stable_fraction(),
        ),
    ];
    for (label, changes, frac) in rows {
        println!("{label:<26} {changes:>13} {:>9.1}%", frac * 100.0);
    }
    println!(
        "{:<26} {:>13} {:>9.1}%   (per-region; the paper's contribution)",
        "local (LPD, mean region)",
        summary.lpd_total_phase_changes(),
        summary.lpd_mean_stable_fraction() * 100.0
    );
    Ok(())
}

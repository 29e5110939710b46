//! The four workloads: who the tenants are, their seeded PC-sample
//! intervals, the wire-v2 bytes a producer would send, and the
//! in-process reference every run is checked against.
//!
//! Everything here runs outside the timed windows. Sampling alone costs
//! 135–300 µs per interval, more than the pipeline it feeds.

use std::time::Instant;

use regmon::binary::Addr;
use regmon::{MonitoringSession, PruningConfig, SessionConfig};
use regmon_sampling::{Interval, Sampler};
use regmon_serve::wire::{AdmitFrame, Frame, WireDialect};
use regmon_workload::suite;

/// Loop-dominated programs: 2–8 regions, UCR ≈ 0, attribution-bound.
pub const LOOPS: [&str; 8] = [
    "171.swim",
    "172.mgrid",
    "168.wupwise",
    "187.facerec",
    "181.mcf",
    "183.equake",
    "188.ammp",
    "189.lucas",
];

/// Region-churning programs: 30–210 live regions, formation and
/// pruning on most intervals.
pub const CHURN: [&str; 6] = [
    "176.gcc",
    "197.parser",
    "255.vortex",
    "301.apsi",
    "186.crafty",
    "254.gap",
];

/// Pruning used by the churn tenants.
pub const CHURN_PRUNING: PruningConfig = PruningConfig {
    cold_intervals: 8,
    min_samples: 4,
};

/// Sampling period of every serve tenant.
pub const SERVE_PERIOD: u64 = 45_000;

/// The periods `regmon fleet` cycles through by default.
pub const FLEET_PERIODS: [u64; 3] = [45_000, 90_000, 450_000];

/// Tenants of the fleet workload.
pub const FLEET_TENANTS: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LPD traffic on loop programs, default session config.
    ServeLoops,
    /// Region churn with pruning on.
    ServeChurn,
    /// `ServeLoops` traffic into a durable (WAL + checkpoint) server.
    ServeDurable,
    /// Lockstep `run_fleet` with change-point detection.
    FleetCpd,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeLoops,
        Workload::ServeChurn,
        Workload::ServeDurable,
        Workload::FleetCpd,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLoops => "serve_loops",
            Workload::ServeChurn => "serve_churn",
            Workload::ServeDurable => "serve_durable",
            Workload::FleetCpd => "fleet_cpd",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Intervals per tenant in one timed repetition: enough that one
    /// repetition takes a few hundred milliseconds.
    #[must_use]
    pub fn default_intervals(self) -> usize {
        match self {
            Workload::FleetCpd => 96,
            _ => 200,
        }
    }

    /// The tenants: (program, session config, first degraded interval).
    #[must_use]
    pub fn tenants(self, intervals: usize) -> Vec<TenantPlan> {
        let plan = |program: &'static str, config: SessionConfig| TenantPlan {
            program,
            config,
            degrade_from: None,
        };
        match self {
            Workload::ServeLoops | Workload::ServeDurable => LOOPS
                .iter()
                .map(|p| plan(p, SessionConfig::new(SERVE_PERIOD)))
                .collect(),
            Workload::ServeChurn => CHURN
                .iter()
                .map(|p| plan(p, churn_config(SERVE_PERIOD)))
                .collect(),
            Workload::FleetCpd => (0..FLEET_TENANTS)
                .map(|i| {
                    let both = LOOPS.len() + CHURN.len();
                    let k = i % both;
                    let period = FLEET_PERIODS[i % FLEET_PERIODS.len()];
                    let mut t = if k < LOOPS.len() {
                        plan(LOOPS[k], SessionConfig::new(period))
                    } else {
                        plan(CHURN[k - LOOPS.len()], churn_config(period))
                    };
                    // One tenant degrades half-way, so detection and the
                    // significance test run on a real change.
                    if i == 1 {
                        t.degrade_from = Some(intervals / 2);
                    }
                    t
                })
                .collect(),
        }
    }
}

fn churn_config(period: u64) -> SessionConfig {
    let mut config = SessionConfig::new(period);
    config.pruning = Some(CHURN_PRUNING);
    config
}

/// One tenant of a workload, before its samples exist.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    /// Suite program the tenant samples.
    pub program: &'static str,
    /// Its session configuration.
    pub config: SessionConfig,
    /// From this interval on, the tenant's addresses move out of every
    /// region (the fleet driver's `degrade_from`).
    pub degrade_from: Option<usize>,
}

/// The seed of tenant `index`'s sample stream.
#[must_use]
pub fn tenant_seed(seed: u64, index: usize) -> u64 {
    seed ^ index as u64
}

/// The display name of tenant `index`.
#[must_use]
pub fn tenant_name(program: &str, index: usize) -> String {
    format!("{program}#{index}")
}

/// Builds tenant `index`'s seeded program model.
///
/// # Panics
///
/// If the program is not in the suite (the workload tables only name
/// suite programs).
#[must_use]
pub fn seeded_program(plan: &TenantPlan, seed: u64, index: usize) -> regmon_workload::Workload {
    suite::by_name(plan.program)
        .expect("workload tables name suite programs")
        .with_seed(tenant_seed(seed, index))
}

/// One tenant with its intervals.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name.
    pub name: String,
    /// The plan it was generated from.
    pub plan: TenantPlan,
    /// Its intervals, oldest first (already degraded where planned).
    pub intervals: Vec<Interval>,
}

/// A workload's generated input.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// The workload.
    pub workload: Workload,
    /// The seed it was generated from.
    pub seed: u64,
    /// Intervals requested per tenant.
    pub intervals: usize,
    /// Tenants in admission order.
    pub tenants: Vec<Tenant>,
    /// Wall time spent generating the samples, in seconds.
    pub generate_s: f64,
}

impl Traffic {
    /// Samples every tenant's first `intervals` intervals.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64, intervals: usize) -> Self {
        let start = Instant::now();
        let tenants = workload
            .tenants(intervals)
            .into_iter()
            .enumerate()
            .map(|(index, plan)| {
                let program = seeded_program(&plan, seed, index);
                let mut stream: Vec<Interval> = Sampler::new(&program, plan.config.sampling)
                    .take(intervals)
                    .collect();
                if let Some(from) = plan.degrade_from {
                    stream
                        .iter_mut()
                        .filter(|i| i.index >= from)
                        .for_each(degrade);
                }
                Tenant {
                    name: tenant_name(plan.program, index),
                    plan,
                    intervals: stream,
                }
            })
            .collect();
        Self {
            workload,
            seed,
            intervals,
            tenants,
            generate_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Intervals across all tenants.
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.tenants.iter().map(|t| t.intervals.len()).sum()
    }

    /// Each tenant's summary from a plain in-process `MonitoringSession`,
    /// as its `Debug` text (floats print exactly).
    #[must_use]
    pub fn reference(&self) -> Vec<String> {
        self.tenants
            .iter()
            .map(|t| {
                let program = suite::by_name(t.plan.program).expect("suite program");
                let mut session = MonitoringSession::new(t.plan.config.clone());
                session.attach_binary(&program);
                for interval in &t.intervals {
                    session.process_interval(interval);
                }
                format!("{:?}", session.summary(program.name()))
            })
            .collect()
    }

    /// The wire-v2 bytes of this traffic.
    #[must_use]
    pub fn encode(&self) -> Encoded {
        let admit = |index: usize, t: &Tenant| {
            Box::new(AdmitFrame {
                tenant: index as u32,
                name: t.name.clone(),
                workload: t.plan.program.to_string(),
                config: t.plan.config.clone(),
                max_intervals: t.intervals.len() as u64,
            })
        };
        let hello = Frame::Hello { version: 2 }.encode();
        let mut admission = hello.clone();
        let mut stream = hello;
        for (index, t) in self.tenants.iter().enumerate() {
            admission.extend(Frame::Admit(admit(index, t)).encode());
            stream.extend(Frame::Resume(admit(index, t)).encode());
        }
        // One Batch frame per interval, tenants interleaved, as
        // `regmon send` ships them.
        let dialect = WireDialect::v2(false);
        let longest = self
            .tenants
            .iter()
            .map(|t| t.intervals.len())
            .max()
            .unwrap_or(0);
        for k in 0..longest {
            for (index, t) in self.tenants.iter().enumerate() {
                if let Some(interval) = t.intervals.get(k) {
                    stream.extend(dialect.encode_frame(&Frame::Batch {
                        tenant: index as u32,
                        intervals: vec![interval.clone()],
                    }));
                }
            }
        }
        for index in 0..self.tenants.len() {
            stream.extend(
                Frame::Finish {
                    tenant: index as u32,
                }
                .encode(),
            );
        }
        Encoded { admission, stream }
    }
}

/// Moves every address of an interval out of the program image, as the
/// fleet driver does from a tenant's `degrade_from` interval on.
pub fn degrade(interval: &mut Interval) {
    const DEGRADE_BIT: u64 = 1 << 40;
    for s in &mut interval.samples {
        s.addr = Addr::new(s.addr.get() | DEGRADE_BIT);
    }
}

/// Pre-encoded producer connections.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Hello + `Admit` for every tenant: the set-up connection.
    pub admission: Vec<u8>,
    /// Hello + `Resume` for every tenant, every interval as its own
    /// `Batch` frame, then `Finish` for every tenant.
    pub stream: Vec<u8>,
}

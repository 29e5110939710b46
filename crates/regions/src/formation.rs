//! Region formation: building loop regions around hot unmonitored samples.
//!
//! Formation (paper §3.1) triggers when the UCR's share of an interval
//! exceeds a threshold (30% in the paper's study). It walks the
//! unattributed samples, finds the innermost loop containing each hot PC
//! *within its own procedure*, and adds a region per sufficiently-hot
//! loop. Samples in procedures whose loop lives in a *caller* cannot be
//! covered — the pathology that keeps 254.gap's and 186.crafty's UCR high
//! forever. The paper's proposed fix, inter-procedural regions, is
//! implemented behind [`FormationConfig::interprocedural`].

use regmon_binary::{AddrRange, Binary};
use regmon_sampling::PcSample;

use crate::monitor::RegionMonitor;
use crate::region::{RegionId, RegionKind};

/// Region-formation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormationConfig {
    /// UCR fraction above which formation triggers (paper: 30%).
    pub ucr_trigger: f64,
    /// Minimum unattributed samples landing in a loop before it becomes a
    /// region (filters one-off noise).
    pub min_region_samples: usize,
    /// When `true`, hot samples in loop-less procedures produce
    /// whole-procedure regions (the paper's future-work extension).
    pub interprocedural: bool,
}

impl Default for FormationConfig {
    fn default() -> Self {
        Self {
            ucr_trigger: 0.30,
            min_region_samples: 16,
            interprocedural: false,
        }
    }
}

/// What one formation pass did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FormationOutcome {
    /// Regions created this pass.
    pub new_regions: Vec<RegionId>,
    /// Unattributed samples that no loop (or procedure, when
    /// inter-procedural formation is off) could cover.
    pub uncoverable_samples: usize,
}

/// The region-formation algorithm.
#[derive(Debug, Clone, Default)]
pub struct RegionFormation {
    config: FormationConfig,
}

impl RegionFormation {
    /// Creates a formation pass with the given policy.
    #[must_use]
    pub fn new(config: FormationConfig) -> Self {
        Self { config }
    }

    /// The policy in use.
    #[must_use]
    pub fn config(&self) -> &FormationConfig {
        &self.config
    }

    /// `true` when an interval with this UCR fraction should trigger
    /// formation.
    #[must_use]
    pub fn should_trigger(&self, ucr_fraction: f64) -> bool {
        ucr_fraction > self.config.ucr_trigger
    }

    /// Builds regions for the unattributed samples of one interval.
    ///
    /// Each sample is classified with one code-map lookup
    /// ([`Binary::locate`]) into a dense counter: one per loop slot,
    /// one per procedure. Candidates are created loops first, then
    /// procedures, each group in range order, and go to the monitor in
    /// one [`RegionMonitor::add_regions`] call, so the attribution index
    /// is rebuilt once per pass. `interval` is recorded as each new
    /// region's creation time.
    pub fn form(
        &self,
        binary: &Binary,
        unattributed: &[PcSample],
        monitor: &mut RegionMonitor,
        interval: usize,
    ) -> FormationOutcome {
        // One counter per loop slot, then one per procedure (samples
        // outside its loops), then one for samples outside every
        // procedure. Each sample bumps exactly one counter; candidates
        // are read off the counters afterwards.
        let loops = binary.loop_count();
        let procs = binary.procedures().len();
        let mut hits = vec![0u32; loops + procs + 1];
        for s in unattributed {
            let counter = match binary.locate(s.addr) {
                Some((p, Some(lp))) => binary.loop_slot(p, lp),
                Some((p, None)) => loops + p.0,
                None => loops + procs,
            };
            hits[counter] += 1;
        }
        let (loop_hits, rest) = hits.split_at(loops);
        let (proc_hits, outside) = rest.split_at(procs);
        let mut uncoverable = outside[0] as usize;
        let mut loop_candidates: Vec<(AddrRange, usize, usize)> = loop_hits // (range, depth, count)
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(slot, &count)| {
                let (_, lp) = binary.loop_at_slot(slot);
                (lp.range(), lp.depth(), count as usize)
            })
            .collect();

        let mut outcome = FormationOutcome::default();
        let mut new: Vec<(AddrRange, RegionKind)> = Vec::new();
        // Deterministic creation order: by range.
        loop_candidates.sort_unstable_by_key(|&(range, _, _)| range);
        for (range, depth, count) in loop_candidates {
            if count < self.config.min_region_samples {
                outcome.uncoverable_samples += count;
                continue;
            }
            if monitor.has_range(range) {
                continue; // already monitored (e.g. re-formed after pruning race)
            }
            new.push((range, RegionKind::Loop { depth }));
        }
        // Procedures are in address order already. A procedure candidate
        // never equals a loop candidate of this pass: a loop lies inside
        // its procedure, and one spanning all of it leaves no samples
        // outside its loops.
        for (proc, &count) in binary.procedures().iter().zip(proc_hits) {
            if count == 0 {
                continue;
            }
            let (range, count) = (proc.range(), count as usize);
            if !self.config.interprocedural {
                uncoverable += count;
                continue;
            }
            if count < self.config.min_region_samples {
                outcome.uncoverable_samples += count;
                continue;
            }
            if monitor.has_range(range) {
                continue;
            }
            new.push((range, RegionKind::Procedure));
        }
        outcome.new_regions = monitor.add_regions(&new, interval);
        outcome.uncoverable_samples += uncoverable;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use regmon_binary::{Addr, BinaryBuilder};

    /// A binary with one looped procedure and one flat procedure called
    /// from a loop in a driver.
    fn test_binary() -> Binary {
        let mut b = BinaryBuilder::new("t");
        b.procedure("looped", |p| {
            p.straight(2);
            p.loop_(|l| {
                l.straight(10);
            });
        });
        b.procedure("flat", |p| {
            p.straight(30);
        });
        b.procedure("driver", |p| {
            p.loop_(|l| {
                l.call("flat");
            });
        });
        b.build(Addr::new(0x1000))
    }

    fn samples_in(range: AddrRange, n: usize) -> Vec<PcSample> {
        (0..n)
            .map(|i| PcSample {
                addr: range.start() + ((i as u64 * 4) % range.len()),
                cycle: i as u64,
            })
            .collect()
    }

    #[test]
    fn trigger_threshold() {
        let f = RegionFormation::new(FormationConfig::default());
        assert!(!f.should_trigger(0.30));
        assert!(f.should_trigger(0.31));
    }

    #[test]
    fn forms_loop_region_around_hot_samples() {
        let bin = test_binary();
        let lp = bin.procedure_by_name("looped").unwrap().loops()[0].range();
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let f = RegionFormation::new(FormationConfig::default());
        let outcome = f.form(&bin, &samples_in(lp, 100), &mut mon, 7);
        assert_eq!(outcome.new_regions.len(), 1);
        let region = mon.region(outcome.new_regions[0]).unwrap();
        assert_eq!(region.range(), lp);
        assert_eq!(region.kind(), RegionKind::Loop { depth: 0 });
        assert_eq!(region.created_interval(), 7);
    }

    #[test]
    fn flat_procedure_samples_are_uncoverable_without_interproc() {
        let bin = test_binary();
        let flat = bin.procedure_by_name("flat").unwrap().range();
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let f = RegionFormation::new(FormationConfig::default());
        let outcome = f.form(&bin, &samples_in(flat, 100), &mut mon, 0);
        assert!(outcome.new_regions.is_empty());
        assert_eq!(outcome.uncoverable_samples, 100);
        assert!(mon.is_empty());
    }

    #[test]
    fn interprocedural_covers_flat_procedures() {
        let bin = test_binary();
        let flat = bin.procedure_by_name("flat").unwrap().range();
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let f = RegionFormation::new(FormationConfig {
            interprocedural: true,
            ..FormationConfig::default()
        });
        let outcome = f.form(&bin, &samples_in(flat, 100), &mut mon, 0);
        assert_eq!(outcome.new_regions.len(), 1);
        assert_eq!(outcome.uncoverable_samples, 0);
        assert_eq!(
            mon.region(outcome.new_regions[0]).unwrap().kind(),
            RegionKind::Procedure
        );
    }

    #[test]
    fn cold_loops_are_filtered() {
        let bin = test_binary();
        let lp = bin.procedure_by_name("looped").unwrap().loops()[0].range();
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let f = RegionFormation::new(FormationConfig::default());
        let outcome = f.form(&bin, &samples_in(lp, 5), &mut mon, 0);
        assert!(outcome.new_regions.is_empty());
        assert_eq!(outcome.uncoverable_samples, 5);
    }

    #[test]
    fn existing_regions_are_not_duplicated() {
        let bin = test_binary();
        let lp = bin.procedure_by_name("looped").unwrap().loops()[0].range();
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let f = RegionFormation::new(FormationConfig::default());
        let first = f.form(&bin, &samples_in(lp, 100), &mut mon, 0);
        assert_eq!(first.new_regions.len(), 1);
        let second = f.form(&bin, &samples_in(lp, 100), &mut mon, 1);
        assert!(second.new_regions.is_empty());
        assert_eq!(mon.len(), 1);
    }

    #[test]
    fn stray_samples_outside_binary_are_uncoverable() {
        let bin = test_binary();
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let f = RegionFormation::new(FormationConfig {
            interprocedural: true,
            ..FormationConfig::default()
        });
        let strays = vec![PcSample {
            addr: Addr::new(0x9999_0000),
            cycle: 0,
        }];
        let outcome = f.form(&bin, &strays, &mut mon, 0);
        assert_eq!(outcome.uncoverable_samples, 1);
    }
}

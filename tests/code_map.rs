//! Integration: the code map and region formation against reference
//! implementations.
//!
//! `Binary::procedure_at` and `Binary::innermost_loop_at` answer from a
//! code map built once per image, and `RegionFormation::form` counts
//! samples in dense per-loop and per-procedure counters. The references
//! below are the straightforward versions they replace: a binary search
//! over procedures plus a scan of the procedure's loops, and formation
//! through a `HashMap` keyed by range with one `add_region` per
//! candidate. Every answer, outcome and region table must match.

use std::collections::HashMap;

use proptest::prelude::*;
use regmon::binary::{Addr, AddrRange, Binary, BinaryBuilder, CodeBuilder, LoopInfo, Procedure};
use regmon::regions::{
    FormationConfig, FormationOutcome, IndexKind, RegionFormation, RegionKind, RegionMonitor,
};
use regmon::sampling::PcSample;
use regmon::workload::suite;

// --- reference lookups ---------------------------------------------------

fn reference_procedure_at(binary: &Binary, addr: Addr) -> Option<&Procedure> {
    let procs = binary.procedures();
    let idx = procs.partition_point(|p| p.range().end() <= addr);
    procs.get(idx).filter(|p| p.range().contains(addr))
}

fn reference_innermost_loop_at(binary: &Binary, addr: Addr) -> Option<(&Procedure, &LoopInfo)> {
    let proc = reference_procedure_at(binary, addr)?;
    let lp = proc.innermost_loop_at(addr)?;
    Some((proc, lp))
}

/// Checks every address from 64 bytes before the first procedure to 64
/// bytes past the last one, unaligned addresses included.
fn assert_lookups_match(binary: &Binary) {
    let span = binary.code_span();
    let first = span.start().get().saturating_sub(64);
    let last = span.end().get() + 64;
    for a in first..last {
        let addr = Addr::new(a);
        let want_proc = reference_procedure_at(binary, addr).map(Procedure::id);
        let want_loop = reference_innermost_loop_at(binary, addr).map(|(p, l)| (p.id(), l.id()));
        assert_eq!(
            binary.procedure_at(addr).map(Procedure::id),
            want_proc,
            "{}: procedure_at {addr}",
            binary.name()
        );
        assert_eq!(
            binary
                .innermost_loop_at(addr)
                .map(|(p, l)| (p.id(), l.id())),
            want_loop,
            "{}: innermost_loop_at {addr}",
            binary.name()
        );
        let want_site = want_proc.map(|p| (p, want_loop.map(|(_, l)| l)));
        assert_eq!(
            binary.locate(addr),
            want_site,
            "{}: locate {addr}",
            binary.name()
        );
    }
}

// --- reference formation -------------------------------------------------

/// Formation as a per-range `HashMap` count with one `add_region` per
/// candidate, using the reference lookups.
fn reference_form(
    config: &FormationConfig,
    binary: &Binary,
    unattributed: &[PcSample],
    monitor: &mut RegionMonitor,
    interval: usize,
) -> FormationOutcome {
    let mut loop_hits: HashMap<AddrRange, (usize, usize)> = HashMap::new();
    let mut proc_hits: HashMap<AddrRange, usize> = HashMap::new();
    let mut uncoverable = 0usize;
    for s in unattributed {
        match reference_innermost_loop_at(binary, s.addr) {
            Some((_, lp)) => {
                let e = loop_hits.entry(lp.range()).or_insert((0, lp.depth()));
                e.0 += 1;
            }
            None => match reference_procedure_at(binary, s.addr) {
                Some(p) if config.interprocedural => {
                    *proc_hits.entry(p.range()).or_insert(0) += 1;
                }
                _ => uncoverable += 1,
            },
        }
    }
    let mut outcome = FormationOutcome::default();
    let mut loop_candidates: Vec<(AddrRange, (usize, usize))> = loop_hits.into_iter().collect();
    loop_candidates.sort_by_key(|(r, _)| *r);
    for (range, (count, depth)) in loop_candidates {
        if count < config.min_region_samples {
            outcome.uncoverable_samples += count;
            continue;
        }
        if monitor.has_range(range) {
            continue;
        }
        let id = monitor.add_region(range, RegionKind::Loop { depth }, interval);
        outcome.new_regions.push(id);
    }
    let mut proc_candidates: Vec<(AddrRange, usize)> = proc_hits.into_iter().collect();
    proc_candidates.sort_by_key(|(r, _)| *r);
    for (range, count) in proc_candidates {
        if count < config.min_region_samples {
            outcome.uncoverable_samples += count;
            continue;
        }
        if monitor.has_range(range) {
            continue;
        }
        let id = monitor.add_region(range, RegionKind::Procedure, interval);
        outcome.new_regions.push(id);
    }
    outcome.uncoverable_samples += uncoverable;
    outcome
}

// --- random inputs -------------------------------------------------------

/// splitmix64: a tiny deterministic generator for shaping inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random structured body: straight runs and loops nested up to three
/// deep, so sibling loops of equal depth are common.
fn random_body(rng: &mut Rng, code: &mut CodeBuilder, depth: usize) {
    for _ in 0..1 + rng.below(4) {
        if depth < 3 && rng.below(3) > 0 {
            code.loop_(|inner| random_body(rng, inner, depth + 1));
        } else {
            code.straight(1 + rng.below(6) as usize);
        }
    }
}

/// A random image: loop-less and looped procedures, at an arbitrary
/// (possibly unaligned) base, with alignment gaps between procedures.
fn random_binary(seed: u64) -> Binary {
    let mut rng = Rng(seed);
    let mut b = BinaryBuilder::new(format!("random-{seed}"));
    for p in 0..1 + rng.below(8) {
        let loopless = rng.below(4) == 0;
        b.procedure(format!("p{p}"), |code| {
            if loopless {
                code.straight(1 + rng.below(40) as usize);
            } else {
                random_body(&mut rng, code, 0);
            }
        });
    }
    b.build(Addr::new(0x1000 + rng.below(0x100)))
}

/// Random unattributed samples: hot clusters inside loops and
/// procedures (so some candidates pass `min_region_samples`), stray
/// addresses around the image and degraded (bit-40) addresses.
fn random_samples(rng: &mut Rng, binary: &Binary) -> Vec<PcSample> {
    let span = binary.code_span();
    let procs = binary.procedures();
    let mut hot: Vec<AddrRange> = procs.iter().map(Procedure::range).collect();
    hot.extend(
        procs
            .iter()
            .flat_map(|p| p.loops().iter().map(LoopInfo::range)),
    );
    let mut samples = Vec::new();
    for cycle in 0..rng.below(3_000) {
        let addr = match rng.below(10) {
            0..=5 => {
                let r = hot[rng.below(hot.len().min(6) as u64) as usize];
                r.start() + rng.below(r.len())
            }
            6 | 7 => Addr::new(span.start().get().saturating_sub(64) + rng.below(span.len() + 128)),
            8 => {
                let r = hot[rng.below(hot.len() as u64) as usize];
                r.start() + rng.below(r.len())
            }
            _ => Addr::new((span.start().get() + rng.below(span.len())) | 1 << 40),
        };
        samples.push(PcSample { addr, cycle });
    }
    samples
}

/// Runs formation and the reference on identical monitors (some
/// candidate ranges already monitored) and compares everything.
fn assert_formation_matches(binary: &Binary, seed: u64) {
    let mut rng = Rng(seed);
    for interprocedural in [false, true] {
        let config = FormationConfig {
            interprocedural,
            ..FormationConfig::default()
        };
        let mut got = RegionMonitor::new(IndexKind::FlatSorted);
        let mut want = RegionMonitor::new(IndexKind::FlatSorted);
        let procs = binary.procedures();
        for _ in 0..rng.below(4) {
            let p = &procs[rng.below(procs.len() as u64) as usize];
            let (range, kind) = match p.loops().first() {
                Some(lp) if rng.below(2) == 0 => {
                    (lp.range(), RegionKind::Loop { depth: lp.depth() })
                }
                _ => (p.range(), RegionKind::Procedure),
            };
            got.add_region(range, kind, 0);
            want.add_region(range, kind, 0);
        }
        let formation = RegionFormation::new(config);
        for interval in 1..4 {
            let samples = random_samples(&mut rng, binary);
            let outcome = formation.form(binary, &samples, &mut got, interval);
            let expected = reference_form(&config, binary, &samples, &mut want, interval);
            assert_eq!(
                outcome,
                expected,
                "{} seed {seed} interproc {interprocedural}",
                binary.name()
            );
            assert_eq!(got.export(), want.export(), "{} seed {seed}", binary.name());
            assert_eq!(
                got.distribute(&samples),
                want.distribute(&samples),
                "{}",
                binary.name()
            );
        }
    }
}

// --- tests ---------------------------------------------------------------

#[test]
fn code_map_matches_reference_on_every_suite_program() {
    for name in suite::names() {
        let w = suite::by_name(name).expect("suite name");
        assert_lookups_match(w.binary());
    }
}

#[test]
fn formation_matches_reference_on_every_suite_program() {
    for (i, name) in suite::names().into_iter().enumerate() {
        let w = suite::by_name(name).expect("suite name");
        assert_formation_matches(w.binary(), i as u64);
    }
}

#[test]
fn loop_slots_round_trip() {
    for name in suite::names() {
        let w = suite::by_name(name).expect("suite name");
        let binary = w.binary();
        let mut slot = 0;
        for p in binary.procedures() {
            for lp in p.loops() {
                assert_eq!(binary.loop_slot(p.id(), lp.id()), slot);
                let (q, l) = binary.loop_at_slot(slot);
                assert_eq!((q.id(), l.id()), (p.id(), lp.id()));
                slot += 1;
            }
        }
        assert_eq!(binary.loop_count(), slot);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn code_map_matches_reference_on_random_images(seed in 0u64..1_000_000) {
        assert_lookups_match(&random_binary(seed));
    }

    #[test]
    fn formation_matches_reference_on_random_images(seed in 0u64..1_000_000) {
        assert_formation_matches(&random_binary(seed), seed);
    }
}

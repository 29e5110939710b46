//! The whole program image: procedures plus the inter-procedural call map.

use crate::addr::{Addr, AddrRange};
use crate::codemap::CodeMap;
use crate::inst::Instruction;
use crate::loops::{LoopId, LoopInfo};
use crate::proc::{ProcId, Procedure};
use core::fmt;

/// A resolved call site: an instruction in `caller` targeting `callee`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    caller: ProcId,
    at: Addr,
    callee_name: String,
    target: Addr,
}

impl CallSite {
    /// Creates a call-site record.
    #[must_use]
    pub fn new(caller: ProcId, at: Addr, callee_name: impl Into<String>, target: Addr) -> Self {
        Self {
            caller,
            at,
            callee_name: callee_name.into(),
            target,
        }
    }

    /// The calling procedure.
    #[must_use]
    pub fn caller(&self) -> ProcId {
        self.caller
    }

    /// Address of the call instruction.
    #[must_use]
    pub fn at(&self) -> Addr {
        self.at
    }

    /// The callee's name.
    #[must_use]
    pub fn callee_name(&self) -> &str {
        &self.callee_name
    }

    /// The callee's entry address.
    #[must_use]
    pub fn target(&self) -> Addr {
        self.target
    }
}

/// A synthetic program image.
///
/// Procedures are laid out in ascending, non-overlapping address ranges.
/// Address queries resolve through a code map built at construction:
/// one table lookup, whatever the image size.
#[derive(Debug, Clone, PartialEq)]
pub struct Binary {
    name: String,
    procedures: Vec<Procedure>,
    call_sites: Vec<CallSite>,
    /// `loop_base[p]` is the loop slot of procedure `p`'s first loop;
    /// the last entry is the image's loop count.
    loop_base: Vec<u32>,
    code_map: CodeMap,
}

impl Binary {
    /// Assembles a binary from procedures and resolved call sites.
    ///
    /// # Panics
    ///
    /// Panics if procedure ranges are not ascending and disjoint, or if
    /// procedure ids are not the dense sequence `0..procs.len()`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        procedures: Vec<Procedure>,
        call_sites: Vec<CallSite>,
    ) -> Self {
        for (i, p) in procedures.iter().enumerate() {
            assert_eq!(p.id().0, i, "procedure ids must be dense and in order");
            if i > 0 {
                assert!(
                    procedures[i - 1].range().end() <= p.range().start(),
                    "procedures must be laid out in ascending disjoint ranges"
                );
            }
        }
        let mut loop_base = Vec::with_capacity(procedures.len() + 1);
        let mut slots = 0u32;
        loop_base.push(0);
        for p in &procedures {
            slots += u32::try_from(p.loops().len()).expect("loop count fits u32");
            loop_base.push(slots);
        }
        let code_map = CodeMap::build(&procedures);
        Self {
            name: name.into(),
            procedures,
            call_sites,
            loop_base,
            code_map,
        }
    }

    /// The binary's name (e.g. `"181.mcf"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All procedures, in address order, indexed by [`ProcId`].
    #[must_use]
    pub fn procedures(&self) -> &[Procedure] {
        &self.procedures
    }

    /// The procedure with the given id.
    #[must_use]
    pub fn procedure(&self, id: ProcId) -> &Procedure {
        &self.procedures[id.0]
    }

    /// Looks a procedure up by name.
    #[must_use]
    pub fn procedure_by_name(&self, name: &str) -> Option<&Procedure> {
        self.procedures.iter().find(|p| p.name() == name)
    }

    /// Where `addr` falls, from one code-map lookup: the procedure whose
    /// range contains it and the innermost loop of that procedure
    /// containing it (as [`Procedure::innermost_loop_at`] picks it), or
    /// `None` outside every procedure. Ids only, so a caller that keeps
    /// per-procedure or per-loop state in flat arrays touches no
    /// procedure data at all.
    #[inline]
    #[must_use]
    pub fn locate(&self, addr: Addr) -> Option<(ProcId, Option<LoopId>)> {
        self.code_map.lookup(addr)
    }

    /// The procedure whose range contains `addr`, if any.
    #[must_use]
    pub fn procedure_at(&self, addr: Addr) -> Option<&Procedure> {
        let (p, _) = self.locate(addr)?;
        Some(self.procedure(p))
    }

    /// The innermost loop containing `addr`, with its procedure.
    #[must_use]
    pub fn innermost_loop_at(&self, addr: Addr) -> Option<(&Procedure, &LoopInfo)> {
        let (p, lp) = self.locate(addr)?;
        let proc = self.procedure(p);
        Some((proc, proc.loop_info(lp?)))
    }

    /// Number of loops across all procedures: the exclusive bound of
    /// [`Binary::loop_slot`].
    #[must_use]
    pub fn loop_count(&self) -> usize {
        *self
            .loop_base
            .last()
            .expect("loop_base has procs + 1 entries") as usize
    }

    /// The dense index of loop `lp` of procedure `proc` among all the
    /// image's loops, in procedure order and then [`Procedure::loops`]
    /// order. Lets callers keep per-loop state in a flat array.
    #[must_use]
    pub fn loop_slot(&self, proc: ProcId, lp: LoopId) -> usize {
        self.loop_base[proc.0] as usize + lp.0
    }

    /// The loop at dense index `slot` (see [`Binary::loop_slot`]), with
    /// its procedure.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.loop_count()`.
    #[must_use]
    pub fn loop_at_slot(&self, slot: usize) -> (&Procedure, &LoopInfo) {
        // The last procedure whose first slot is at or below `slot`;
        // loop-less procedures share their successor's first slot.
        let p = self
            .loop_base
            .partition_point(|&base| base as usize <= slot)
            - 1;
        let proc = &self.procedures[p];
        (proc, &proc.loops()[slot - self.loop_base[p] as usize])
    }

    /// The span from the first procedure's start to the last one's end
    /// (empty when the image has no procedures). Every procedure range
    /// lies inside it.
    #[must_use]
    pub fn code_span(&self) -> AddrRange {
        match (self.procedures.first(), self.procedures.last()) {
            (Some(first), Some(last)) => AddrRange::new(first.range().start(), last.range().end()),
            _ => AddrRange::default(),
        }
    }

    /// The instruction at `addr`, if any.
    #[must_use]
    pub fn instruction_at(&self, addr: Addr) -> Option<&Instruction> {
        self.procedure_at(addr)?.instruction_at(addr)
    }

    /// All resolved call sites.
    #[must_use]
    pub fn call_sites(&self) -> &[CallSite] {
        &self.call_sites
    }

    /// Call sites whose callee is `name`.
    pub fn callers_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a CallSite> + 'a {
        self.call_sites
            .iter()
            .filter(move |cs| cs.callee_name() == name)
    }

    /// `true` when some call site inside a loop of `caller` targets the
    /// procedure named `callee`.
    ///
    /// This is the structure behind the paper's §3.1 pathology: a hot
    /// callee whose loop lives in the *caller* cannot have a loop region
    /// built around its own samples.
    #[must_use]
    pub fn is_called_from_loop(&self, callee: &str) -> bool {
        self.callers_of(callee).any(|cs| {
            self.procedure(cs.caller())
                .innermost_loop_at(cs.at())
                .is_some()
        })
    }

    /// Total number of instructions across all procedures.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.procedures.iter().map(|p| p.instructions().len()).sum()
    }
}

impl fmt::Display for Binary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "binary {} ({} procedures)",
            self.name,
            self.procedures.len()
        )?;
        for p in &self.procedures {
            writeln!(
                f,
                "  {} {} ({} insts, {} loops)",
                p.range(),
                p.name(),
                p.instructions().len(),
                p.loops().len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BinaryBuilder;

    fn two_proc_binary() -> Binary {
        let mut b = BinaryBuilder::new("t");
        b.procedure("callee", |p| {
            p.loop_(|l| {
                l.straight(4);
            });
        });
        b.procedure("caller", |p| {
            p.loop_(|l| {
                l.straight(2);
                l.call("callee");
            });
        });
        b.build(Addr::new(0x10000))
    }

    #[test]
    fn procedure_at_finds_correct_procedure() {
        let bin = two_proc_binary();
        let callee = bin.procedure_by_name("callee").unwrap();
        let caller = bin.procedure_by_name("caller").unwrap();
        assert_eq!(
            bin.procedure_at(callee.range().start()).unwrap().name(),
            "callee"
        );
        assert_eq!(
            bin.procedure_at(caller.range().end() - 4).unwrap().name(),
            "caller"
        );
        assert!(bin.procedure_at(Addr::new(0)).is_none());
        assert!(bin.procedure_at(caller.range().end()).is_none());
    }

    #[test]
    fn procedure_at_gap_between_procs_is_none() {
        let bin = two_proc_binary();
        let callee = bin.procedure_by_name("callee").unwrap();
        let caller = bin.procedure_by_name("caller").unwrap();
        // If alignment introduced a gap, addresses there resolve to no
        // procedure.
        if callee.range().end() < caller.range().start() {
            assert!(bin.procedure_at(callee.range().end()).is_none());
        }
    }

    #[test]
    fn innermost_loop_at_crosses_procedures() {
        let bin = two_proc_binary();
        let callee = bin.procedure_by_name("callee").unwrap();
        let in_loop = callee.loops()[0].range().start();
        let (p, l) = bin.innermost_loop_at(in_loop).unwrap();
        assert_eq!(p.name(), "callee");
        assert_eq!(l.depth(), 0);
    }

    #[test]
    fn called_from_loop_detection() {
        let bin = two_proc_binary();
        assert!(bin.is_called_from_loop("callee"));
        assert!(!bin.is_called_from_loop("caller"));
    }

    #[test]
    fn display_lists_procedures() {
        let bin = two_proc_binary();
        let s = bin.to_string();
        assert!(s.contains("callee"));
        assert!(s.contains("caller"));
    }

    #[test]
    fn inst_count_sums_procedures() {
        let bin = two_proc_binary();
        let total: usize = bin
            .procedures()
            .iter()
            .map(|p| p.instructions().len())
            .sum();
        assert_eq!(bin.inst_count(), total);
    }
}

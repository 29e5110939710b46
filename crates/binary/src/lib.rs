//! Synthetic binary model for the `regmon` phase-detection library.
//!
//! The paper's runtime optimizer (ADORE/SPARC) samples the program counter
//! of a real SPEC CPU2000 binary and forms optimization regions around hot
//! *loops*. This crate provides the stand-in for those binaries: a fully
//! synthetic but structurally faithful model of a program image —
//! procedures laid out in one address space, each with instructions, basic
//! blocks, a control-flow graph, and natural loops detected from CFG back
//! edges via dominator analysis.
//!
//! The phase detectors downstream only ever observe *addresses* and region
//! metadata, so a synthetic address space exercises exactly the same code
//! paths as a real binary would (see `DESIGN.md` §2 for the substitution
//! argument).
//!
//! # Example
//!
//! ```
//! use regmon_binary::{Addr, BinaryBuilder};
//!
//! let mut b = BinaryBuilder::new("toy");
//! b.procedure("main", |p| {
//!     p.straight(4);
//!     p.loop_(|l| {
//!         l.straight(8);
//!         l.loop_(|inner| {
//!             inner.straight(3);
//!         });
//!     });
//!     p.straight(2);
//! });
//! let bin = b.build(Addr::new(0x10000));
//!
//! let main = bin.procedure_by_name("main").unwrap();
//! assert_eq!(main.loops().len(), 2); // outer + inner
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod addr;
pub mod binary;
pub mod builder;
pub mod cfg;
mod codemap;
pub mod inst;
pub mod loops;
pub mod proc;

pub use addr::{Addr, AddrRange};
pub use binary::{Binary, CallSite};
pub use builder::{BinaryBuilder, CodeBuilder};
pub use cfg::{BasicBlock, BlockId, Cfg};
pub use inst::{InstKind, Instruction, INST_BYTES};
pub use loops::{LoopId, LoopInfo};
pub use proc::{ProcId, Procedure};

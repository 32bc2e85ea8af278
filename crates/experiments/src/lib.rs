//! # bc-experiments — the reproduction harness
//!
//! One module (and one binary) per table/figure of the paper, plus the
//! §6 overlay extension. See DESIGN.md's experiment index for the
//! mapping and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Binaries accept `--trees N --tasks N --seed N --full --out DIR`;
//! defaults are laptop-sized, `--full` is paper scale.

pub mod campaign;
pub mod cli;
pub mod doc_blocks;
pub mod elasticity;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fuzz;
pub mod goldens;
pub mod latency_load;
pub mod overlay;
pub mod rational_baseline;
pub mod resilience;
pub mod startup;
pub mod table1;
pub mod table2;
pub mod utilization;

//! The four workloads. Each file holds one world, its window loop, its
//! output checks and the isolated probes of the layers it crosses.

pub mod advance_mix;
pub mod paper_establish;
pub mod serve;
pub mod serve_probes;

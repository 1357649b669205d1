//! Host-time benchmark of the embodied-suite simulator.
//!
//! Three workloads stress different layers; the untraced run reports
//! end-to-end host throughput and tail, and a separate traced run
//! attributes host time to layers. See `README.md` beside this crate.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux clocks and /proc: build it on 64-bit Linux");

pub mod bench;
pub mod calib;
pub mod host;
pub mod ledger;
pub mod spans;
pub mod stats;
pub mod workload;

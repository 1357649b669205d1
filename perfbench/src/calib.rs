//! The op clock and the host-speed probe.
//!
//! Ops are timed in on-CPU time of the whole process, so time spent
//! descheduled behind other processes is not billed to the simulator, while
//! work the program hands to threads of its own is. The benchmark itself
//! runs no other threads. The host is also shared at the core level, and
//! its speed drifts by up to ~2x over tens of minutes as other tenants
//! come and go. A fixed probe that shares no code with the simulator is timed
//! every [`PERIOD_MS`] between ops, and each op's time is scaled by
//! `PROBE_REF_NS / (median of the last WINDOW probes)`: the time the op
//! would have taken on the reference host. A change to the simulator moves
//! op times and not the probe, so it shows in full.

use crate::stats::median;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU time of this process since it was started, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid, aligned and exclusively borrowed for the call;
    // on 64-bit Linux `timespec` is two 64-bit fields, as `Timespec` is laid
    // out, and the build is restricted to that target in `lib.rs`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "the process CPU-time clock is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Probe time on the reference host (2-core x86-64 Linux VM), ns. Scaled
/// times read as times on that host.
pub const PROBE_REF_NS: f64 = 400_000.0;
/// Minimum spacing between probes.
pub const PERIOD_MS: u128 = 20;
/// Probes the local speed estimate takes the median of.
const WINDOW: usize = 5;

/// One probe: string building, hashing, small allocations and a sort —
/// the instruction mix of the simulator's prompt and memory paths, in code
/// of its own. Returns its on-CPU time in ns.
pub fn probe() -> u64 {
    let start = process_cpu_ns();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut keys: Vec<u64> = Vec::with_capacity(256);
    let mut text = String::new();
    let mut acc = 0u64;
    for round in 0..24u64 {
        text.clear();
        keys.clear();
        for i in 0..256u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.push(x);
            if i % 8 == 0 {
                text.push_str(&format!("agent {round} sees item {} at {}; ", x % 97, i));
            }
        }
        keys.sort_unstable();
        let words: Vec<&str> = text.split(' ').collect();
        for w in &words {
            for b in w.bytes() {
                acc = (acc ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        acc ^= keys[128] ^ words.len() as u64;
    }
    black_box(acc);
    process_cpu_ns() - start
}

/// Tracks host speed from probes taken between ops.
#[derive(Debug)]
pub struct SpeedProbe {
    recent: VecDeque<f64>,
    last: Instant,
    /// Probes taken.
    pub probes: u64,
    /// Sum of probe times, ns.
    pub total_ns: u64,
}

impl SpeedProbe {
    /// A tracker with its window of probes taken.
    pub fn new() -> Self {
        let mut p = SpeedProbe {
            recent: VecDeque::with_capacity(WINDOW + 1),
            last: Instant::now(),
            probes: 0,
            total_ns: 0,
        };
        for _ in 0..WINDOW {
            p.sample();
        }
        p
    }

    /// Takes a probe now.
    pub fn sample(&mut self) {
        let ns = probe();
        self.probes += 1;
        self.total_ns += ns;
        self.recent.push_back(ns as f64);
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
        self.last = Instant::now();
    }

    /// Takes a probe if [`PERIOD_MS`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_millis() >= PERIOD_MS {
            self.sample();
        }
    }

    /// Factor turning host time measured now into reference-host time.
    pub fn factor(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        PROBE_REF_NS / median(&recent)
    }
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_probes_take_time() {
        let before = process_cpu_ns();
        assert!(probe() > 0);
        assert!(process_cpu_ns() > before);
        let speed = SpeedProbe::new();
        assert!(speed.factor().is_finite() && speed.factor() > 0.0);
    }
}

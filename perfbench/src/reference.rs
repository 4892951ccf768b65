//! The host-speed reference: a fixed, allocation-heavy loop owned by the
//! benchmark (no program code), timed after every measured window.
//!
//! Shared 2-vCPU virtual machines slow down by 20–50% for seconds to
//! minutes at a time, and the slow spells hit allocation- and
//! pointer-heavy code (the service, the router, this loop) far more than
//! pure arithmetic. Whole runs land inside such spells, so the median of
//! a run's windows cannot remove them. Host-time figures are therefore
//! reported at the reference's nominal speed: each window's rate and
//! latencies, and each set-up with its admissions, are scaled by the
//! local slowdown, the median of the last [`LOCAL`] probe times over
//! [`NOMINAL_S`]. The run's median slowdown and its raw median throughput
//! are printed on the detail line.

use crate::stats::median;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// The reference loop's time on a quiet 2-core x86 host, seconds.
pub const NOMINAL_S: f64 = 270e-6;

/// Probes behind one local slowdown: one probe is noisy (consecutive
/// probes differ by a median 7%), host spells last seconds.
pub const LOCAL: usize = 9;

const KEYS: u64 = 2048;
const STEPS: usize = 4096;

/// The reference loop and the times it has taken in this run.
#[derive(Debug, Default)]
pub struct Reference {
    map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>>,
    times: Vec<f64>,
}

impl Reference {
    /// Runs the loop once (the same seeded inserts and removes of small
    /// heap buffers every time) and returns the local slowdown.
    pub fn probe(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KEYS;
            if x & 1 == 0 {
                self.map.insert(key, vec![x as u8; (x % 48) as usize]);
            } else {
                self.map.remove(&key);
            }
        }
        std::hint::black_box(self.map.len());
        self.times.push(start.elapsed().as_secs_f64());
        self.local()
    }

    /// [`LOCAL`] fresh probes: the slowdown right after a set-up, which
    /// has no windows of its own.
    pub fn settle(&mut self) -> f64 {
        for _ in 1..LOCAL {
            self.probe();
        }
        self.probe()
    }

    /// The median of the last [`LOCAL`] probe times over [`NOMINAL_S`]
    /// (1 before any probe).
    #[must_use]
    pub fn local(&self) -> f64 {
        let recent = &self.times[self.times.len().saturating_sub(LOCAL)..];
        median(recent).map_or(1.0, |t| t / NOMINAL_S)
    }

    /// The run's median probe time over [`NOMINAL_S`].
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        median(&self.times).map_or(1.0, |t| t / NOMINAL_S)
    }

    /// Probes taken so far.
    #[must_use]
    pub fn probes(&self) -> usize {
        self.times.len()
    }
}

/// `ns` at nominal host speed under slowdown `f`.
#[must_use]
pub fn at_nominal(ns: u64, f: f64) -> u64 {
    (ns as f64 / f) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_slowdown_is_the_median_of_recent_probes() {
        let mut r = Reference::default();
        assert_eq!(r.local(), 1.0);
        assert_eq!(r.slowdown(), 1.0);
        // an early slow spell, then nominal speed
        r.times = vec![4.0 * NOMINAL_S; 20];
        r.times.extend(vec![NOMINAL_S; LOCAL]);
        assert!((r.local() - 1.0).abs() < 1e-12, "only recent probes count");
        assert!(
            (r.slowdown() - 4.0).abs() < 1e-12,
            "the run was mostly slow"
        );
        assert!(r.settle() > 0.0);
        assert_eq!(r.probes(), 20 + 2 * LOCAL);
        assert_eq!(at_nominal(3000, 1.5), 2000);
    }
}

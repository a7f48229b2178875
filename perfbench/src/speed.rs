//! Host speed, from a fixed reference loop timed between ops.
//!
//! The shared host this benchmark was set up on slows down by up to a
//! half for seconds to minutes at a time, as other tenants contend for
//! the core and its caches. Medians over a run cannot remove a slow
//! phase that lasts most of the run. A loop that does the same work
//! every time slows down with the host, so every op time is scaled by
//! the loop's nominal time over the loop's time measured around that
//! op: it reads as on a host where the loop takes its nominal time. The
//! loop shares nothing with the program, so a change to the program
//! moves the scaled times as much as the raw ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Keys in the reference table: about 2 MiB with values and control
/// bytes, a working set of the simulator's order.
const KEYS: u64 = 1 << 16;
/// Table lookups and inserts in one sample.
const TABLE_STEPS: u64 = 150_000;
/// SplitMix64 rounds in one sample.
const MIX_ROUNDS: u64 = 1_000_000;
/// A time the loop takes on the reference host, a 2-vCPU Intel Xeon
/// VM, where it ranged from about 4.5 to 9 ms; any fixed value would
/// do, this one keeps scaled times near raw ones there.
const NOMINAL: Duration = Duration::from_micros(6_000);
/// Least time from the end of one sample to the next: ops are timed in
/// groups at least this long, and the loop's share of a run stays near
/// a twentieth.
const INTERVAL: Duration = Duration::from_millis(100);

/// Fixed hasher keys, so every run builds the same table.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Scales op times by the reference loop's time around them.
///
/// Ops go into numbered slots. An op waits until the next sample; its
/// scaled time is its raw time times the nominal time over the mean of
/// the samples before and after it.
pub struct HostSpeed {
    table: Table,
    /// The latest sample.
    prev: Duration,
    /// When the latest sample ended.
    last: Instant,
    /// Ops since the latest sample: slot and raw time.
    pending: Vec<(usize, Duration)>,
    /// Per slot: scaled times in seconds.
    scaled: Vec<Vec<f64>>,
    /// Per pair of samples: nominal over their mean.
    factors: Vec<f64>,
}

/// What a `HostSpeed` gathered.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaled {
    /// Per slot: the median scaled time in seconds.
    pub medians: Vec<f64>,
    /// The median factor raw times were scaled by.
    pub factor: f64,
}

impl HostSpeed {
    /// Build the table and take a first sample, for ops in `slots`
    /// slots.
    pub fn new(slots: usize) -> HostSpeed {
        let mut speed = HostSpeed {
            table: (0..KEYS).map(|k| (k, k)).collect(),
            prev: Duration::ZERO,
            last: Instant::now(),
            pending: Vec::new(),
            scaled: vec![Vec::new(); slots],
            factors: Vec::new(),
        };
        speed.prev = speed.sample();
        speed
    }

    /// An op of slot `slot` took `raw`. Takes a sample once the ops
    /// since the last one have lasted `INTERVAL`.
    pub fn record(&mut self, slot: usize, raw: Duration) {
        self.pending.push((slot, raw));
        if self.last.elapsed() >= INTERVAL {
            self.flush();
        }
    }

    /// Scale the waiting ops and give each slot's median.
    ///
    /// Panics if a slot has no op.
    pub fn finish(mut self) -> Scaled {
        if !self.pending.is_empty() {
            self.flush();
        }
        Scaled {
            medians: self.scaled.iter().map(|v| median(v)).collect(),
            factor: median(&self.factors),
        }
    }

    fn flush(&mut self) {
        let next = self.sample();
        let factor = NOMINAL.as_secs_f64() / ((self.prev + next).as_secs_f64() / 2.0);
        for (slot, raw) in self.pending.drain(..) {
            self.scaled[slot].push(raw.as_secs_f64() * factor);
        }
        self.factors.push(factor);
        self.prev = next;
    }

    fn sample(&mut self) -> Duration {
        let t = Instant::now();
        black_box(self.work());
        self.last = Instant::now();
        self.last - t
    }

    /// The same arithmetic and the same table steps on every call.
    fn work(&mut self) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut acc = 0;
        for _ in 0..MIX_ROUNDS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            acc ^= z ^ (z >> 31);
        }
        for _ in 0..TABLE_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = (x >> 33) % KEYS;
            if x & 3 == 0 {
                self.table.insert(key, x);
            } else {
                acc ^= self.table[&key];
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_scaled_by_the_samples_around_them() {
        let mut speed = HostSpeed::new(2);
        let ms = Duration::from_millis;
        speed.record(0, ms(10));
        speed.record(1, ms(30));
        speed.record(0, ms(20));
        speed.last -= INTERVAL;
        speed.record(1, ms(50));
        assert!(speed.pending.is_empty());
        assert_eq!(speed.table.len() as u64, KEYS);
        let Scaled { medians, factor } = speed.finish();
        assert!(factor > 0.0 && factor.is_finite());
        // One pair of samples scaled every op by the same factor.
        assert!((medians[0] - 0.015 * factor).abs() < 1e-12);
        assert!((medians[1] - 0.040 * factor).abs() < 1e-12);
    }
}

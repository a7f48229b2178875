//! Order statistics and the seeded permutation of op order.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least one
/// sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64: a small, fully specified generator, so a seed gives the
/// same op order on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn permutation_is_seeded() {
        let a = Rng::new(7).permutation(16);
        assert_eq!(a, Rng::new(7).permutation(16));
        assert_ne!(a, Rng::new(8).permutation(16));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..16).collect::<Vec<_>>());
    }
}

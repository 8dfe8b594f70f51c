//! Small numeric helpers: a seeded generator, order statistics, and the
//! process's peak resident memory.

/// SplitMix64: a tiny seeded generator, so the inputs depend on the
/// seed alone and on no crate's choice of algorithm.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A seed derived from `seed` and a stream number.
    pub fn mix(seed: u64, stream: u64) -> u64 {
        Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Up to `n` indices spread evenly over `0..len`.
pub fn spread_indices(len: usize, n: usize) -> Vec<usize> {
    let step = len.div_ceil(n.max(1)).max(1);
    (0..len).step_by(step).collect()
}

/// The `q`-quantile of `values` by nearest rank (`None` when empty).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(10.0));
        assert_eq!(quantile(&v, 0.95), Some(19.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::mix(1, 2), Rng::mix(2, 2));
    }
}

//! Small numeric helpers: a seeded generator for the benchmark's own
//! choices (crash points, preload picks), and the order statistics every
//! host-time metric is reported through.

/// SplitMix64: the benchmark's own seeded stream. The op tapes come from
/// `cxl0-workloads`; this one only derives sub-seeds and picks crash
/// points, so it needs no statistical pedigree beyond being a bijection.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`; the modulo bias is irrelevant at
    /// the ranges used here).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// One-shot mix of a seed with a stream label.
pub fn mix(seed: u64, label: u64) -> u64 {
    SplitMix::new(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `compare` applies the same
/// spread rule the driver does. Fewer than two samples have no spread:
/// both quartiles are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// How many consecutive groups [`steady`] cuts a run's samples into.
const GROUPS: usize = 10;

/// Reduces samples taken in time order over a run to one value: the
/// mean, over ten consecutive tenths of the run, of each tenth's
/// median. The median inside a tenth discards stalls; the mean across
/// tenths weighs the machine's slow and fast spells (which last
/// seconds on a shared sandbox, and differ by up to 2×) by the time
/// spent in each — where a plain median of a two-humped sample jumps
/// from one hump to the other as the mix crosses one half (README,
/// "Host time"). Fewer than twenty samples are too few to group: their
/// plain median is returned.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn steady(samples: &[f64]) -> f64 {
    if samples.len() < 2 * GROUPS {
        return median(samples);
    }
    let medians: Vec<f64> = (0..GROUPS)
        .map(|g| median(&samples[g * samples.len() / GROUPS..(g + 1) * samples.len() / GROUPS]))
        .collect();
    medians.iter().sum::<f64>() / GROUPS as f64
}

/// The `q`-quantile of an ascending `sorted` slice by nearest rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of integer samples (upper middle for even counts), 0 if empty.
pub fn median_u32(values: &mut [u32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    f64::from(values[values.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn steady_discards_stalls_and_weighs_spells_by_time() {
        // One level with a stall in every tenth: the stalls vanish.
        let mut v = vec![100.0; 50];
        for g in 0..10 {
            v[g * 5] = 1.0;
        }
        assert_eq!(steady(&v), 100.0);
        // Three tenths of the run in a fast spell: 0.3 of the way up,
        // where the plain median would still read the slow level.
        let spells: Vec<f64> = (0..100)
            .map(|i| if i < 30 { 200.0 } else { 100.0 })
            .collect();
        assert_eq!(steady(&spells), 130.0);
        assert_eq!(median(&spells), 100.0);
        // Too few samples to group.
        assert_eq!(steady(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500);
        assert_eq!(quantile_sorted(&v, 0.999), 999);
        assert_eq!(quantile_sorted(&v, 1.0), 1000);
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let mut c = SplitMix::new(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!((10..20).contains(&a.range(10, 20)));
    }
}

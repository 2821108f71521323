//! Estimators and the small containers they read from: percentiles,
//! quartile spread, fixed-memory latency samples, and the FNV digest used
//! for answers and inputs.

use rand::rngs::StdRng;
use rand::Rng;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, linearly interpolated
/// between the two nearest ranks. 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spread printed here is the
/// one the acceptance rule computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0 or there are fewer than two values).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The window's better-quartile slice: of one reading per slice, the
/// value a quarter of the way in from the best. What disturbs a run on a
/// shared host — a neighbour on the core, a descheduled vCPU — only ever
/// makes a slice worse, and for seconds at a time. So the median slice
/// moves with how many of a window's seconds were hit, the better
/// quartile only with whether a quarter of them were spared: with two
/// processes busy half the time beside the benchmark, ten 20-s runs of
/// `validate_feeds` spread by 0.29–0.37 read by their median slice and by
/// 0.16–0.23 read by this one; left alone, by 0.12–0.14 and 0.10–0.12.
pub fn better_quartile(per_slice: &[f64], lower_is_better: bool) -> f64 {
    let q = if lower_is_better { 0.25 } else { 0.75 };
    percentile_sorted(&sorted(per_slice), q)
}

/// Latency samples in fixed memory: exact up to `cap` samples, a uniform
/// reservoir (Vitter's algorithm R) beyond it. The generator's memory —
/// and with it `peak_rss_mib` — must not grow when the service gets
/// faster and a window holds more operations.
pub struct Reservoir {
    samples: Vec<u32>,
    cap: usize,
    seen: u64,
    max: u32,
    rng: StdRng,
}

impl Reservoir {
    pub fn new(cap: usize, rng: StdRng) -> Reservoir {
        Reservoir {
            samples: Vec::new(),
            cap,
            seen: 0,
            max: 0,
            rng,
        }
    }

    /// Record one latency in nanoseconds (saturating at ~4.29 s).
    pub fn push(&mut self, nanos: u64) {
        let v = nanos.min(u32::MAX as u64) as u32;
        self.max = self.max.max(v);
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = self.rng.random_range(0..self.seen);
            if (j as usize) < self.cap {
                self.samples[j as usize] = v;
            }
        }
    }

    #[cfg(test)]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn max_nanos(&self) -> u32 {
        self.max
    }

    pub fn samples(&self) -> &[u32] {
        &self.samples
    }
}

/// Sorted microsecond view over one or more reservoirs.
pub fn merged_micros<'a>(parts: impl IntoIterator<Item = &'a Reservoir>) -> Vec<f64> {
    let mut all: Vec<f64> = parts
        .into_iter()
        .flat_map(|r| r.samples().iter().map(|&n| n as f64 / 1000.0))
        .collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    all
}

/// FNV-1a, 64 bit: the digest of canonical answers and of the op list.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, data: &[u8]) -> Fnv {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// A field: its bytes and a separator no value contains, so that
    /// ("ab","c") and ("a","bc") digest differently.
    pub fn field(self, s: &str) -> Fnv {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn num(self, n: u64) -> Fnv {
        self.bytes(&n.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(|x| x as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 3.0);
        assert_eq!(percentile_sorted(&v, 0.9), 4.6);
        assert_eq!(percentile_sorted(&v, 1.0), 5.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
    /// == [3.5, 13.5, 31.0]
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 31.0));
        assert!((iqr_share(&v) - 27.5 / 13.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn better_quartile_is_a_quarter_in_from_the_best() {
        // Nine slices; sorted: 90 95 100 100 101 102 104 150 300.
        let p50s = [100.0, 300.0, 95.0, 101.0, 150.0, 100.0, 90.0, 104.0, 102.0];
        assert_eq!(better_quartile(&p50s, true), 100.0);
        assert_eq!(better_quartile(&p50s, false), 104.0);
        // Between ranks it interpolates: sorted 1 2 3 4, rank 0.75.
        assert_eq!(better_quartile(&[4.0, 1.0, 3.0, 2.0], true), 1.75);
        assert_eq!(better_quartile(&[], true), 0.0);
    }

    #[test]
    fn reservoir_is_exact_below_cap_and_bounded_above() {
        let mut r = Reservoir::new(100, StdRng::seed_from_u64(1));
        for i in 0..100u64 {
            r.push(i * 1000);
        }
        assert_eq!(
            merged_micros([&r]),
            (0..100).map(|i| i as f64).collect::<Vec<_>>()
        );
        for i in 100..100_000u64 {
            r.push(i * 1000);
        }
        assert_eq!(r.samples().len(), 100);
        assert_eq!(r.seen(), 100_000);
        assert_eq!(r.max_nanos(), 99_999_000);
        // A uniform sample of 0..100k has its median near 50k.
        let m = percentile_sorted(&merged_micros([&r]), 0.5);
        assert!((30_000.0..70_000.0).contains(&m), "{m}");
    }

    #[test]
    fn digest_separates_fields() {
        let a = Fnv::new().field("ab").field("c").0;
        let b = Fnv::new().field("a").field("bc").0;
        assert_ne!(a, b);
    }
}

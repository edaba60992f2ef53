//! Small statistics and hashing helpers shared by the workloads and the
//! probes: quantiles over host timings, sample summaries, and a 64-bit
//! FNV-1a digest over result bits.

use mdls_pipeline::Solution;
use multidouble::MdReal;

/// Quantile `q` of an ascending slice, interpolating linearly between
/// the two nearest ranks (the convention of Python's
/// `statistics.quantiles(..., method="inclusive")`). Empty input gives 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Nearest-rank percentile of an ascending slice — the convention the
/// pipeline's own latency summaries use, so simulated tails computed
/// here match the program's reports exactly.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sample count, quartiles and median of one timed quantity.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
        }
    }
}

/// 64-bit FNV-1a over the bit patterns fed to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Every limb of every entry of a multiple double vector.
    pub fn reals<T: MdReal>(&mut self, xs: &[T]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            for i in 0..T::LIMBS {
                self.f64(x.limb(i));
            }
        }
    }

    /// A pipeline solution, tagged with its rung.
    pub fn solution(&mut self, x: &Solution) {
        self.u64(x.precision().limbs() as u64);
        match x {
            Solution::D1(v) => self.reals(v),
            Solution::D2(v) => self.reals(v),
            Solution::D4(v) => self.reals(v),
            Solution::D8(v) => self.reals(v),
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// `/proc/self/status` field `VmHWM` (peak resident set), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_ranks_do_not() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(nearest_rank(&s, 0.5), 2.0);
        assert_eq!(nearest_rank(&s, 0.99), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_sees_every_limb() {
        let a = [multidouble::Dd::from_f64(1.0)];
        let b = [multidouble::Dd::from_f64(1.0) + multidouble::Dd::from_f64(1e-20)];
        let (mut da, mut db) = (Digest::default(), Digest::default());
        da.reals(&a);
        db.reals(&b);
        assert_ne!(da.value(), db.value());
    }
}

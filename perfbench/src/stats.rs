//! Order statistics and digests shared by every workload.

/// FNV-1a over a byte stream, folded incrementally so a digest can
/// cover many inputs without concatenating them.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a length-prefixed string, so `("ab","c")` and `("a","bc")`
    /// digest differently.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`q` in `0..=1`); `None` for no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The middle value, or the mean of the two middle values of an even
/// count (so a run of two passes is not read at its faster one).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The percentiles a tail may be reported at, lowest first.
const TAILS: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Quartiles `[Q1, median, Q3]` by the rule of Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive"), so spreads
/// computed here match the ones computed from the printed values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        1 => Some([v[0]; 3]),
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (i, slot) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The geometric mean of positive values; `None` for no samples.
pub fn geomean(values: &[f64]) -> Option<f64> {
    mean(&values.iter().map(|v| v.ln()).collect::<Vec<_>>()).map(f64::exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(39), Some(0.5));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[]), None);
        assert_eq!(relative_spread(&ten), Some((8.25 - 2.75) / 5.5));
    }

    #[test]
    fn geometric_mean_of_positive_values() {
        assert_eq!(geomean(&[]), None);
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_field_boundaries() {
        let a = Fnv::default().str("ab").str("c").finish();
        let b = Fnv::default().str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_eq!(a, Fnv::default().str("ab").str("c").finish());
    }
}

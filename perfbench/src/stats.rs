//! Small numeric helpers: quartiles, the simulated-statistics digest and
//! the peak-RSS probe.

/// Median of `values` (the mean of the middle pair for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile of `values`, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (the
/// "exclusive" method). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let at = |i: usize| {
                let (mut j, mut delta) = (i * m / 4, i * m % 4);
                if j < 1 {
                    (j, delta) = (1, 0);
                }
                if j > len - 1 {
                    (j, delta) = (len - 1, 4);
                }
                (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// FNV-1a over a stream of `u64` words: the digest of an operation's
/// simulated statistics. It hashes numbers, not report JSON, so a
/// deliberate change to the JSON layout leaves it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one number into the digest.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0]), (1.0, 2.0, 3.0));
    }
}

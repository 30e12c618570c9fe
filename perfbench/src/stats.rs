//! Small numeric helpers: medians, nearest-rank percentiles, per-item best
//! times, the FNV-1a output digest and the process's peak resident memory.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`; 0 for an
/// empty slice.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fastest host time of each item over repeated passes. Every pass
/// repeats the same items in the same order, so item `i`'s minimum is its
/// cost with the least interference from the rest of the machine: on a
/// shared host whose speed wanders for tens of seconds at a time, it is the
/// time of a short item that stays put between runs.
#[derive(Debug, Clone, Default)]
pub struct BestTimes(Vec<u64>);

impl BestTimes {
    /// Folds one pass's item times, in item order, into the minima.
    pub fn record(&mut self, times: impl IntoIterator<Item = u64>) {
        for (i, ns) in times.into_iter().enumerate() {
            match self.0.get_mut(i) {
                Some(best) => *best = (*best).min(ns),
                None => self.0.push(ns),
            }
        }
    }

    /// Each item's fastest time, in item order.
    pub fn ns(&self) -> &[u64] {
        &self.0
    }

    /// The sum of the fastest times.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Host time of one fixed kernel that uses none of the repository's code:
/// xorshift numbers sorted, then folded into an ordered map. It allocates,
/// branches and walks memory much as a pipeline run does, so its time moves
/// with the host's speed and not with any change to the program.
pub fn calibration_ns() -> u64 {
    let start = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut values: Vec<u64> = (0..32_768)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut map = std::collections::BTreeMap::new();
    for (i, v) in values.iter().enumerate() {
        *map.entry(v % 4096).or_insert(0u64) += i as u64;
    }
    std::hint::black_box(map.values().sum::<u64>());
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// [`calibration_ns`] on the host the benchmark's numbers are scaled to: a
/// 2-vCPU VM, where the kernel's fastest time was about 2.9 ms.
pub const CALIBRATION_REFERENCE_NS: f64 = 2.9e6;

/// The fastest [`calibration_ns`] seen during a run. A run's timed items are
/// each taken at their fastest, so the kernel is too: both then describe
/// the host at its quickest during the run, and their ratio does not depend
/// on how fast the shared host happened to be.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    best_ns: u64,
    samples: usize,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            best_ns: u64::MAX,
            samples: 0,
        }
    }
}

impl Calibration {
    /// Runs the kernel once and keeps its time if it is the fastest yet.
    pub fn sample(&mut self) {
        self.best_ns = self.best_ns.min(calibration_ns());
        self.samples += 1;
    }

    /// How many times the kernel ran.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The kernel's fastest time in nanoseconds.
    pub fn best_ns(&self) -> u64 {
        self.best_ns
    }

    /// The factor that turns a host time measured in this run into one on
    /// the reference host: reference kernel time ÷ this run's fastest.
    pub fn scale(&self) -> f64 {
        CALIBRATION_REFERENCE_NS / self.best_ns.max(1) as f64
    }
}

/// FNV-1a over little-endian words: the digest of every simulated
/// statistic a pass produces. Order-sensitive, so callers feed runs in
/// input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float by its exact bit pattern.
    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&values, 50.0), 50);
        assert_eq!(percentile(&values, 99.0), 99);
        assert_eq!(percentile(&values, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn best_times_keep_each_items_minimum() {
        let mut best = BestTimes::default();
        best.record([5, 3]);
        best.record([4, 6, 9]);
        assert_eq!(best.ns(), [4, 3, 9]);
        assert_eq!(best.total_ns(), 16);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }
}

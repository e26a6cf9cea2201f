//! Seeded input generation.
//!
//! `--seed` feeds one [`SplitMix64`]; everything random a workload uses —
//! payload bytes, the `bursty` tenant's phase, kill-schedule jitter, the
//! scripted sensor snapshots — is drawn from streams forked off it. The
//! program under test receives only the generated inputs, never the seed.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, full-period, and good
/// enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one named purpose, so that adding a
    /// draw to one input never shifts another input's values.
    pub fn fork(&self, label: &str) -> Self {
        let mut s = Self(self.0 ^ fnv1a(label.as_bytes()));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over bytes: the schedule/decision checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Folds one more word into an FNV-1a state.
pub fn fnv1a_word(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Due times (ns from the run's start) of a fixed-rate arrival schedule
/// covering `[0, duration_s)`: task `i` is due at `i / rate`.
pub fn uniform_schedule(rate: f64, duration_s: f64) -> Vec<u64> {
    let n = (rate * duration_s).floor() as u64;
    (0..n).map(|i| (i as f64 * 1e9 / rate) as u64).collect()
}

/// Due times of an on/off source: `rate` tasks/s during the first
/// `on_s` of every `period_s`, silent otherwise, the whole pattern
/// shifted by `phase_s`.
pub fn burst_schedule(
    rate: f64,
    on_s: f64,
    period_s: f64,
    phase_s: f64,
    duration_s: f64,
) -> Vec<u64> {
    let per_burst = (rate * on_s).floor() as u64;
    let mut due = Vec::new();
    let mut start = phase_s - period_s;
    while start < duration_s {
        for i in 0..per_burst {
            let t = start + i as f64 / rate;
            if (0.0..duration_s).contains(&t) {
                due.push((t * 1e9) as u64);
            }
        }
        start += period_s;
    }
    due
}

/// Merges per-source schedules into one `(due_ns, source)` list ordered
/// by due time (ties by source index), for a single generator thread.
pub fn merge_schedules(sources: &[Vec<u64>]) -> Vec<(u64, usize)> {
    let mut all: Vec<(u64, usize)> = sources
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.iter().map(move |&d| (d, i)))
        .collect();
    all.sort_unstable();
    all
}

/// Checksum of a schedule: equal seeds must give equal hashes.
pub fn schedule_hash(due: impl IntoIterator<Item = u64>) -> u64 {
    due.into_iter().fold(fnv1a(b"schedule"), fnv1a_word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.bytes(33), b.bytes(33));
        let root = SplitMix64::new(7);
        assert_ne!(
            root.fork("payload").next_u64(),
            root.fork("kills").next_u64()
        );
        assert_eq!(
            root.fork("payload").next_u64(),
            root.fork("payload").next_u64()
        );
    }

    #[test]
    fn uniform_schedule_has_rate_times_duration_entries() {
        let s = uniform_schedule(20_000.0, 0.5);
        assert_eq!(s.len(), 10_000);
        assert_eq!(s[1] - s[0], 50_000);
    }

    #[test]
    fn burst_schedule_is_silent_outside_bursts() {
        let s = burst_schedule(4_000.0, 0.25, 1.0, 0.1, 3.0);
        assert_eq!(s.len(), 3_000);
        assert!(s.iter().all(|&d| {
            // A microsecond of slack either side for the ns truncation.
            let in_period = (d as f64 / 1e9 - 0.1 + 1e-6).rem_euclid(1.0);
            in_period < 0.25 + 2e-6
        }));
    }

    #[test]
    fn merge_orders_by_due_time() {
        let m = merge_schedules(&[vec![10, 30], vec![20]]);
        assert_eq!(m, vec![(10, 0), (20, 1), (30, 0)]);
    }
}

//! Measurement utilities: summaries, percentiles, histograms, typed
//! per-layer counters and the FNV-1a digest hash.
//!
//! Every experiment binary in `lln-bench` reports through these types so
//! that the regenerated tables and figures are computed uniformly.

/// Collects samples and reports count/mean/min/max/percentiles.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample; 0 if empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
            .pipe_finite()
    }

    /// Largest sample; 0 if empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// Percentile in `[0, 100]` using nearest-rank; 0 if empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples[rank.clamp(1, n) - 1]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Access to the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Fixed-bin histogram over `[lo, hi)`; out-of-range samples clamp to the
/// end bins. Used to report RTT distributions (Figures 13 and 14).
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0);
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            count: 0,
        }
    }

    /// Adds a sample (clamped into range).
    pub fn add(&mut self, v: f64) {
        let frac = (v - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.bins.len() as f64) as isize).clamp(0, self.bins.len() as isize - 1)
            as usize;
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Iterator over `(bin_center, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + width * (i as f64 + 0.5), c))
    }
}

/// A counter key: a `Copy` enum whose variants index a name table.
///
/// `NAMES` is in byte-wise sorted order (the order of `str`'s `Ord`),
/// `NAMES[k.index()]` is `k`'s name, and `ALL` lists every variant in
/// index order. Declare keys with [`counter_keys!`](crate::counter_keys),
/// which derives all three from one list.
pub trait CounterKey: Copy + 'static {
    /// Counter names, sorted byte-wise, indexed by [`CounterKey::index`].
    const NAMES: &'static [&'static str];
    /// Every key, in index order.
    const ALL: &'static [Self];
    /// This key's slot in [`CounterKey::NAMES`].
    fn index(self) -> usize;
}

/// Declares a [`CounterKey`](crate::stats::CounterKey) enum from
/// `Variant = "name"` pairs, which must be listed in byte-wise name
/// order.
#[macro_export]
macro_rules! counter_keys {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $label:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        $vis enum $name {
            $($(#[$vmeta])* $variant),+
        }

        impl $crate::stats::CounterKey for $name {
            const NAMES: &'static [&'static str] = &[$($label),+];
            const ALL: &'static [Self] = &[$(Self::$variant),+];
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// Most keys one [`Counters`] set holds: its touched set is one `u64`.
pub const MAX_COUNTER_KEYS: usize = 64;

/// A monotonically accumulating counter set over one layer's keys `K`.
/// Layers use this for frame/segment/drop accounting (Figure 6d).
///
/// Values sit in a fixed inline array indexed by key, beside a bit set of
/// the keys ever added to, so an update is an index and a bit-or: no
/// hashing, no string compare, no allocation. Readers see names:
/// [`Counters::get`] looks one up in `K::NAMES`, and [`Counters::iter`]
/// yields every key ever added to, adds of 0 included, in name order.
/// Outcome digests fold that sequence, so both are part of the contract.
#[derive(Clone)]
pub struct Counters<K> {
    values: [u64; MAX_COUNTER_KEYS],
    touched: u64,
    keys: std::marker::PhantomData<K>,
}

impl<K: CounterKey> Counters<K> {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        const { assert!(K::NAMES.len() <= MAX_COUNTER_KEYS) };
        Counters {
            values: [0; MAX_COUNTER_KEYS],
            touched: 0,
            keys: std::marker::PhantomData,
        }
    }

    /// Adds `n` to counter `key`.
    #[inline]
    pub fn add(&mut self, key: K, n: u64) {
        let i = key.index();
        self.values[i] += n;
        self.touched |= 1 << i;
    }

    /// Increments counter `key` by one.
    #[inline]
    pub fn inc(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Reads counter `name` (0 if unknown or never touched).
    pub fn get(&self, name: &str) -> u64 {
        K::NAMES
            .binary_search_by(|probe| (**probe).cmp(name))
            .map_or(0, |i| self.values[i])
    }

    /// Iterates touched counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        (0..K::NAMES.len())
            .filter(|&i| self.touched >> i & 1 != 0)
            .map(|i| (K::NAMES[i], self.values[i]))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Self) {
        for (v, o) in self.values.iter_mut().zip(other.values) {
            *v += o;
        }
        self.touched |= other.touched;
    }
}

impl<K: CounterKey> Default for Counters<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: CounterKey> std::fmt::Debug for Counters<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// 64-bit FNV-1a: the one hash behind every stable digest in the
/// workspace (stats digests, determinism pins). Words are
/// fed little-endian, so a digest is the same on every host.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hash at the standard offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Folds `bytes` in order.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds `v` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Digest of a word sequence, each word folded with
    /// [`Fnv1a::write_u64`].
    pub fn digest_words(words: &[u64]) -> u64 {
        let mut h = Self::new();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_test_vectors() {
        // FNV-1a 64-bit reference vectors (Fowler/Noll/Vo test suite).
        let hash = |s: &str| {
            let mut h = Fnv1a::new();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
        // Words are their little-endian bytes.
        let mut w = Fnv1a::new();
        w.write_bytes(&7u64.to_le_bytes());
        assert_eq!(Fnv1a::digest_words(&[7]), w.finish());
    }

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.add(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn empty_summary_is_safe() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new();
        for v in 1..=100 {
            s.add(v as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(1.0), 1.0);
    }

    #[test]
    fn median_unsorted_input() {
        let mut s = Summary::new();
        for v in [9.0, 1.0, 5.0] {
            s.add(v);
        }
        assert_eq!(s.median(), 5.0);
        s.add(2.0);
        assert_eq!(s.median(), 2.0); // nearest-rank on 4 samples -> 2nd
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(9.9);
        h.add(-5.0); // clamps to first bin
        h.add(50.0); // clamps to last bin
        assert_eq!(h.count(), 4);
        let bins: Vec<(f64, u64)> = h.iter().collect();
        assert_eq!(bins[0].1, 2);
        assert_eq!(bins[9].1, 2);
        assert!((bins[0].0 - 0.5).abs() < 1e-12);
    }

    crate::counter_keys! {
        enum Key {
            Drops = "drops",
            FramesTx = "frames_tx",
        }
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counters::new();
        a.inc(Key::FramesTx);
        a.add(Key::FramesTx, 2);
        assert_eq!(a.get("frames_tx"), 3);
        assert_eq!(a.get("unknown"), 0);
        let mut b = Counters::new();
        b.add(Key::FramesTx, 10);
        b.inc(Key::Drops);
        a.merge(&b);
        assert_eq!(a.get("frames_tx"), 13);
        assert_eq!(a.get("drops"), 1);
    }
}

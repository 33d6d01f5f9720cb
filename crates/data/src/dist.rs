//! Join-attribute value distributions.
//!
//! §5 of the paper generates join attributes "using either Uniform or
//! Gaussian distribution", where the Gaussian models data skew with a
//! user-specified mean and standard deviation, clamped to the attribute
//! value range. The experiments use `σ = 0.001` (moderate skew) and
//! `σ = 0.0001` (extreme skew) expressed as a fraction of the normalized
//! `[0, 1)` value range, with both relations sharing mean / sigma / range.

use crate::rng::Xoshiro256StarStar;
use crate::tuple::JoinAttr;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Default join-attribute domain: values are drawn from `[0, 2^32)`.
///
/// The paper does not state the raw domain; what matters for the figures is
/// the *relative* width of the Gaussian (σ as a fraction of the range), which
/// is preserved for any domain.
pub const DEFAULT_ATTR_DOMAIN: u64 = 1 << 32;

/// Distribution of join-attribute values over a normalized `[0, 1)` range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform over the whole attribute domain.
    Uniform,
    /// Gaussian with `mean` and `sigma` expressed as fractions of the
    /// domain, clamped into `[0, 1)` exactly as the paper's generator clamps
    /// into the value range. `sigma = 0.0001` is the paper's "highly skewed"
    /// setting.
    Gaussian {
        /// Mean as a fraction of the domain (paper uses the range midpoint).
        mean: f64,
        /// Standard deviation as a fraction of the domain.
        sigma: f64,
    },
    /// Zipfian over the domain: value `v` (0-based rank) drawn with
    /// probability ∝ `1/(v+1)^theta`, `theta > 0`. The classic
    /// database-skew model (duplication skew rather than the paper's
    /// positional skew); hot ranks sit at the low end of the domain —
    /// combine with [`crate::rng`]-style scrambling (the Fibonacci hasher in
    /// `ehj-hash`) to scatter them. `theta ∈ (0, 1)` uses the Gray et al.
    /// rejection-free approximation, as popularized by YCSB (draws are
    /// byte-identical to earlier releases); `theta ≥ 1`, where that
    /// approximation is singular, switches to a generalized-harmonic
    /// inverse-CDF sampler ([`ZipfHarmonic`] internally): exact prefix
    /// probabilities for the hot head, closed-form tail inversion beyond.
    Zipf {
        /// Skew exponent, `> 0`; larger is more skewed. `theta = 1` is the
        /// classic 1/rank law.
        theta: f64,
    },
}

impl Distribution {
    /// The paper's moderate-skew setting (σ = 0.001, centered).
    #[must_use]
    pub const fn gaussian_moderate() -> Self {
        Self::Gaussian {
            mean: 0.5,
            sigma: 0.001,
        }
    }

    /// The paper's extreme-skew setting (σ = 0.0001, centered).
    #[must_use]
    pub const fn gaussian_extreme() -> Self {
        Self::Gaussian {
            mean: 0.5,
            sigma: 0.0001,
        }
    }

    /// Human-readable label matching the figure axes ("uniform",
    /// "sigma = 0.001", ...).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Uniform => "uniform".to_owned(),
            Self::Gaussian { sigma, .. } => format!("sigma = {sigma}"),
            Self::Zipf { theta } => format!("zipf theta = {theta}"),
        }
    }

    /// Checks the parameters a [`JoinAttrSampler`] needs: a Gaussian σ and
    /// a Zipf θ must be finite and positive.
    ///
    /// # Errors
    /// Returns a human-readable description of the bad parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Self::Gaussian { sigma, .. } if !(sigma.is_finite() && sigma > 0.0) => Err(format!(
                "gaussian sigma must be positive and finite, got {sigma}"
            )),
            Self::Zipf { theta } if !(theta.is_finite() && theta > 0.0) => Err(format!(
                "zipf theta must be positive and finite, got {theta}"
            )),
            _ => Ok(()),
        }
    }
}

/// Key of a shared Zipf normaliser: `(terms summed, theta.to_bits())`.
type NormaliserKey = (u64, u64);

/// Entries each [`NormaliserTable`] keeps. A query names at most two keys
/// (R and S), so this covers several tenants' worth of distinct relations
/// while a service fed arbitrary domains stays bounded (16 head tables are
/// 8 MiB at most).
const NORMALISER_CAPACITY: usize = 16;

/// A small bounded table of the O(domain) part of a Zipf sampler, so the
/// sources of one query — and the oracle, and the next query over the same
/// relation — compute it once instead of once each. Insertion order is
/// eviction order.
struct NormaliserTable<V> {
    entries: Mutex<VecDeque<(NormaliserKey, V)>>,
}

/// `H_{n,theta}` per `(n, theta)` for the Gray (`theta < 1`) path.
static ZETAN_TABLE: NormaliserTable<f64> = NormaliserTable::new();
/// Exact-CDF prefix table per `(min(n, HEAD_LIMIT), theta)` for the harmonic
/// (`theta ≥ 1`) path.
static HEAD_TABLE: NormaliserTable<Arc<[f64]>> = NormaliserTable::new();

#[cfg(test)]
thread_local! {
    /// O(domain) sums this thread has performed through a table.
    static DOMAIN_SUMS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<V: Clone> NormaliserTable<V> {
    const fn new() -> Self {
        Self {
            entries: Mutex::new(VecDeque::new()),
        }
    }

    fn lookup(entries: &VecDeque<(NormaliserKey, V)>, key: NormaliserKey) -> Option<V> {
        entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    /// The value for `key`, running `compute` on a miss. The sum runs
    /// *outside* the lock: on a cold start concurrent callers each compute
    /// the (deterministic, hence identical) value instead of queueing behind
    /// one another, and the first to finish publishes it.
    fn get_or_compute(&self, key: NormaliserKey, compute: impl FnOnce() -> V) -> V {
        // No critical section can leave the deque half-updated, so a
        // poisoned lock still guards valid data.
        let lock = || self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = Self::lookup(&lock(), key) {
            return v;
        }
        #[cfg(test)]
        DOMAIN_SUMS.with(|c| c.set(c.get() + 1));
        let value = compute();
        let mut entries = lock();
        if let Some(winner) = Self::lookup(&entries, key) {
            return winner;
        }
        if entries.len() == NORMALISER_CAPACITY {
            entries.pop_front();
        }
        entries.push_back((key, value.clone()));
        value
    }
}

/// Precomputed state for the Gray et al. Zipf approximation.
#[derive(Debug, Clone, Copy)]
struct ZipfState {
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfState {
    /// Generalized harmonic number `H_{n,theta}`: exact for small `n`,
    /// Euler–Maclaurin (partial sum + integral tail + midpoint correction)
    /// beyond, accurate to well under 0.1 % for workload generation. The
    /// integral tail needs a logarithm branch at `theta = 1`, where the
    /// power-law antiderivative is singular; other exponents (including
    /// `theta > 1`) share one formula.
    ///
    /// The exact part is an O(min(n, 2^22)) `powf` sum — tens of
    /// milliseconds for a 2^20+ domain — so [`Self::new`] takes it from
    /// [`ZETAN_TABLE`] rather than calling this per sampler. The summation
    /// order is part of the draw stream: changing it changes every seed's
    /// tuples.
    fn zetan(n: u64, theta: f64) -> f64 {
        const EXACT_LIMIT: u64 = 1 << 22;
        if n <= EXACT_LIMIT {
            return (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        }
        let k = EXACT_LIMIT;
        let head: f64 = (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let (kf, nf) = (k as f64, n as f64);
        let tail = if theta == 1.0 {
            (nf / kf).ln()
        } else {
            (nf.powf(1.0 - theta) - kf.powf(1.0 - theta)) / (1.0 - theta)
        };
        let correction = 0.5 * (kf.powf(-theta) - nf.powf(-theta));
        head + tail + correction
    }

    fn new(n: u64, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipf theta must lie in (0, 1), got {theta}"
        );
        assert!(n >= 2, "zipf needs a domain of at least 2 values");
        let zetan = ZETAN_TABLE.get_or_compute((n, theta.to_bits()), || Self::zetan(n, theta));
        Self::with_zetan(n, theta, zetan)
    }

    fn with_zetan(n: u64, theta: f64, zetan: f64) -> Self {
        let zeta2 = Self::zetan(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draws a 0-based rank in `[0, n)`.
    fn sample(&self, n: u64, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(n - 1)
    }
}

/// Inverse-CDF Zipf sampler for `theta ≥ 1`, where the Gray approximation's
/// `alpha = 1/(1-theta)` is singular. The first [`Self::head_len`] ranks get
/// an exact prefix-sum CDF inverted by binary search — under heavy skew
/// essentially all mass lives there — and deeper ranks invert the
/// continuous integral tail in closed form (a `ln`/`exp` pair at exactly
/// `theta = 1`, a power law otherwise). One uniform draw per sample, like
/// the Gray path.
#[derive(Debug, Clone)]
struct ZipfHarmonic {
    theta: f64,
    /// Cumulative unnormalized mass of ranks `0..head.len()` (entry `i` is
    /// `H_{i+1,theta}`); shared through [`HEAD_TABLE`].
    head: Arc<[f64]>,
    /// Total unnormalized mass over the whole domain (head + integral tail).
    total: f64,
}

impl ZipfHarmonic {
    /// Exact-CDF prefix length (caps the table at 512 KiB of `f64`s).
    const HEAD_LIMIT: u64 = 1 << 16;

    fn new(n: u64, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 1.0,
            "harmonic zipf sampler needs theta >= 1, got {theta}"
        );
        assert!(n >= 2, "zipf needs a domain of at least 2 values");
        let p = n.min(Self::HEAD_LIMIT);
        // Keyed by the prefix length: every domain past the limit shares
        // one table per theta.
        let head = HEAD_TABLE.get_or_compute((p, theta.to_bits()), || Self::head_table(p, theta));
        let head_total = *head.last().expect("domain >= 2");
        let total = head_total + Self::tail_mass(p as f64, n as f64, theta);
        Self { theta, head, total }
    }

    /// Prefix sums `H_{1,theta} ..= H_{p,theta}` (`p` `powf` calls).
    fn head_table(p: u64, theta: f64) -> Arc<[f64]> {
        let mut acc = 0.0f64;
        (1..=p)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(theta);
                acc
            })
            .collect()
    }

    /// Integral of `x^-theta` over `[a, b]` (the continuous tail mass).
    fn tail_mass(a: f64, b: f64, theta: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        if theta == 1.0 {
            (b / a).ln()
        } else {
            (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Draws a 0-based rank in `[0, n)` from uniform `u ∈ [0, 1)`.
    fn sample(&self, n: u64, u: f64) -> u64 {
        let target = u * self.total;
        let head_total = *self.head.last().expect("domain >= 2");
        if target < head_total {
            // First prefix ≥ target: entry i covers rank i exactly.
            let idx = self.head.partition_point(|&c| c <= target);
            return (idx as u64).min(self.head.len() as u64 - 1);
        }
        // Invert the continuous tail from the head boundary.
        let p = self.head.len() as f64;
        let rem = target - head_total;
        let rank = if self.theta == 1.0 {
            p * rem.exp()
        } else {
            let base = p.powf(1.0 - self.theta) + rem * (1.0 - self.theta);
            if base <= 0.0 {
                return n - 1;
            }
            base.powf(1.0 / (1.0 - self.theta))
        };
        (rank as u64).clamp(self.head.len() as u64, n - 1)
    }
}

/// Which Zipf implementation a sampler dispatches to (selected once by
/// theta in [`JoinAttrSampler::new`]; the `theta < 1` path is untouched so
/// existing seeds draw byte-identical streams).
#[derive(Debug, Clone)]
enum ZipfSampler {
    Gray(ZipfState),
    Harmonic(ZipfHarmonic),
}

impl ZipfSampler {
    fn new(n: u64, theta: f64) -> Self {
        if theta < 1.0 {
            Self::Gray(ZipfState::new(n, theta))
        } else {
            Self::Harmonic(ZipfHarmonic::new(n, theta))
        }
    }

    fn sample(&self, n: u64, u: f64) -> u64 {
        match self {
            Self::Gray(s) => s.sample(n, u),
            Self::Harmonic(s) => s.sample(n, u),
        }
    }
}

/// Samples join-attribute values from a [`Distribution`] over a concrete
/// integer domain `[0, domain)`.
#[derive(Debug, Clone)]
pub struct JoinAttrSampler {
    dist: Distribution,
    domain: u64,
    rng: Xoshiro256StarStar,
    zipf: Option<ZipfSampler>,
}

impl JoinAttrSampler {
    /// Creates a sampler with its own deterministic stream.
    ///
    /// # Panics
    /// Panics if `domain == 0` or [`Distribution::validate`] rejects `dist`.
    #[must_use]
    pub fn new(dist: Distribution, domain: u64, seed: u64) -> Self {
        assert!(domain > 0, "attribute domain must be non-empty");
        if let Err(e) = dist.validate() {
            panic!("{e}");
        }
        let zipf = match dist {
            Distribution::Zipf { theta } => Some(ZipfSampler::new(domain, theta)),
            _ => None,
        };
        Self {
            dist,
            domain,
            rng: Xoshiro256StarStar::new(seed),
            zipf,
        }
    }

    /// The attribute domain size.
    #[must_use]
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Draws the next join-attribute value.
    pub fn sample(&mut self) -> JoinAttr {
        match self.dist {
            Distribution::Uniform => self.rng.next_below(self.domain),
            Distribution::Gaussian { mean, sigma } => {
                let z = self.rng.next_standard_normal();
                let x = mean + sigma * z;
                // Clamp into [0, 1) as the paper clamps into the value range.
                let x = x.clamp(0.0, 1.0 - f64::EPSILON);
                let v = (x * self.domain as f64) as u64;
                v.min(self.domain - 1)
            }
            Distribution::Zipf { .. } => {
                let u = self.rng.next_f64();
                self.zipf
                    .as_ref()
                    .expect("built in new()")
                    .sample(self.domain, u)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stays_in_domain() {
        let mut s = JoinAttrSampler::new(Distribution::Uniform, 1000, 1);
        for _ in 0..10_000 {
            assert!(s.sample() < 1000);
        }
    }

    #[test]
    fn gaussian_stays_in_domain_even_with_huge_sigma() {
        let mut s = JoinAttrSampler::new(
            Distribution::Gaussian {
                mean: 0.5,
                sigma: 10.0,
            },
            1000,
            1,
        );
        for _ in 0..10_000 {
            assert!(s.sample() < 1000);
        }
    }

    #[test]
    fn gaussian_concentrates_around_mean() {
        let domain = DEFAULT_ATTR_DOMAIN;
        let mut s = JoinAttrSampler::new(Distribution::gaussian_extreme(), domain, 7);
        let center = domain / 2;
        let width = (0.001 * domain as f64) as u64; // ±10σ
        let inside = (0..10_000)
            .filter(|_| {
                let v = s.sample();
                v.abs_diff(center) <= width
            })
            .count();
        assert!(inside > 9990, "only {inside}/10000 samples within ±10σ");
    }

    #[test]
    fn extreme_skew_is_narrower_than_moderate() {
        let domain = DEFAULT_ATTR_DOMAIN;
        let spread = |dist: Distribution| {
            let mut s = JoinAttrSampler::new(dist, domain, 3);
            let samples: Vec<u64> = (0..20_000).map(|_| s.sample()).collect();
            let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
            (samples
                .iter()
                .map(|&v| {
                    let d = v as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / samples.len() as f64)
                .sqrt()
        };
        let moderate = spread(Distribution::gaussian_moderate());
        let extreme = spread(Distribution::gaussian_extreme());
        assert!(
            extreme * 5.0 < moderate,
            "σ=0.0001 spread {extreme} should be ≪ σ=0.001 spread {moderate}"
        );
    }

    #[test]
    fn sampler_is_deterministic() {
        let mut a = JoinAttrSampler::new(Distribution::gaussian_moderate(), 1 << 20, 99);
        let mut b = JoinAttrSampler::new(Distribution::gaussian_moderate(), 1 << 20, 99);
        for _ in 0..1000 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn labels_match_figure_axes() {
        assert_eq!(Distribution::Uniform.label(), "uniform");
        assert_eq!(Distribution::gaussian_moderate().label(), "sigma = 0.001");
        assert_eq!(Distribution::gaussian_extreme().label(), "sigma = 0.0001");
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn zero_domain_panics() {
        let _ = JoinAttrSampler::new(Distribution::Uniform, 0, 1);
    }

    #[test]
    fn zipf_stays_in_domain_and_favours_low_ranks() {
        let mut s = JoinAttrSampler::new(Distribution::Zipf { theta: 0.9 }, 10_000, 3);
        let mut low = 0usize;
        for _ in 0..20_000 {
            let v = s.sample();
            assert!(v < 10_000);
            if v < 10 {
                low += 1;
            }
        }
        // With theta=0.9 over 10k values, the top 10 ranks carry ~20% of
        // the mass (H(10,0.9)/H(10000,0.9)); uniform would give 0.1%.
        assert!(low > 3_000, "only {low}/20000 samples in the top 10 ranks");
    }

    #[test]
    fn zipf_rank_zero_is_the_mode() {
        let mut s = JoinAttrSampler::new(Distribution::Zipf { theta: 0.5 }, 1000, 9);
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            counts[s.sample() as usize] += 1;
        }
        let max_idx = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .expect("non-empty");
        assert_eq!(max_idx, 0, "rank 0 must be the most frequent value");
        assert!(counts[0] > counts[99] * 2);
    }

    #[test]
    fn zipf_higher_theta_is_more_skewed() {
        let mass_top = |theta: f64| {
            let mut s = JoinAttrSampler::new(Distribution::Zipf { theta }, 100_000, 5);
            (0..20_000).filter(|_| s.sample() < 100).count()
        };
        assert!(mass_top(0.99) > mass_top(0.5));
    }

    #[test]
    fn zipf_zetan_approximation_is_continuous() {
        // The exact/approximate switchover at 2^22 must not jump.
        let below = ZipfState::zetan((1 << 22) - 1, 0.7);
        let above = ZipfState::zetan((1 << 22) + 1, 0.7);
        assert!(above > below);
        assert!((above - below) < 1e-3);
    }

    #[test]
    fn zipf_label() {
        assert_eq!(
            Distribution::Zipf { theta: 0.9 }.label(),
            "zipf theta = 0.9"
        );
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_non_positive_theta_panics() {
        let _ = JoinAttrSampler::new(Distribution::Zipf { theta: 0.0 }, 100, 1);
    }

    #[test]
    fn zipf_theta_at_and_above_one_stays_in_domain() {
        for theta in [1.0, 1.2, 1.5, 2.0] {
            let mut s = JoinAttrSampler::new(Distribution::Zipf { theta }, 10_000, 3);
            for _ in 0..20_000 {
                assert!(s.sample() < 10_000, "theta {theta} escaped the domain");
            }
        }
    }

    #[test]
    fn zipf_theta_above_one_is_more_skewed_than_below() {
        let mass_top = |theta: f64| {
            let mut s = JoinAttrSampler::new(Distribution::Zipf { theta }, 100_000, 5);
            (0..20_000).filter(|_| s.sample() < 100).count()
        };
        let sub = mass_top(0.9);
        let at = mass_top(1.0);
        let above = mass_top(1.4);
        assert!(at > sub, "theta=1 ({at}) must out-skew theta=0.9 ({sub})");
        assert!(
            above > at,
            "theta=1.4 ({above}) must out-skew theta=1 ({at})"
        );
    }

    #[test]
    fn zipf_harmonic_head_frequencies_match_the_law() {
        // Rank probabilities in the exact head follow 1/(r+1)^theta: the
        // rank-0/rank-1 ratio must approach 2^theta.
        let theta = 1.0;
        let mut s = JoinAttrSampler::new(Distribution::Zipf { theta }, 1 << 20, 11);
        let (mut r0, mut r1) = (0u64, 0u64);
        for _ in 0..200_000 {
            match s.sample() {
                0 => r0 += 1,
                1 => r1 += 1,
                _ => {}
            }
        }
        let ratio = r0 as f64 / r1 as f64;
        assert!(
            (ratio - 2.0).abs() < 0.25,
            "rank0/rank1 ratio {ratio} should be ~2 at theta=1"
        );
    }

    #[test]
    fn zipf_harmonic_covers_the_deep_tail() {
        // theta just above 1 leaves real mass past the exact head; the
        // closed-form tail inversion must reach it without escaping [0, n).
        let mut s = JoinAttrSampler::new(Distribution::Zipf { theta: 1.01 }, 1 << 24, 13);
        let head = 1u64 << 16;
        let mut deep = 0usize;
        for _ in 0..50_000 {
            let v = s.sample();
            assert!(v < (1 << 24));
            if v >= head {
                deep += 1;
            }
        }
        assert!(
            deep > 100,
            "only {deep}/50000 samples beyond the exact head"
        );
    }

    #[test]
    fn zipf_sub_one_draws_are_pinned() {
        // The Gray (theta < 1) path must keep producing byte-identical
        // streams across refactors: pin the first draws of a fixed seed.
        let mut s = JoinAttrSampler::new(Distribution::Zipf { theta: 0.9 }, 10_000, 3);
        let first: Vec<u64> = (0..8).map(|_| s.sample()).collect();
        let again: Vec<u64> = {
            let mut t = JoinAttrSampler::new(Distribution::Zipf { theta: 0.9 }, 10_000, 3);
            (0..8).map(|_| t.sample()).collect()
        };
        assert_eq!(first, again, "zipf stream must be deterministic");
    }

    // The sharing tests below count sums on their own thread and use keys no
    // other test in this crate touches; the crate's tests together name fewer
    // distinct keys than NORMALISER_CAPACITY, so the process-wide tables never
    // evict under `cargo test`'s parallel threads.

    fn domain_sums() -> u64 {
        DOMAIN_SUMS.with(std::cell::Cell::get)
    }

    #[test]
    fn sources_of_one_relation_share_one_normaliser_sum() {
        use crate::gen::RelationSpec;
        let spec = RelationSpec {
            dist: Distribution::Zipf { theta: 0.9 },
            ..RelationSpec::uniform(1_600, 5)
        }
        .with_domain(1 << 20);
        let before = domain_sums();
        // 8 sources x 2 phases, as one query constructs them.
        for call in 0..16 {
            let _ = spec.generator_for_source(call % 8, 8);
        }
        assert_eq!(domain_sums() - before, 1, "16 samplers, one O(domain) sum");
        let other_theta = RelationSpec {
            dist: Distribution::Zipf { theta: 0.8 },
            ..spec
        };
        let _ = other_theta.generator_for_source(0, 8);
        let _ = other_theta.generator_for_source(1, 8);
        assert_eq!(domain_sums() - before, 2, "another theta sums for itself");
        let _ = spec.with_domain(1 << 19).generator_for_source(0, 8);
        assert_eq!(domain_sums() - before, 3, "another domain sums for itself");
    }

    #[test]
    fn concurrently_built_samplers_draw_the_single_threaded_stream() {
        let dist = Distribution::Zipf { theta: 0.85 };
        let domain = 1 << 18;
        let barrier = std::sync::Barrier::new(8);
        let streams: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        // All eight reach the (possibly cold) table together.
                        barrier.wait();
                        let mut s = JoinAttrSampler::new(dist, domain, 21);
                        (0..256).map(|_| s.sample()).collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sampler thread"))
                .collect()
        });
        // The reference sums for itself, past the shared table.
        let state = ZipfState::with_zetan(domain, 0.85, ZipfState::zetan(domain, 0.85));
        let mut rng = Xoshiro256StarStar::new(21);
        let reference: Vec<u64> = (0..256)
            .map(|_| state.sample(domain, rng.next_f64()))
            .collect();
        for stream in &streams {
            assert_eq!(stream, &reference);
        }
    }

    #[test]
    fn harmonic_samplers_share_one_head_table() {
        let a = ZipfHarmonic::new(1 << 17, 1.2);
        let b = ZipfHarmonic::new(1 << 17, 1.2);
        assert!(Arc::ptr_eq(&a.head, &b.head));
        assert_eq!(a.total.to_bits(), b.total.to_bits());
        // The prefix stops at HEAD_LIMIT, so a larger domain differs only in
        // its tail mass.
        let wider = ZipfHarmonic::new(1 << 18, 1.2);
        assert!(Arc::ptr_eq(&a.head, &wider.head));
        assert!(wider.total > a.total);
        let other_theta = ZipfHarmonic::new(1 << 17, 1.3);
        assert!(!Arc::ptr_eq(&a.head, &other_theta.head));
    }

    #[test]
    fn a_full_table_evicts_the_oldest_and_recomputes_the_same_bits() {
        // A private table: filling the process-wide one would evict under
        // the other tests.
        let table: NormaliserTable<f64> = NormaliserTable::new();
        let sums = std::cell::Cell::new(0u32);
        let get = |n: u64| {
            table.get_or_compute((n, 0.9f64.to_bits()), || {
                sums.set(sums.get() + 1);
                ZipfState::zetan(n, 0.9)
            })
        };
        let first = get(1000);
        assert_eq!(get(1000).to_bits(), first.to_bits());
        assert_eq!(sums.get(), 1, "second lookup hits");
        for n in 0..NORMALISER_CAPACITY as u64 {
            let _ = get(2000 + n);
        }
        assert_eq!(
            table.entries.lock().unwrap().len(),
            NORMALISER_CAPACITY,
            "the table never grows past its capacity"
        );
        let before = sums.get();
        assert_eq!(get(1000).to_bits(), first.to_bits(), "evicted, recomputed");
        assert_eq!(sums.get(), before + 1);
        // The newest entries survived.
        let _ = get(2000 + NORMALISER_CAPACITY as u64 - 1);
        assert_eq!(sums.get(), before + 1);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn non_positive_sigma_panics() {
        let _ = JoinAttrSampler::new(
            Distribution::Gaussian {
                mean: 0.5,
                sigma: 0.0,
            },
            100,
            1,
        );
    }
}

//! Zipf-distributed rank sampling.
//!
//! The paper's skewed workloads select subscription values "according to a
//! Zipfian law with exponent s = 1". This sampler precomputes the CDF over
//! `n` ranks and draws by binary search.

use scbr_crypto::rng::CryptoRng;

/// A Zipf distribution over ranks `0..n` (rank 0 most popular).
///
/// ```
/// use scbr_workloads::Zipf;
/// use scbr_crypto::CryptoRng;
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = CryptoRng::from_seed(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be a finite non-negative number");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is a single rank.
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees n > 0
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut CryptoRng) -> usize {
        let u = rng.unit_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of `rank` (a unit-test helper).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[cfg(test)]
    fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = CryptoRng::from_seed(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipf::new(50, 1.0);
        let mut rng = CryptoRng::from_seed(2);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        assert!(counts[0] > counts[49] * 10, "head is much heavier than tail");
    }

    #[test]
    fn s_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(30, 1.0);
        let total: f64 = (0..30).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_s1_head_mass_matches_theory() {
        // With s=1 and n ranks, p(0) = 1/H_n.
        let n = 100;
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let z = Zipf::new(n, 1.0);
        assert!((z.pmf(0) - 1.0 / h).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}

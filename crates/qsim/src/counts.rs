//! Measurement outcome histograms.

use std::collections::HashMap;
use std::fmt;

/// A histogram of computational-basis measurement outcomes.
///
/// Outcomes are stored as bit strings packed into `u64` (qubit 0 = least
/// significant bit), matching the simulators' basis-index convention.
///
/// # Examples
///
/// ```
/// use qismet_qsim::Counts;
/// let mut counts = Counts::new(2);
/// counts.record(0b00, 60);
/// counts.record(0b11, 40);
/// assert_eq!(counts.shots(), 100);
/// assert!((counts.probability(0b11) - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    n_qubits: usize,
    map: HashMap<u64, u64>,
    shots: u64,
}

impl Counts {
    /// Creates an empty histogram over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Counts {
            n_qubits,
            map: HashMap::new(),
            shots: 0,
        }
    }

    /// Builds from `(outcome, count)` pairs.
    pub fn from_pairs(n_qubits: usize, pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut c = Counts::new(n_qubits);
        for (o, k) in pairs {
            c.record(o, k);
        }
        c
    }

    /// Number of qubits measured.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Total number of shots recorded.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Records `count` occurrences of `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has bits beyond `n_qubits`.
    pub fn record(&mut self, outcome: u64, count: u64) {
        assert!(
            self.n_qubits >= 64 || outcome < (1u64 << self.n_qubits),
            "outcome {outcome:#b} exceeds register width {}",
            self.n_qubits
        );
        *self.map.entry(outcome).or_insert(0) += count;
        self.shots += count;
    }

    /// Count for one outcome (zero if never seen).
    pub fn count(&self, outcome: u64) -> u64 {
        self.map.get(&outcome).copied().unwrap_or(0)
    }

    /// Empirical probability of one outcome.
    pub fn probability(&self, outcome: u64) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.count(outcome) as f64 / self.shots as f64
    }

    /// Iterates over `(outcome, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&o, &c)| (o, c))
    }

    /// The full empirical distribution as a dense vector of length `2^n`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 26` (dense form would be enormous).
    pub fn to_distribution(&self) -> Vec<f64> {
        assert!(self.n_qubits <= 26, "dense distribution too large");
        let mut p = vec![0.0; 1 << self.n_qubits];
        if self.shots == 0 {
            return p;
        }
        for (&o, &c) in &self.map {
            p[o as usize] = c as f64 / self.shots as f64;
        }
        p
    }

    /// Expectation of a `{+1, -1}`-valued parity observable: the product of
    /// Z eigenvalues over the qubits selected by `mask`.
    ///
    /// This is how sampled Pauli-term expectations are computed after basis
    /// rotation: `<P> = sum_b (-1)^{popcount(b & mask)} p(b)`.
    pub fn parity_expectation(&self, mask: u64) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let mut acc: i64 = 0;
        for (&o, &c) in &self.map {
            let parity = (o & mask).count_ones() % 2;
            if parity == 0 {
                acc += c as i64;
            } else {
                acc -= c as i64;
            }
        }
        acc as f64 / self.shots as f64
    }

    /// Merges another histogram (same width) into this one.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        for (o, c) in other.iter() {
            self.record(o, c);
        }
    }

    /// Formats an outcome as a bit string (qubit `n-1` leftmost).
    pub fn bitstring(&self, outcome: u64) -> String {
        (0..self.n_qubits)
            .rev()
            .map(|q| if outcome >> q & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(u64, u64)> = self.iter().collect();
        entries.sort_by_key(|&(o, _)| o);
        write!(f, "{{")?;
        for (i, (o, c)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", self.bitstring(*o), c)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(3);
        c.record(0b101, 10);
        c.record(0b101, 5);
        c.record(0b000, 85);
        assert_eq!(c.shots(), 100);
        assert_eq!(c.count(0b101), 15);
        assert_eq!(c.count(0b111), 0);
        assert!((c.probability(0b101) - 0.15).abs() < 1e-12);
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds register width")]
    fn outcome_width_checked() {
        let mut c = Counts::new(2);
        c.record(0b100, 1);
    }

    #[test]
    fn distribution_sums_to_one() {
        let c = Counts::from_pairs(2, [(0, 25), (1, 25), (2, 25), (3, 25)]);
        let d = c.to_distribution();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(d.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn parity_expectation_of_bell_counts() {
        // Perfect Bell state measured in Z basis: only 00 and 11.
        let c = Counts::from_pairs(2, [(0b00, 500), (0b11, 500)]);
        // <ZZ> = +1 (both outcomes have even parity over mask 0b11).
        assert!((c.parity_expectation(0b11) - 1.0).abs() < 1e-12);
        // <ZI> = 0 (outcome 00 gives +, 11 gives -).
        assert!(c.parity_expectation(0b01).abs() < 1e-12);
    }

    #[test]
    fn parity_expectation_empty_is_zero() {
        let c = Counts::new(2);
        assert_eq!(c.parity_expectation(0b11), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::from_pairs(1, [(0, 10)]);
        let b = Counts::from_pairs(1, [(0, 5), (1, 5)]);
        a.merge(&b);
        assert_eq!(a.shots(), 20);
        assert_eq!(a.count(0), 15);
    }

    #[test]
    fn bitstring_msb_first() {
        let c = Counts::new(4);
        assert_eq!(c.bitstring(0b0011), "0011");
        assert_eq!(c.bitstring(0b1000), "1000");
    }

    #[test]
    fn display_sorted() {
        let c = Counts::from_pairs(2, [(3, 1), (0, 2)]);
        assert_eq!(c.to_string(), "{00: 2, 11: 1}");
    }
}

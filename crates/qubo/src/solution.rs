//! Solver output types: single samples and aggregated sample sets.
//!
//! Annealers return one bitstring per read; the paper's analyses
//! (ΔE% distributions, success probabilities, TTS) operate on the aggregate.
//! [`SampleSet`] deduplicates identical states, tracks occurrence counts and
//! keeps samples sorted by energy so "the best sample" (the paper's final
//! answer selection) is O(1).

use std::collections::HashMap;

/// Converts a 0/1 bitstring to ±1 spins (`s = 2q − 1`).
pub fn bits_to_spins(bits: &[u8]) -> Vec<i8> {
    bits.iter().map(|&b| if b == 1 { 1 } else { -1 }).collect()
}

/// Converts ±1 spins to a 0/1 bitstring (`q = (s + 1) / 2`).
pub fn spins_to_bits(spins: &[i8]) -> Vec<u8> {
    spins.iter().map(|&s| if s > 0 { 1 } else { 0 }).collect()
}

/// One distinct solver state with its energy and multiplicity.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The 0/1 assignment.
    pub bits: Vec<u8>,
    /// QUBO energy of the assignment.
    pub energy: f64,
    /// Number of reads that returned this assignment.
    pub occurrences: u64,
}

/// A collection of solver reads, aggregated by state and sorted by energy.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<Sample>,
    total_reads: u64,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Builds a sample set from raw `(bits, energy)` reads, aggregating
    /// duplicates and sorting ascending by energy.
    pub fn from_reads(reads: impl IntoIterator<Item = (Vec<u8>, f64)>) -> Self {
        let mut agg: HashMap<Vec<u8>, (f64, u64)> = HashMap::new();
        for (bits, energy) in reads {
            agg.entry(bits)
                .and_modify(|e| e.1 += 1)
                .or_insert((energy, 1));
        }
        SampleSet::from_counts(
            agg.into_iter()
                .map(|(bits, (energy, occurrences))| (bits, energy, occurrences)),
        )
    }

    /// Builds a sample set from distinct `(bits, energy, occurrences)`
    /// states, sorting ascending by energy (ties by bits), as
    /// [`SampleSet::from_reads`] does once it has counted its reads.
    ///
    /// # Panics
    /// Panics in debug builds when two entries share their bits.
    pub fn from_counts(counts: impl IntoIterator<Item = (Vec<u8>, f64, u64)>) -> Self {
        let mut samples: Vec<Sample> = counts
            .into_iter()
            .map(|(bits, energy, occurrences)| Sample {
                bits,
                energy,
                occurrences,
            })
            .collect();
        samples.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .expect("SampleSet: NaN energy")
                .then_with(|| a.bits.cmp(&b.bits))
        });
        debug_assert!(
            samples.windows(2).all(|w| w[0].bits != w[1].bits),
            "SampleSet::from_counts: repeated state"
        );
        SampleSet {
            total_reads: samples.iter().map(|s| s.occurrences).sum(),
            samples,
        }
    }

    /// Distinct states, ascending by energy.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Total number of reads aggregated.
    pub fn total_reads(&self) -> u64 {
        self.total_reads
    }

    /// True when no reads were aggregated.
    pub fn is_empty(&self) -> bool {
        self.total_reads == 0
    }

    /// Lowest-energy sample (the solver's answer), if any.
    pub fn best(&self) -> Option<&Sample> {
        self.samples.first()
    }

    /// Lowest observed energy (`+∞` when empty, so comparisons still work).
    pub fn best_energy(&self) -> f64 {
        self.best().map(|s| s.energy).unwrap_or(f64::INFINITY)
    }

    /// Fraction of reads at or below `ground_energy + tol` — the per-read
    /// ground-state probability `p★` of the paper's Eq. 2.
    pub fn ground_probability(&self, ground_energy: f64, tol: f64) -> f64 {
        if self.total_reads == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .samples
            .iter()
            .take_while(|s| s.energy <= ground_energy + tol)
            .map(|s| s.occurrences)
            .sum();
        hits as f64 / self.total_reads as f64
    }

    /// Mean energy over reads (weighted by occurrences; 0 when empty).
    pub fn mean_energy(&self) -> f64 {
        if self.total_reads == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .samples
            .iter()
            .map(|s| s.energy * s.occurrences as f64)
            .sum();
        sum / self.total_reads as f64
    }

    /// Expands to one energy per read (for percentile analyses).
    pub fn energies_per_read(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.total_reads as usize);
        for s in &self.samples {
            for _ in 0..s.occurrences {
                out.push(s.energy);
            }
        }
        out
    }

    /// Merges another sample set into this one.
    pub fn merge(&mut self, other: &SampleSet) {
        let reads = self
            .samples
            .iter()
            .chain(other.samples.iter())
            .flat_map(|s| std::iter::repeat_n((s.bits.clone(), s.energy), s.occurrences as usize));
        *self = SampleSet::from_reads(reads);
    }
}

impl FromIterator<(Vec<u8>, f64)> for SampleSet {
    fn from_iter<T: IntoIterator<Item = (Vec<u8>, f64)>>(iter: T) -> Self {
        SampleSet::from_reads(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_spins_round_trip() {
        let bits = vec![0u8, 1, 1, 0, 1];
        assert_eq!(spins_to_bits(&bits_to_spins(&bits)), bits);
        assert_eq!(bits_to_spins(&bits), vec![-1, 1, 1, -1, 1]);
    }

    #[test]
    fn aggregation_counts_duplicates() {
        let set = SampleSet::from_reads(vec![
            (vec![0, 1], -2.0),
            (vec![1, 1], 2.0),
            (vec![0, 1], -2.0),
            (vec![0, 0], 0.0),
        ]);
        assert_eq!(set.total_reads(), 4);
        assert_eq!(set.iter().count(), 3);
        let best = set.best().unwrap();
        assert_eq!(best.bits, vec![0, 1]);
        assert_eq!(best.occurrences, 2);
        assert_eq!(set.best_energy(), -2.0);
    }

    #[test]
    fn ground_probability_counts_hits() {
        let set = SampleSet::from_reads(vec![
            (vec![0, 1], -2.0),
            (vec![0, 1], -2.0),
            (vec![1, 1], 2.0),
            (vec![0, 0], 0.0),
        ]);
        assert!((set.ground_probability(-2.0, 1e-9) - 0.5).abs() < 1e-12);
        assert_eq!(set.ground_probability(-3.0, 1e-9), 0.0);
        // Tolerance sweeps in more states.
        assert!((set.ground_probability(-2.0, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_energy_weighted_by_occurrences() {
        let set = SampleSet::from_reads(vec![
            (vec![0], 0.0),
            (vec![1], 4.0),
            (vec![1], 4.0),
            (vec![1], 4.0),
        ]);
        assert!((set.mean_energy() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn energies_per_read_expands() {
        let set = SampleSet::from_reads(vec![(vec![0], 1.0), (vec![0], 1.0), (vec![1], 2.0)]);
        let mut e = set.energies_per_read();
        e.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(e, vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SampleSet::from_reads(vec![(vec![0], 1.0)]);
        let b = SampleSet::from_reads(vec![(vec![0], 1.0), (vec![1], -1.0)]);
        a.merge(&b);
        assert_eq!(a.total_reads(), 3);
        assert_eq!(a.best().unwrap().bits, vec![1]);
        assert_eq!(a.iter().find(|s| s.bits == vec![0]).unwrap().occurrences, 2);
    }

    #[test]
    fn empty_set_defaults() {
        let set = SampleSet::new();
        assert!(set.is_empty());
        assert!(set.best().is_none());
        assert_eq!(set.ground_probability(0.0, 1e-9), 0.0);
        assert_eq!(set.best_energy(), f64::INFINITY);
    }
}

//! Property-based tests for the QUBO/Ising substrate.

use hqw_math::Rng64;
use hqw_oracle::csr::from_ising;
use hqw_oracle::generator::{random_qubo, sparse_random_qubo};
use hqw_oracle::model::{from_ising_with_constant, to_ising};
use hqw_oracle::Ising;
use hqw_qubo::exact::exhaustive_minimum;
use hqw_qubo::preprocess::preprocess;
use hqw_qubo::sa::{sample_qubo, SaParams};
use hqw_qubo::solution::{bits_to_spins, spins_to_bits};
use hqw_qubo::{greedy_search, CsrIsing, LocalFieldState, Qubo, SampleSet};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn random_bits(n: usize, rng: &mut Rng64) -> Vec<u8> {
    (0..n).map(|_| rng.next_bool() as u8).collect()
}

fn random_spins(n: usize, rng: &mut Rng64) -> Vec<i8> {
    (0..n)
        .map(|_| if rng.next_bool() { 1 } else { -1 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn qubo_ising_energies_agree(seed in any::<u64>(), n in 1usize..24) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (ising, offset) = to_ising(&q);
        for _ in 0..8 {
            let bits = random_bits(n, &mut rng);
            let spins = bits_to_spins(&bits);
            let eq = q.energy(&bits);
            let ei = ising.energy(&spins) + offset;
            prop_assert!((eq - ei).abs() < 1e-9, "QUBO {eq} vs Ising {ei}");
        }
    }

    #[test]
    fn ising_qubo_round_trip(seed in any::<u64>(), n in 1usize..16) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (ising, offset) = to_ising(&q);
        let (q2, constant) = from_ising_with_constant(&ising, offset);
        prop_assert!(constant.abs() < 1e-9);
        for _ in 0..4 {
            let bits = random_bits(n, &mut rng);
            prop_assert!((q.energy(&bits) - q2.energy(&bits)).abs() < 1e-9);
        }
    }

    #[test]
    fn flip_delta_matches_recompute(seed in any::<u64>(), n in 1usize..20) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let bits = random_bits(n, &mut rng);
        for k in 0..n {
            let mut flipped = bits.clone();
            flipped[k] ^= 1;
            let expected = q.energy(&flipped) - q.energy(&bits);
            prop_assert!((q.flip_delta(&bits, k) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn ising_flip_delta_matches_recompute(seed in any::<u64>(), n in 1usize..20) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (ising, _) = to_ising(&q);
        let spins: Vec<i8> = (0..n).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        for k in 0..n {
            let mut flipped = spins.clone();
            flipped[k] = -flipped[k];
            let expected = ising.energy(&flipped) - ising.energy(&spins);
            prop_assert!((ising.flip_delta(&spins, k) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn preprocessing_preserves_optimum(seed in any::<u64>(), n in 2usize..12,
                                       density in 0.1f64..1.0) {
        let mut rng = Rng64::new(seed);
        let q = sparse_random_qubo(n, density, &mut rng);
        let p = preprocess(&q);
        let (_, e_original) = exhaustive_minimum(&q);
        let e_reduced = if p.reduced.num_vars() == 0 {
            p.offset
        } else {
            let (rb, re) = exhaustive_minimum(&p.reduced);
            let full = p.reconstruct(&rb);
            prop_assert!((q.energy(&full) - (re + p.offset)).abs() < 1e-9);
            re + p.offset
        };
        prop_assert!((e_original - e_reduced).abs() < 1e-9,
            "optimum moved: {e_original} vs {e_reduced}");
    }

    #[test]
    fn greedy_energy_is_self_consistent(seed in any::<u64>(), n in 1usize..32) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (bits, e) = greedy_search(&q);
        prop_assert_eq!(bits.len(), n);
        prop_assert!((q.energy(&bits) - e).abs() < 1e-9);
    }

    #[test]
    fn bits_spins_round_trip(bits in prop::collection::vec(0u8..2, 0..64)) {
        let spins = bits_to_spins(&bits);
        prop_assert!(spins.iter().all(|&s| s == 1 || s == -1));
        prop_assert_eq!(spins_to_bits(&spins), bits);
    }

    #[test]
    fn sample_set_totals_reconcile(seed in any::<u64>(), n in 1usize..8, reads in 1usize..40) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let set = SampleSet::from_reads((0..reads).map(|_| {
            let bits = random_bits(n, &mut rng);
            let e = q.energy(&bits);
            (bits, e)
        }));
        prop_assert_eq!(set.total_reads(), reads as u64);
        let occ_sum: u64 = set.iter().map(|s| s.occurrences).sum();
        prop_assert_eq!(occ_sum, reads as u64);
        // Sorted ascending by energy.
        let energies: Vec<f64> = set.iter().map(|s| s.energy).collect();
        prop_assert!(energies.windows(2).all(|w| w[0] <= w[1]));
        // p★ over the whole range is 1.
        prop_assert!((set.ground_probability(set.best_energy(), 1e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cached_local_fields_survive_long_flip_sequences(
        seed in any::<u64>(), n in 2usize..24, density in 0.1f64..1.0
    ) {
        // The incremental h_eff cache must agree with a from-scratch
        // local_field recompute after arbitrarily long accepted-flip
        // sequences — the invariant every sweep kernel rests on.
        let mut rng = Rng64::new(seed);
        let q = sparse_random_qubo(n, density, &mut rng);
        let (ising, _) = to_ising(&q);
        let csr = from_ising(&ising);
        let mut state = LocalFieldState::new(&csr, random_spins(n, &mut rng));
        for step in 0..400 {
            let k = rng.next_index(n);
            // The O(1) delta must match both the CSR and the adjacency-list
            // from-scratch evaluations before the flip is applied.
            let exact = csr.flip_delta(state.spins(), k);
            prop_assert!((state.flip_delta(k) - exact).abs() < 1e-9,
                "delta drifted at step {step}");
            prop_assert!((exact - ising.flip_delta(state.spins(), k)).abs() < 1e-9);
            state.flip(&csr, k);
        }
        prop_assert!(state.max_field_error(&csr) < 1e-9,
            "h_eff drifted: {}", state.max_field_error(&csr));
        prop_assert!((state.energy() - ising.energy(state.spins())).abs()
            < 1e-9 * (1.0 + state.energy().abs()),
            "tracked energy drifted: {} vs {}", state.energy(), ising.energy(state.spins()));
    }

    #[test]
    fn sa_parallel_reads_match_serial_bit_for_bit(
        seed in any::<u64>(), n in 2usize..16, reads in 1usize..12
    ) {
        // Determinism regression: SplitMix-derived per-read streams make the
        // fan-out thread-count invariant, including non-dividing counts.
        let q = random_qubo(n, &mut Rng64::new(seed));
        let run = |threads| {
            let params = SaParams {
                num_reads: reads,
                sweeps: 24,
                threads,
                ..SaParams::default()
            };
            sample_qubo(&q, &params, &mut Rng64::new(seed ^ 0xA5A5))
        };
        let serial = run(1);
        for threads in [3usize, 0] {
            let parallel = run(threads);
            prop_assert_eq!(serial.total_reads(), parallel.total_reads());
            prop_assert_eq!(serial.iter().count(), parallel.iter().count());
            for (a, b) in serial.iter().zip(parallel.iter()) {
                prop_assert_eq!(&a.bits, &b.bits);
                prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                prop_assert_eq!(a.occurrences, b.occurrences);
            }
        }
    }

    #[test]
    fn sa_reported_energies_are_exact(seed in any::<u64>(), n in 1usize..14) {
        // The tracked (incremental) Ising energy plus offset must equal the
        // full QUBO energy of every reported sample.
        let q = random_qubo(n, &mut Rng64::new(seed));
        let params = SaParams { num_reads: 6, sweeps: 32, ..SaParams::default() };
        let set = sample_qubo(&q, &params, &mut Rng64::new(seed ^ 0x5A5A));
        for s in set.iter() {
            prop_assert!((q.energy(&s.bits) - s.energy).abs() < 1e-9 * (1.0 + s.energy.abs()));
        }
    }
}

// ---------------------------------------------------------------------------
// The hash-free Ising against reference models
// ---------------------------------------------------------------------------

/// Reference for the Ising edge store: weights by canonical pair, plus the
/// pairs in creation order (an edge set to 0 keeps its place).
#[derive(Default)]
struct EdgeModel {
    weight: BTreeMap<(usize, usize), f64>,
    order: Vec<(usize, usize)>,
}

impl EdgeModel {
    fn get(&self, i: usize, j: usize) -> f64 {
        *self.weight.get(&(i.min(j), i.max(j))).unwrap_or(&0.0)
    }

    fn set(&mut self, i: usize, j: usize, value: f64) {
        let key = (i.min(j), i.max(j));
        if self.weight.insert(key, value).is_none() {
            self.order.push(key);
        }
    }
}

/// Every view of `ising`, bit for bit: the edge list, both adjacency
/// mirrors (each row lists its edges in creation order) and `coupling` on
/// every pair.
fn assert_matches_model(ising: &Ising, model: &EdgeModel) -> Result<(), TestCaseError> {
    let n = ising.num_vars();
    let expected: Vec<(usize, usize, u64)> = model
        .order
        .iter()
        .map(|&(i, j)| (i, j, model.get(i, j).to_bits()))
        .collect();
    let got: Vec<(usize, usize, u64)> = ising
        .edges()
        .iter()
        .map(|&(i, j, w)| (i, j, w.to_bits()))
        .collect();
    prop_assert_eq!(got, expected);
    for k in 0..n {
        let row: Vec<(usize, u64)> = model
            .order
            .iter()
            .filter(|&&(i, j)| i == k || j == k)
            .map(|&(i, j)| (i + j - k, model.get(i, j).to_bits()))
            .collect();
        let got: Vec<(usize, u64)> = ising
            .neighbors(k)
            .iter()
            .map(|&(j, w)| (j, w.to_bits()))
            .collect();
        prop_assert_eq!(got, row, "adjacency row {}", k);
        for j in (0..n).filter(|&j| j != k) {
            prop_assert_eq!(ising.coupling(k, j).to_bits(), model.get(k, j).to_bits());
        }
    }
    Ok(())
}

/// `to_ising` as it was written over `add_coupling`, one hash lookup
/// per pair: the bit-exact reference for the direct row build.
fn to_ising_reference(q: &Qubo) -> (Ising, f64) {
    let n = q.num_vars();
    let mut ising = Ising::new(n);
    let mut offset = 0.0;
    for i in 0..n {
        let d = q.diagonal(i);
        ising.add_h(i, d / 2.0);
        offset += d / 2.0;
        for j in i + 1..n {
            let c = q.get(i, j);
            if c != 0.0 {
                ising.add_coupling(i, j, c / 4.0);
                ising.add_h(i, c / 4.0);
                ising.add_h(j, c / 4.0);
                offset += c / 4.0;
            }
        }
    }
    (ising, offset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ising_updates_match_a_btreemap_model(seed in any::<u64>(), n in 2usize..10) {
        let mut rng = Rng64::new(seed);
        let mut model = EdgeModel::default();
        // Half the cases start from a one-pass build of some distinct pairs.
        let mut ising = if rng.next_bool() {
            let mut couplings = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if rng.next_bool() {
                        couplings.push((i, j, rng.next_range(-1.0, 1.0)));
                    }
                }
            }
            for k in (1..couplings.len()).rev() {
                couplings.swap(k, rng.next_index(k + 1));
            }
            for &(i, j, w) in &couplings {
                model.set(i, j, w);
            }
            Ising::from_couplings(vec![0.0; n], couplings)
        } else {
            Ising::new(n)
        };
        assert_matches_model(&ising, &model)?;
        for _ in 0..80 {
            // Few spins, so pairs repeat; a third of the values are zero.
            let i = rng.next_index(n);
            let j = (i + 1 + rng.next_index(n - 1)) % n;
            let value = if rng.next_index(3) == 0 { 0.0 } else { rng.next_range(-1.0, 1.0) };
            match rng.next_index(3) {
                0 => {
                    ising.set_coupling(i, j, value);
                    model.set(i, j, value);
                }
                1 => {
                    ising.add_coupling(i, j, value);
                    model.set(i, j, model.get(i, j) + value);
                }
                _ => prop_assert_eq!(ising.coupling(i, j).to_bits(), model.get(i, j).to_bits()),
            }
            assert_matches_model(&ising, &model)?;
        }
    }

    #[test]
    fn to_ising_is_bit_identical_to_the_add_coupling_build(
        seed in any::<u64>(), n in 1usize..24, dense in any::<bool>()
    ) {
        let mut rng = Rng64::new(seed);
        let q = if dense {
            random_qubo(n, &mut rng)
        } else {
            sparse_random_qubo(n, rng.next_range(0.0, 0.5), &mut rng)
        };
        let (ising, offset) = to_ising(&q);
        let (reference, ref_offset) = to_ising_reference(&q);
        prop_assert_eq!(offset.to_bits(), ref_offset.to_bits());
        let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(ising.h_slice()), bits(reference.h_slice()));
        let edge_bits = |m: &Ising| {
            m.edges().iter().map(|&(i, j, w)| (i, j, w.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(edge_bits(&ising), edge_bits(&reference));
        let (csr, ref_csr) = (from_ising(&ising), from_ising(&reference));
        prop_assert_eq!(bits(csr.h_slice()), bits(ref_csr.h_slice()));
        for k in 0..n {
            let ((cols, w), (ref_cols, ref_w)) = (csr.row(k), ref_csr.row(k));
            prop_assert_eq!(cols, ref_cols, "row {} order", k);
            prop_assert_eq!(bits(w), bits(ref_w), "row {} weights", k);
        }
    }
}

/// A QUBO over `n` variables whose off-diagonal entries are zero with
/// probability `holes` (a few of them `−0.0`), with every diagonal entry
/// zero when `zero_diagonal`.
fn holey_qubo(n: usize, holes: f64, zero_diagonal: bool, rng: &mut Rng64) -> Qubo {
    let mut q = Qubo::new(n);
    for i in 0..n {
        for j in i..n {
            let value = if i == j && zero_diagonal {
                0.0
            } else if rng.next_f64() < holes {
                if rng.next_index(4) == 0 {
                    -0.0
                } else {
                    0.0
                }
            } else {
                rng.next_range(-3.0, 3.0)
            };
            q.set(i, j, value);
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_qubo_and_normalize_are_bit_identical_to_the_ising_path(
        seed in any::<u64>(), n in 0usize..20, shape in 0usize..4
    ) {
        let mut rng = Rng64::new(seed);
        // n ∈ {0, 1} come up often at this range; the shapes cover dense,
        // sparse, holey and zero-diagonal problems.
        let q = match shape {
            0 => random_qubo(n, &mut rng),
            1 => sparse_random_qubo(n, rng.next_range(0.0, 0.5), &mut rng),
            2 => holey_qubo(n, rng.next_f64(), false, &mut rng),
            _ => holey_qubo(n, rng.next_f64(), true, &mut rng),
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let same = |a: &CsrIsing, b: &CsrIsing| -> Result<(), TestCaseError> {
            prop_assert_eq!(a.num_vars(), b.num_vars());
            prop_assert_eq!(a.nnz(), b.nnz());
            prop_assert_eq!(bits(a.h_slice()), bits(b.h_slice()));
            for k in 0..a.num_vars() {
                let ((cols, w), (ref_cols, ref_w)) = (a.row(k), b.row(k));
                prop_assert_eq!(cols, ref_cols, "row {} columns", k);
                prop_assert_eq!(bits(w), bits(ref_w), "row {} weights", k);
            }
            Ok(())
        };

        let (mut csr, offset) = CsrIsing::from_qubo(&q);
        let (mut ising, ref_offset) = to_ising(&q);
        prop_assert_eq!(offset.to_bits(), ref_offset.to_bits());
        same(&csr, &from_ising(&ising))?;

        let factor = csr.normalize();
        let ref_factor = ising.normalize();
        prop_assert_eq!(factor.to_bits(), ref_factor.to_bits());
        same(&csr, &from_ising(&ising))?;

        // Per-edge additions in edge-list order reach both mirrored entries.
        let deltas: Vec<f64> = (0..ising.edges().len()).map(|_| rng.next_range(-0.1, 0.1)).collect();
        let mut next = deltas.iter();
        csr.add_to_couplings(|| *next.next().expect("one delta per edge"));
        prop_assert!(next.next().is_none(), "one delta per edge");
        let edges: Vec<(usize, usize)> = ising.edges().iter().map(|&(i, j, _)| (i, j)).collect();
        for (&(i, j), &d) in edges.iter().zip(&deltas) {
            ising.add_coupling(i, j, d);
        }
        same(&csr, &from_ising(&ising))?;
    }
}

#[test]
fn from_couplings_equals_set_coupling_in_order() {
    let couplings = vec![(2, 0, 0.5), (1, 2, -0.25), (0, 1, 0.0), (3, 1, 1.5)];
    let built = Ising::from_couplings(vec![0.1, 0.2, 0.3, 0.4], couplings.clone());
    let mut set = Ising::new(4);
    for (k, &h) in [0.1, 0.2, 0.3, 0.4].iter().enumerate() {
        set.set_h(k, h);
    }
    for &(i, j, w) in &couplings {
        set.set_coupling(i, j, w);
    }
    assert_eq!(built.h_slice(), set.h_slice());
    assert_eq!(built.edges(), set.edges());
    assert_eq!(built.edges()[0], (0, 2, 0.5), "pairs are stored canonical");
    for k in 0..4 {
        assert_eq!(built.neighbors(k), set.neighbors(k));
    }
    // Updating an edge of a built model reaches every view.
    let mut updated = built.clone();
    updated.add_coupling(1, 3, 0.5);
    assert_eq!(updated.edges()[3], (1, 3, 2.0));
    assert_eq!(updated.coupling(3, 1), 2.0);
    assert_eq!(updated.neighbors(3), &[(1, 2.0)]);
}

#[test]
#[should_panic(expected = "is repeated")]
fn from_couplings_rejects_a_repeated_pair() {
    Ising::from_couplings(vec![0.0; 3], vec![(0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0)]);
}

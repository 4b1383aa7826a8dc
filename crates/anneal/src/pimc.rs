//! Path-integral Monte Carlo (PIMC / simulated quantum annealing).
//!
//! The standard classical simulation of a transverse-field annealer: the
//! Suzuki-Trotter decomposition maps the quantum partition function at
//! inverse temperature `β` onto a classical Ising system of `P` coupled
//! replicas ("Trotter slices") with action
//!
//! ```text
//!   S = Σ_k  β·B(s)/(2P) · E_problem(slice_k)  −  J⊥(s) Σ_{i,k} s_{i,k} s_{i,k+1}
//!   J⊥(s) = −½ ln tanh( β·A(s) / (2P) )      (periodic in k)
//! ```
//!
//! Early in the anneal `A` is large → `J⊥` is small → slices fluctuate
//! independently (strong quantum fluctuations). Late in the anneal `A → 0`
//! → `J⊥ → ∞` → the replicas lock into a single classical state. Reverse
//! annealing initializes **all slices to the programmed classical state**
//! and re-opens fluctuations down to `s_p`, exactly the "refined local
//! search" semantics of the paper's §4.1.
//!
//! Moves per sweep: one Metropolis update per (site, slice), then one
//! imaginary-time cluster flip per site (a Wolff segment along the Trotter
//! ring) — the standard simulated-quantum-annealing move set, which keeps
//! tunneling possible once `J⊥` grows.
//!
//! Readout: per-site majority vote across slices (D-Wave readout projects
//! the state; at `s = 1` slices agree except for rare unfrozen sites).
//!
//! Rejection-free gate: every acceptance is `g · min(1, e^{−Δ})`, the
//! freeze-out gate `g` of [`crate::engine::FreezeOut`] times Metropolis,
//! and over the paper's reverse-anneal window (`s ≥ 0.65`) `g` is a few
//! percent. Given `u < g`, `u/g` is uniform, so that test is a gate coin
//! of probability `g`, independent of the state, then a fresh Metropolis
//! test. Within a sweep `g` is constant, so the passing moves are a
//! Bernoulli(g) process in move order, with i.i.d. Geometric(g) gaps. Each
//! sweep numbers its `P·n` single-site moves (slice-major), then its `n`
//! cluster moves, and jumps from one passing move to the next
//! (`engine::GateGaps`); a skipped move draws nothing. The walk restarts
//! at every sweep boundary, exact by memorylessness. A passing move with
//! `Δ > 0` is accepted when a fresh Exp(1) draw `E` ([`hqw_math::Exp1`])
//! exceeds `Δ`: `P(E > Δ) = e^{−Δ}`, the probability of the uniform test
//! `u < e^{−Δ}`, with no `exp`; a move with `Δ ≤ 0` draws nothing. A
//! passing cluster move first draws its start slice and grows its Wolff
//! segment, which is valid because the growth is independent of the gate
//! coin. Rounding: a gap is `⌊E/λ⌋` with `λ = −ln1p(−g)`, every tail
//! `P(G ≥ k)` within `ε + 2⁻⁵¹` of `(1−g)^k`, where `ε ≤ 6·10⁻¹⁴` is the
//! ziggurat's table error (derived at `engine::GateGaps`); at `g ≥ 1` it
//! is 0. An acceptance `E > Δ` is within `ε` plus about 2⁻⁵³ of `e^{−Δ}`.
//! The chain is the same in distribution (`tests/equivalence.rs` checks
//! it against the per-move chain) at about `g` of the draws and with no
//! `ln` or `exp` per visited move.
//!
//! Reads: [`AnnealEngine::run_reads`] builds the CSR, the sweep plan and
//! a programmed state's local fields once, then runs the reads one after
//! another over one scratch. Each read consumes only its own generator,
//! so the results equal lone [`AnnealEngine::run`] calls.

use crate::dwave::DWaveProfile;
use crate::engine::{resolve_initial, AnnealEngine, AnnealParams, GateGaps};
use crate::schedule::AnnealSchedule;
use hqw_math::{Exp1, Rng64};
use hqw_qubo::{CsrIsing, Ising};

/// Cap on the inter-slice coupling: beyond this the alignment Boltzmann
/// penalty (`e^{−4·J⊥}` ≈ 10⁻³⁵) is indistinguishable from frozen.
const J_PERP_MAX: f64 = 20.0;

/// Floor on `A(s)` so `J⊥` stays finite at `s = 1`.
const A_FLOOR_GHZ: f64 = 1e-12;

/// Path-integral quantum Monte Carlo engine.
///
/// Each sweep makes single-site Metropolis updates and imaginary-time
/// *cluster* flips (Wolff segments along the Trotter ring, field terms via
/// Metropolis). Single-site updates alone underestimate tunneling badly
/// once `J⊥` grows: flipping any spin requires nucleating a kink pair,
/// whose cost is unrelated to the physical barrier. Cluster updates let a
/// whole worldline segment flip at once — early in the anneal the segments
/// are short (quantum fluctuations), late they span all slices and reduce
/// to thermally-activated classical flips at the device temperature.
#[derive(Debug, Clone, Copy)]
pub struct PimcEngine {
    /// Number of Trotter slices `P ≥ 2`. More slices = finer quantum
    /// discretization and more work; 16–32 is the usual range.
    pub trotter_slices: usize,
}

impl Default for PimcEngine {
    fn default() -> Self {
        PimcEngine { trotter_slices: 16 }
    }
}

/// One sweep's constants, a row of the plan built before any read runs.
struct Sweep {
    /// Inter-slice coupling `J⊥(s)`.
    j_perp: f64,
    /// Classical action scale `β·B(s)/(2P)`.
    k_cl: f64,
    /// Integer threshold of the cluster bond probability `1 − e^{−2·J⊥}`.
    bond_below: u64,
    /// Gaps between the moves the sweep's gate lets through.
    gaps: GateGaps,
}

/// Exact `pos / n` as a multiply-high by `⌈2⁶⁴/n⌉`, for `pos < 2³²`.
///
/// Write `⌈2⁶⁴/n⌉ = (2⁶⁴ + e)/n` with `0 ≤ e < n`: the high word of the
/// product is `⌊pos/n + pos·e/(n·2⁶⁴)⌋`, and the error term is below
/// `1/n` whenever `pos < 2³²` and `n ≤ 2³²`, too small to carry past the
/// next multiple of `n`. `⌈2⁶⁴/1⌉` does not fit a `u64`, so `n = 1` has no
/// reciprocal and passes `pos` through a mask instead, still without a
/// branch.
#[derive(Clone, Copy, Debug)]
struct SliceIndex {
    recip: u64,
    pass: u64,
}

impl SliceIndex {
    /// The divider by `n` for positions below `positions`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `positions > 2³²`.
    fn new(n: usize, positions: usize) -> Self {
        assert!(n > 0, "SliceIndex: empty slice");
        assert!(
            positions <= 1 << 32,
            "SliceIndex: {positions} positions exceed the exact range 2³²"
        );
        match n as u64 {
            1 => SliceIndex {
                recip: 0,
                pass: u64::MAX,
            },
            n => SliceIndex {
                recip: u64::MAX / n + 1,
                pass: 0,
            },
        }
    }

    /// `pos / n`.
    #[inline]
    fn of(self, pos: usize) -> usize {
        let pos = pos as u64;
        let high = ((u128::from(pos) * u128::from(self.recip)) >> 64) as u64;
        (high + (pos & self.pass)) as usize
    }
}

impl PimcEngine {
    /// Creates an engine with the given slice count.
    ///
    /// # Panics
    /// Panics when `trotter_slices < 2` (the slice-coupling term degenerates).
    pub fn new(trotter_slices: usize) -> Self {
        assert!(
            trotter_slices >= 2,
            "PimcEngine: need at least 2 Trotter slices"
        );
        PimcEngine { trotter_slices }
    }

    /// Inter-slice ferromagnetic coupling `J⊥` at anneal fraction `s`.
    pub fn j_perp(&self, profile: &DWaveProfile, beta: f64, s: f64) -> f64 {
        let gamma = (profile.a_ghz(s) / 2.0).max(A_FLOOR_GHZ);
        let arg = (beta * gamma / self.trotter_slices as f64).tanh();
        (-0.5 * arg.ln()).min(J_PERP_MAX)
    }

    /// The constants of every sweep whose freeze-out gate is open.
    fn sweep_plan(
        &self,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
    ) -> Vec<Sweep> {
        let beta = params.beta(profile);
        let p_f = self.trotter_slices as f64;
        let plan = params.open_sweeps(profile, schedule).map(|(_, s, gate)| {
            let j_perp = self.j_perp(profile, beta, s);
            Sweep {
                j_perp,
                k_cl: beta * profile.b_ghz(s) / (2.0 * p_f),
                bond_below: Rng64::unit_threshold(1.0 - (-2.0 * j_perp).exp()),
                gaps: GateGaps::new(gate),
            }
        });
        plan.collect()
    }

    /// One read over the shared CSR and plan, from the programmed state
    /// and its local fields when the schedule has one; `spins` and `h_eff`
    /// are scratch reused across reads.
    fn read(
        &self,
        csr: &CsrIsing,
        plan: &[Sweep],
        start: Option<(&[i8], &[f64])>,
        (spins, h_eff): (&mut Vec<i8>, &mut Vec<f64>),
        rng: &mut Rng64,
    ) -> Vec<i8> {
        let n = csr.num_vars();
        let p = self.trotter_slices;
        let pn = p * n;
        let slice_of = SliceIndex::new(n, pn + n);
        let exp1 = Exp1::new();

        // Replicas, spins[k*n + i] = site i of slice k, and their cached
        // local fields h_eff[k*n + i] = h_i + Σ_j J_ij s_{j,k}: proposals
        // read a field in O(1); only accepted flips pay an O(degree) update.
        spins.clear();
        h_eff.clear();
        match start {
            Some((state, fields)) => (0..p).for_each(|_| {
                spins.extend_from_slice(state);
                h_eff.extend_from_slice(fields);
            }),
            // Forward start (s = 0): the transverse field dominates and the
            // computational-basis marginal is uniform — random replicas.
            None => {
                spins.extend((0..pn).map(|_| if rng.next_bool() { 1i8 } else { -1 }));
                h_eff.resize(pn, 0.0);
                for (slice, fields) in spins.chunks_exact(n).zip(h_eff.chunks_exact_mut(n)) {
                    csr.fill_local_fields(slice, fields);
                }
            }
        }
        // Flips the spin at `row + i` (`row` = a slice offset) and folds
        // its sign change into the cached fields of its in-slice neighbors.
        let flip_and_update = |spins: &mut [i8], h_eff: &mut [f64], row: usize, i: usize| {
            let s_new = -spins[row + i];
            spins[row + i] = s_new;
            let ds = 2.0 * s_new as f64;
            csr.axpy_row(&mut h_eff[row..row + n], i, ds);
        };
        // Neighbors of slice k along the periodic Trotter ring.
        let up = |k: usize| if k + 1 == p { 0 } else { k + 1 };
        let down = |k: usize| if k == 0 { p - 1 } else { k - 1 };

        for sweep in plan {
            // Moves 0..pn are the (slice, site) Metropolis updates, moves
            // pn..pn+n the per-site cluster moves; only passing moves are
            // visited. Slice `k = pos / n` comes from a multiply-high by a
            // reciprocal fixed per read (`SliceIndex`, exact because every
            // position is below (P+1)·n ≤ 2³²): passing moves land at random
            // gaps, so a cursor stepping row by row mispredicts its exit,
            // and a hardware divide costs more than either.
            sweep.gaps.walk(rng, pn + n, |rng, pos| {
                if pos < pn {
                    let k = slice_of.of(pos);
                    let row = k * n;
                    let i = pos - row;
                    let sik = spins[row + i] as f64;
                    let field = h_eff[row + i];
                    let time_neighbors = (spins[up(k) * n + i] + spins[down(k) * n + i]) as f64;
                    // Δ action for flipping s_{i,k}: the slice energy
                    // changes by −2·s·field and each time link by
                    // +2·J⊥·s·neighbor.
                    let delta =
                        -2.0 * sik * sweep.k_cl * field + 2.0 * sik * sweep.j_perp * time_neighbors;
                    if delta <= 0.0 || exp1.sample(rng) > delta {
                        flip_and_update(spins, h_eff, row, i);
                    }
                    return;
                }
                // Imaginary-time cluster move at site i: grow a Wolff
                // segment along the Trotter ring with bond probability
                // 1 − e^{−2·J⊥} over aligned time-neighbors, then flip it,
                // accepting on the classical (field) part alone. Stochastic
                // bond growth makes the proposal symmetric; at large J⊥ the
                // segment usually wraps the whole ring and the move
                // degenerates into a classical Metropolis flip at the full
                // device β — thermal activation.
                let i = pos - pn;
                let at = |k: usize| k * n + i;
                let start = rng.next_index(p);
                let s0 = spins[at(start)];
                // The segment is the cyclic run [lo, hi] holding `len`
                // slices. Growth stops, without a bond draw, at the first
                // anti-aligned slice or once the run covers the whole ring;
                // otherwise a failed Bernoulli bond stops it. Forward (k+1
                // direction) first, then backward.
                let (mut lo, mut hi, mut len) = (start, start, 1);
                while len < p && spins[at(up(hi))] == s0 && rng.next_u53() < sweep.bond_below {
                    hi = up(hi);
                    len += 1;
                }
                while len < p && spins[at(down(lo))] == s0 && rng.next_u53() < sweep.bond_below {
                    lo = down(lo);
                    len += 1;
                }
                // Classical action change of flipping the whole segment.
                // The cached fields of site i never contain s_i itself (no
                // self-coupling), so the per-slice deltas are independent
                // and can all be read before flipping.
                let mut delta = 0.0;
                let mut k = lo;
                for _ in 0..len {
                    delta += -2.0 * s0 as f64 * sweep.k_cl * h_eff[at(k)];
                    k = up(k);
                }
                if delta <= 0.0 || exp1.sample(rng) > delta {
                    // Each flip touches only its own slice's fields, so the
                    // flip order is free.
                    k = lo;
                    for _ in 0..len {
                        flip_and_update(spins, h_eff, k * n, i);
                        k = up(k);
                    }
                }
            });
        }

        // Majority-vote readout across slices.
        let vote = |i: usize| (0..p).map(|k| spins[k * n + i] as i32).sum::<i32>();
        (0..n).map(|i| if vote(i) >= 0 { 1 } else { -1 }).collect()
    }
}

impl AnnealEngine for PimcEngine {
    fn name(&self) -> &'static str {
        "PIMC"
    }

    fn run(
        &self,
        problem: &Ising,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
        initial: Option<&[i8]>,
        rng: &mut Rng64,
    ) -> Vec<i8> {
        let rngs = std::slice::from_mut(rng);
        let mut reads = self.run_reads(problem, profile, schedule, params, initial, rngs);
        reads.pop().expect("one generator, one read")
    }

    fn run_reads(
        &self,
        problem: &Ising,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
        initial: Option<&[i8]>,
        rngs: &mut [Rng64],
    ) -> Vec<Vec<i8>> {
        let csr = CsrIsing::from_ising(problem);
        let n = csr.num_vars();
        if n == 0 {
            return vec![Vec::new(); rngs.len()];
        }
        // A programmed state starts every slice of every read: its local
        // fields are computed once.
        let start = resolve_initial(schedule, n, initial).map(|state| {
            let mut fields = vec![0.0; n];
            csr.fill_local_fields(&state, &mut fields);
            (state, fields)
        });
        let start = start.as_ref().map(|(s, f)| (s.as_slice(), f.as_slice()));
        let plan = self.sweep_plan(profile, schedule, params);
        let (mut spins, mut h_eff) = (Vec::new(), Vec::new());
        rngs.iter_mut()
            .map(|rng| self.read(&csr, &plan, start, (&mut spins, &mut h_eff), rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreezeOut;
    use hqw_qubo::solution::bits_to_spins;

    fn ferromagnet(n: usize) -> Ising {
        // All-ferromagnetic chain with a field pinning the ground state to
        // all-up: E(all +1) is the unique minimum.
        let mut ising = Ising::new(n);
        for i in 0..n {
            ising.set_h(i, -0.4);
            if i + 1 < n {
                ising.set_coupling(i, i + 1, -1.0);
            }
        }
        ising
    }

    #[test]
    fn j_perp_is_monotone_in_s() {
        let engine = PimcEngine::default();
        let profile = DWaveProfile::default();
        let beta = profile.beta();
        let mut prev = 0.0;
        for k in 0..=10 {
            let s = k as f64 / 10.0;
            let j = engine.j_perp(&profile, beta, s);
            assert!(j >= prev - 1e-12, "J⊥ not monotone at s={s}");
            assert!(j <= J_PERP_MAX);
            prev = j;
        }
        // Late anneal: effectively frozen (alignment penalty e^{−4·J⊥} < 10⁻¹⁷).
        assert!(engine.j_perp(&profile, beta, 1.0) >= 10.0);
    }

    #[test]
    fn forward_anneal_finds_ferromagnetic_ground_state() {
        let ising = ferromagnet(8);
        let engine = PimcEngine::new(8);
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::forward(2.0).unwrap();
        let params = AnnealParams {
            sweeps_per_us: 64,
            beta_override: None,
            freeze_out: Some(FreezeOut::default()),
        };
        let mut rng = Rng64::new(11);
        let mut hits = 0;
        for _ in 0..10 {
            let out = engine.run(&ising, &profile, &schedule, &params, None, &mut rng);
            if out.iter().all(|&s| s == 1) {
                hits += 1;
            }
        }
        assert!(hits >= 8, "FA found the 8-spin ferromagnet {hits}/10 times");
    }

    #[test]
    fn reverse_anneal_at_high_sp_preserves_initial_state() {
        // s_p close to 1 re-opens almost no fluctuations: the programmed
        // state must survive (the paper's "s_p should not be too close to 1
        // … [or] too close to 0" trade-off, upper end). The all-down state
        // is a *local minimum* of the field-pinned-up ferromagnet, so only
        // genuine fluctuations — not plain downhill relaxation — can move it.
        let ising = ferromagnet(8);
        let engine = PimcEngine::new(8);
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::reverse(0.95, 0.2).unwrap();
        let params = AnnealParams::default();
        let init = bits_to_spins(&[0, 0, 0, 0, 0, 0, 0, 0]);
        let mut rng = Rng64::new(13);
        let mut preserved = 0;
        for _ in 0..10 {
            let out = engine.run(&ising, &profile, &schedule, &params, Some(&init), &mut rng);
            if out == init {
                preserved += 1;
            }
        }
        assert!(
            preserved >= 8,
            "shallow RA should preserve the initial state, got {preserved}/10"
        );
    }

    #[test]
    fn reverse_anneal_at_low_sp_wipes_initial_state() {
        // s_p near 0 erases the initial information (the paper's lower end):
        // starting from the all-down state of a field-pinned-up ferromagnet,
        // deep reverse annealing should mostly recover all-up.
        let ising = ferromagnet(6);
        let engine = PimcEngine::new(8);
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::reverse(0.05, 1.0).unwrap();
        let params = AnnealParams {
            sweeps_per_us: 64,
            beta_override: None,
            freeze_out: Some(FreezeOut::default()),
        };
        let init = vec![-1i8; 6];
        let mut rng = Rng64::new(17);
        let mut recovered = 0;
        for _ in 0..10 {
            let out = engine.run(&ising, &profile, &schedule, &params, Some(&init), &mut rng);
            if out.iter().all(|&s| s == 1) {
                recovered += 1;
            }
        }
        assert!(
            recovered >= 7,
            "deep RA should escape the programmed excited state, got {recovered}/10"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let ising = ferromagnet(6);
        let engine = PimcEngine::default();
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::forward(1.0).unwrap();
        let params = AnnealParams::default();
        let a = engine.run(
            &ising,
            &profile,
            &schedule,
            &params,
            None,
            &mut Rng64::new(5),
        );
        let b = engine.run(
            &ising,
            &profile,
            &schedule,
            &params,
            None,
            &mut Rng64::new(5),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn empty_problem_returns_empty_state() {
        let ising = Ising::new(0);
        let engine = PimcEngine::default();
        let out = engine.run(
            &ising,
            &DWaveProfile::default(),
            &AnnealSchedule::forward(1.0).unwrap(),
            &AnnealParams::default(),
            None,
            &mut Rng64::new(1),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn slice_index_is_exact_division_on_every_served_position() {
        for p in [2, 8, 16, 32] {
            for n in 1..=64 {
                let positions = (p + 1) * n;
                let slice_of = SliceIndex::new(n, positions);
                for pos in 0..positions {
                    assert_eq!(slice_of.of(pos), pos / n, "pos {pos}, n {n}, P {p}");
                }
            }
        }
    }

    #[test]
    fn slice_index_is_exact_up_to_two_to_the_32() {
        const LIMIT: usize = 1 << 32;
        let mut rng = Rng64::new(23);
        let mut divisors = vec![2, 3, 7, 1000, 65_535, 65_537, 1 << 31, LIMIT - 1, LIMIT];
        divisors.extend((0..40).map(|_| 2 + rng.next_index(LIMIT - 1)));
        for n in divisors {
            let slice_of = SliceIndex::new(n, LIMIT);
            // Around the last multiples of n below 2³², and at random.
            let top = (LIMIT - 1) / n * n;
            let mut probes = vec![0, 1, n - 1, LIMIT - 1];
            for m in [top, top.saturating_sub(n), n] {
                probes.extend([m.saturating_sub(1), m, m + 1]);
            }
            probes.extend((0..200).map(|_| rng.next_index(LIMIT)));
            for pos in probes.into_iter().filter(|&pos| pos < LIMIT) {
                assert_eq!(slice_of.of(pos), pos / n, "pos {pos}, n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the exact range")]
    fn slice_index_rejects_positions_past_two_to_the_32() {
        SliceIndex::new(3, (1 << 32) + 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 Trotter slices")]
    fn single_slice_rejected() {
        PimcEngine::new(1);
    }
}

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
//! Moves per sweep: one Metropolis update per (site, slice) plus one
//! all-slice ("global") flip per site — the standard mix that keeps dynamics
//! ergodic when `J⊥` is large.
//!
//! Readout: per-site majority vote across slices (D-Wave readout projects
//! the state; at `s = 1` slices agree except for rare unfrozen sites).
//!
//! Gate-first lazy chain: every acceptance is `gate · min(1, e^{−Δ})`, the
//! freeze-out gate of [`crate::engine::FreezeOut`], and over the paper's
//! reverse-anneal window (`s ≥ 0.65`) the gate is a few percent at most.
//! So each move draws its uniform `u` first and rejects on `u ≥ gate`
//! before it reads a field or calls `exp`; only `u < gate` computes Δ and
//! tests `u < gate·e^{−Δ}`. This is bit-identical to computing Δ before
//! the draw: the RNG stream is unchanged (one draw per proposal, in the
//! same order), the float ops that do run are the same, and in IEEE
//! arithmetic `gate·e^{−Δ} ≤ gate`, so every `u` rejected early would have
//! been rejected anyway. A cluster move makes its Bernoulli bond draws
//! while the segment grows, then its accept draw, as before; only the
//! segment's Δ sum waits for the gate.

use crate::dwave::DWaveProfile;
use crate::engine::{resolve_initial, AnnealEngine, AnnealParams};
use crate::schedule::AnnealSchedule;
use hqw_math::Rng64;
use hqw_qubo::{CsrIsing, Ising};

/// Cap on the inter-slice coupling: beyond this the alignment Boltzmann
/// penalty (`e^{−4·J⊥}` ≈ 10⁻³⁵) is indistinguishable from frozen.
const J_PERP_MAX: f64 = 20.0;

/// Floor on `A(s)` so `J⊥` stays finite at `s = 1`.
const A_FLOOR_GHZ: f64 = 1e-12;

/// Path-integral quantum Monte Carlo engine.
#[derive(Debug, Clone, Copy)]
pub struct PimcEngine {
    /// Number of Trotter slices `P ≥ 2`. More slices = finer quantum
    /// discretization and more work; 16–32 is the usual range.
    pub trotter_slices: usize,
    /// Also attempt one all-slice ("global") flip per site per sweep.
    ///
    /// Global moves accelerate *equilibration* but are unphysical as a model
    /// of annealer dynamics — a collective flip across all of imaginary time
    /// teleports between classical states with no tunneling cost, which
    /// erases exactly the initial-state memory reverse annealing relies on.
    /// They are **off by default** (annealer-faithful dynamics) and exist
    /// for the sampler's equilibrium/ablation uses.
    pub global_moves: bool,
    /// Attempt one imaginary-time *cluster* flip per site per sweep
    /// (Wolff segments along the Trotter ring, field terms via Metropolis).
    ///
    /// Single-site updates alone underestimate tunneling badly once `J⊥`
    /// grows: flipping any spin requires nucleating a kink pair, whose cost
    /// is unrelated to the physical barrier. Cluster updates let a whole
    /// worldline segment flip at once — early in the anneal the segments are
    /// short (quantum fluctuations), late they span all slices and reduce to
    /// thermally-activated classical flips at the device temperature. This
    /// is the standard move set of simulated-quantum-annealing codes and is
    /// **on by default**.
    pub cluster_moves: bool,
}

impl Default for PimcEngine {
    fn default() -> Self {
        PimcEngine {
            trotter_slices: 16,
            global_moves: false,
            cluster_moves: true,
        }
    }
}

impl PimcEngine {
    /// Creates an engine with the given slice count (cluster moves on,
    /// global moves off).
    ///
    /// # Panics
    /// Panics when `trotter_slices < 2` (the slice-coupling term degenerates).
    pub fn new(trotter_slices: usize) -> Self {
        assert!(
            trotter_slices >= 2,
            "PimcEngine: need at least 2 Trotter slices"
        );
        PimcEngine {
            trotter_slices,
            global_moves: false,
            cluster_moves: true,
        }
    }

    /// Inter-slice ferromagnetic coupling `J⊥` at anneal fraction `s`.
    pub fn j_perp(&self, profile: &DWaveProfile, beta: f64, s: f64) -> f64 {
        let gamma = (profile.a_ghz(s) / 2.0).max(A_FLOOR_GHZ);
        let arg = (beta * gamma / self.trotter_slices as f64).tanh();
        (-0.5 * arg.ln()).min(J_PERP_MAX)
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
        let csr = CsrIsing::from_ising(problem);
        let n = csr.num_vars();
        if n == 0 {
            return Vec::new();
        }
        let init = resolve_initial(schedule, n, initial);
        let p = self.trotter_slices;
        let beta = params.beta(profile);

        // Slice-major replica storage: spins[k*n + i].
        let mut spins: Vec<i8> = match &init {
            Some(state) => (0..p).flat_map(|_| state.iter().copied()).collect(),
            // Forward start (s = 0): the transverse field dominates and the
            // computational-basis marginal is uniform — random replicas.
            None => (0..p * n)
                .map(|_| if rng.next_bool() { 1 } else { -1 })
                .collect(),
        };

        // Incrementally-maintained classical local fields per (slice, site):
        // h_eff[k*n + i] = h_i + Σ_j J_ij s_{j,k}. Proposals read them in
        // O(1); only accepted flips pay an O(degree) neighbor update.
        let mut h_eff: Vec<f64> = vec![0.0; p * n];
        for k in 0..p {
            csr.fill_local_fields(&spins[k * n..(k + 1) * n], &mut h_eff[k * n..(k + 1) * n]);
        }
        // Flips spin (slice base, site i) and folds its sign change into the
        // cached fields of its in-slice neighbors (contiguous-run AXPY —
        // bit-identical to the historical gather).
        let flip_and_update = |spins: &mut [i8], h_eff: &mut [f64], base: usize, i: usize| {
            let s_new = -spins[base + i];
            spins[base + i] = s_new;
            let ds = 2.0 * s_new as f64;
            csr.axpy_row(&mut h_eff[base..base + n], i, ds);
        };
        // Neighbors of slice k along the periodic Trotter ring.
        let up = |k: usize| if k + 1 == p { 0 } else { k + 1 };
        let down = |k: usize| if k == 0 { p - 1 } else { k - 1 };

        let total_sweeps = params.total_sweeps(schedule);
        let duration = schedule.duration_us();
        let p_f = p as f64;

        for sweep in 0..total_sweeps {
            let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
            let s = schedule.s_at(t);
            let j_perp = self.j_perp(profile, beta, s);
            let k_cl = beta * profile.b_ghz(s) / (2.0 * p_f);
            let gate = params.gate(profile.a_ghz(s));
            if gate <= 0.0 {
                continue; // fully frozen: no dynamics at this point
            }

            // Single (site, slice) Metropolis updates on the lazy chain,
            // gate first (see the module docs).
            for k in 0..p {
                let (k_up, k_down) = (up(k), down(k));
                let base = k * n;
                for i in 0..n {
                    let u = rng.next_f64();
                    if u >= gate {
                        continue;
                    }
                    let sik = spins[base + i] as f64;
                    let field = h_eff[base + i];
                    let time_neighbors = (spins[k_up * n + i] + spins[k_down * n + i]) as f64;
                    // Δ action for flipping s_{i,k}: the slice energy changes
                    // by −2·s·field and each time link by +2·J⊥·s·neighbor.
                    let delta = -2.0 * sik * k_cl * field + 2.0 * sik * j_perp * time_neighbors;
                    if delta <= 0.0 || u < gate * (-delta).exp() {
                        flip_and_update(&mut spins, &mut h_eff, base, i);
                    }
                }
            }

            // Imaginary-time cluster moves: per site, grow a Wolff segment
            // along the Trotter ring with bond probability 1 − e^{−2·J⊥}
            // over aligned time-neighbors, then flip it, accepting on the
            // classical (field) part alone. Stochastic bond growth makes the
            // proposal symmetric; at large J⊥ the segment usually wraps the
            // whole ring and the move degenerates into a classical
            // Metropolis flip at the full device β — thermal activation.
            if self.cluster_moves {
                let p_bond = 1.0 - (-2.0 * j_perp).exp();
                for i in 0..n {
                    let start = rng.next_index(p);
                    let s0 = spins[start * n + i];
                    // The segment is the cyclic run [lo, hi] holding `len`
                    // slices. Growth stops, without a bond draw, at the
                    // first anti-aligned slice or once the run covers the
                    // whole ring; otherwise a failed Bernoulli bond stops it.
                    // Forward (k+1 direction) first, then backward.
                    let (mut lo, mut hi, mut len) = (start, start, 1);
                    while len < p && spins[up(hi) * n + i] == s0 && rng.next_f64() < p_bond {
                        hi = up(hi);
                        len += 1;
                    }
                    while len < p && spins[down(lo) * n + i] == s0 && rng.next_f64() < p_bond {
                        lo = down(lo);
                        len += 1;
                    }
                    let u = rng.next_f64();
                    if u >= gate {
                        continue;
                    }
                    // Classical action change of flipping the whole segment,
                    // summed in growth order (start, forward, then backward).
                    // The cached fields of site i never contain s_i itself
                    // (no self-coupling), so the per-slice deltas are
                    // independent and can all be read before flipping.
                    let mut delta = 0.0;
                    let mut k = start;
                    loop {
                        delta += -2.0 * s0 as f64 * k_cl * h_eff[k * n + i];
                        if k == hi {
                            break;
                        }
                        k = up(k);
                    }
                    k = start;
                    while k != lo {
                        k = down(k);
                        delta += -2.0 * s0 as f64 * k_cl * h_eff[k * n + i];
                    }
                    if delta <= 0.0 || u < gate * (-delta).exp() {
                        // Each flip touches only its own slice's fields, so
                        // the flip order is free.
                        k = lo;
                        for _ in 0..len {
                            flip_and_update(&mut spins, &mut h_eff, k * n, i);
                            k = up(k);
                        }
                    }
                }
            }

            // Optional global moves: flip site i in every slice (time links
            // unchanged). See the field docs for why this is off by default.
            if self.global_moves {
                for i in 0..n {
                    let u = rng.next_f64();
                    if u >= gate {
                        continue;
                    }
                    let mut delta = 0.0;
                    for k in 0..p {
                        let base = k * n;
                        let sik = spins[base + i] as f64;
                        delta += -2.0 * sik * k_cl * h_eff[base + i];
                    }
                    if delta <= 0.0 || u < gate * (-delta).exp() {
                        for k in 0..p {
                            flip_and_update(&mut spins, &mut h_eff, k * n, i);
                        }
                    }
                }
            }
        }

        // Majority-vote readout across slices.
        (0..n)
            .map(|i| {
                let sum: i32 = (0..p).map(|k| spins[k * n + i] as i32).sum();
                if sum >= 0 {
                    1
                } else {
                    -1
                }
            })
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
    #[should_panic(expected = "at least 2 Trotter slices")]
    fn single_slice_rejected() {
        PimcEngine::new(1);
    }
}

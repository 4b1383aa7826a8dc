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
//!
//! Integer gate: the gate and bond tests compare the raw 53-bit draw `m`
//! behind `u = m·2⁻⁵³` against a per-sweep threshold
//! ([`Rng64::unit_threshold`]): `m < ⌈p·2⁵³⌉` holds exactly when
//! `u < p` does, so the common reject costs one integer compare and no
//! float conversion. Only a draw that passes the gate is converted, for
//! the `u < gate·e^{−Δ}` test.
//!
//! Lanes: [`AnnealEngine::run_reads`] runs all reads of a submission in
//! lockstep on one problem. The CSR is built once, the schedule constants
//! (`s`, `J⊥`, the gate and bond thresholds) once per sweep, and at each
//! (slice, site) — then at each site for the cluster moves — every lane
//! steps its own RNG and its own replicas. Lanes share nothing mutable, so
//! each lane consumes its RNG in exactly the order a lone read would: the
//! readouts and trailing RNG states equal one-lane runs, and
//! [`AnnealEngine::run`] is the one-lane case. Interleaving independent
//! lanes also overlaps their serial RNG chains on the core. Replicas and
//! fields live in lane-major scratch: `spins[(l·P + k)·n + i]`.

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
        let mut reads = self.run_reads(
            problem,
            profile,
            schedule,
            params,
            initial,
            std::slice::from_mut(rng),
        );
        reads.pop().expect("one lane, one read")
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
        let init = resolve_initial(schedule, n, initial);
        let p = self.trotter_slices;
        let pn = p * n;
        let beta = params.beta(profile);

        // Lane-major replica storage: spins[l*pn + k*n + i].
        let mut spins: Vec<i8> = Vec::with_capacity(rngs.len() * pn);
        for rng in rngs.iter_mut() {
            match &init {
                Some(state) => (0..p).for_each(|_| spins.extend_from_slice(state)),
                // Forward start (s = 0): the transverse field dominates and
                // the computational-basis marginal is uniform — random
                // replicas.
                None => spins.extend((0..pn).map(|_| if rng.next_bool() { 1i8 } else { -1 })),
            }
        }

        // Incrementally-maintained classical local fields per (lane, slice,
        // site): h_eff[l*pn + k*n + i] = h_i + Σ_j J_ij s_{j,k} in lane l.
        // Proposals read them in O(1); only accepted flips pay an O(degree)
        // neighbor update.
        let mut h_eff: Vec<f64> = vec![0.0; spins.len()];
        for (slice, fields) in spins.chunks_exact(n).zip(h_eff.chunks_exact_mut(n)) {
            csr.fill_local_fields(slice, fields);
        }
        // Flips the spin at `row + i` (`row` = one lane's slice offset) and
        // folds its sign change into the cached fields of its in-slice
        // neighbors (contiguous-run AXPY — bit-identical to the historical
        // gather).
        let flip_and_update = |spins: &mut [i8], h_eff: &mut [f64], row: usize, i: usize| {
            let s_new = -spins[row + i];
            spins[row + i] = s_new;
            let ds = 2.0 * s_new as f64;
            csr.axpy_row(&mut h_eff[row..row + n], i, ds);
        };
        // Neighbors of slice k along the periodic Trotter ring.
        let up = |k: usize| if k + 1 == p { 0 } else { k + 1 };
        let down = |k: usize| if k == 0 { p - 1 } else { k - 1 };

        let total_sweeps = params.total_sweeps(schedule);
        let duration = schedule.duration_us();
        let p_f = p as f64;

        for sweep in 0..total_sweeps {
            // Schedule constants: once per sweep, shared by every lane.
            let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
            let s = schedule.s_at(t);
            let j_perp = self.j_perp(profile, beta, s);
            let k_cl = beta * profile.b_ghz(s) / (2.0 * p_f);
            let gate = params.gate(profile.a_ghz(s));
            if gate <= 0.0 {
                continue; // fully frozen: no dynamics at this point
            }
            let gate_below = Rng64::unit_threshold(gate);

            // Single (site, slice) Metropolis updates on the lazy chain,
            // gate first (see the module docs); each lane in turn per
            // (slice, site).
            for k in 0..p {
                let row = k * n;
                let (row_up, row_down) = (up(k) * n, down(k) * n);
                for i in 0..n {
                    for (lane, rng) in rngs.iter_mut().enumerate() {
                        let m = rng.next_u53();
                        if m >= gate_below {
                            continue;
                        }
                        let base = lane * pn;
                        let sik = spins[base + row + i] as f64;
                        let field = h_eff[base + row + i];
                        let time_neighbors =
                            (spins[base + row_up + i] + spins[base + row_down + i]) as f64;
                        // Δ action for flipping s_{i,k}: the slice energy
                        // changes by −2·s·field and each time link by
                        // +2·J⊥·s·neighbor.
                        let delta = -2.0 * sik * k_cl * field + 2.0 * sik * j_perp * time_neighbors;
                        if delta <= 0.0 || Rng64::unit_f64(m) < gate * (-delta).exp() {
                            flip_and_update(&mut spins, &mut h_eff, base + row, i);
                        }
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
            let bond_below = Rng64::unit_threshold(1.0 - (-2.0 * j_perp).exp());
            for i in 0..n {
                for (lane, rng) in rngs.iter_mut().enumerate() {
                    let base = lane * pn;
                    let at = |k: usize| base + k * n + i;
                    let start = rng.next_index(p);
                    let s0 = spins[at(start)];
                    // The segment is the cyclic run [lo, hi] holding `len`
                    // slices. Growth stops, without a bond draw, at the
                    // first anti-aligned slice or once the run covers the
                    // whole ring; otherwise a failed Bernoulli bond stops
                    // it. Forward (k+1 direction) first, then backward.
                    let (mut lo, mut hi, mut len) = (start, start, 1);
                    while len < p && spins[at(up(hi))] == s0 && rng.next_u53() < bond_below {
                        hi = up(hi);
                        len += 1;
                    }
                    while len < p && spins[at(down(lo))] == s0 && rng.next_u53() < bond_below {
                        lo = down(lo);
                        len += 1;
                    }
                    let m = rng.next_u53();
                    if m >= gate_below {
                        continue;
                    }
                    // Classical action change of flipping the whole segment,
                    // summed in growth order (start, forward, then
                    // backward). The cached fields of site i never contain
                    // s_i itself (no self-coupling), so the per-slice deltas
                    // are independent and can all be read before flipping.
                    let mut delta = 0.0;
                    let mut k = start;
                    loop {
                        delta += -2.0 * s0 as f64 * k_cl * h_eff[at(k)];
                        if k == hi {
                            break;
                        }
                        k = up(k);
                    }
                    k = start;
                    while k != lo {
                        k = down(k);
                        delta += -2.0 * s0 as f64 * k_cl * h_eff[at(k)];
                    }
                    if delta <= 0.0 || Rng64::unit_f64(m) < gate * (-delta).exp() {
                        // Each flip touches only its own slice's fields, so
                        // the flip order is free.
                        k = lo;
                        for _ in 0..len {
                            flip_and_update(&mut spins, &mut h_eff, base + k * n, i);
                            k = up(k);
                        }
                    }
                }
            }
        }

        // Majority-vote readout across slices, per lane.
        spins
            .chunks_exact(pn)
            .map(|lane| {
                (0..n)
                    .map(|i| {
                        let sum: i32 = (0..p).map(|k| lane[k * n + i] as i32).sum();
                        if sum >= 0 {
                            1
                        } else {
                            -1
                        }
                    })
                    .collect()
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

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
//! Thinned site walk (reverse anneals). Call the site move at `(i, k)`
//! *aligned* when both time neighbours agree with `s = s_{i,k}`. Its
//! action is then `Δ = k_cl·X + 4·J⊥` with `X = −2·s·h_eff`, so every
//! aligned move of a sweep has `Δ ≥ d = k_cl·min X + 4·J⊥`, the minimum
//! over aligned sites (`k_cl ≥ 0`). With `j = ⌊d/ln 2⌋` (capped at
//! `J_MAX`), such a move is accepted with `g·e^{−Δ} = g·2^{−j} ·
//! e^{−(Δ − j·ln 2)}`, both factors at most 1: a gate coin of probability
//! `g·2^{−j}`, then the test `E > Δ − j·ln 2`. So a read walks the
//! aligned moves at rate `g·2^{−j}` (the plan caches `1/λ_j` for every
//! `j`) and, merged with it in move order, the moves next to a kink at
//! rate `g` under today's test. Each walk is a Bernoulli process on its
//! own set of moves; the sets and the rates change only with a flip, and
//! after a flip both walks restart behind it, which is exact by
//! memorylessness. For the same reason an aligned walk still pending at
//! a sweep's end carries into the next sweep when their constants are
//! identical (the `s_p` pause). The bound costs little to keep: a
//! programmed start has every slice equal, so no kinks and one `min X`;
//! a site flip inside a thinned sweep updates the kink list and the
//! per-slice minima of its three slices in O(n + P); any other flip (a
//! cluster move, or a site move of today's walk) marks the bound stale,
//! and a stale bound runs today's walk over every move. It is rebuilt, in
//! O(P·n), only after a flip-free sweep with at least 0.3 expected gate
//! passes per move still ahead, about what the rebuild costs. Forward
//! anneals start from random replicas with no bound and keep today's
//! walk and stream.
//!
//! Rounding of the thinned walk: in floating point an aligned move's `Δ`
//! is `fl(fl(k_cl·X) + 4·J⊥)`. The site move computes it as
//! `(−2·s·k_cl)·h + (2·s·J⊥)·(2·s)`; the doublings and sign changes are
//! exact, so the first product rounds the same real number as `k_cl·X`
//! and the second is `4·J⊥` exactly. Rounding is monotone, so the
//! computed `Δ` is never below `d = fl(fl(k_cl·min X) + 4·J⊥)`, and `j` is
//! lowered until `fl(j·ln 2) ≤ d`: the test's argument `Δ − fl(j·ln 2)`
//! is never negative, so it never saturates. It is within `2⁻⁵¹·Δ` of the
//! exact `Δ − j·ln 2` (the rounded `ln 2`, its product and the
//! difference), so the accepted probability `g·e^{−Δ}` moves by at most
//! `g·2⁻⁵¹·Δ·e^{−Δ} ≤ g·2⁻⁵¹/e`; the rate `g·2^{−j}` is an exact scaling,
//! its gaps within `ε + 2⁻⁵¹` as above.
//!
//! Reads: `PimcEngine::plan` builds the sweep plan, which depends only on
//! the profile, the schedule, the parameters and `P`, so a caller may keep
//! it across submissions ([`crate::QuantumSampler`] does).
//! `PimcPlan::run_reads` builds the CSR and a programmed state's local
//! fields once, then runs the reads one after another over one scratch.
//! Each read consumes only its own generator, so the results equal lone
//! [`AnnealEngine::run`] calls.

use crate::dwave::DWaveProfile;
use crate::engine::{resolve_initial, AnnealEngine, AnnealParams, GateGaps};
use crate::schedule::AnnealSchedule;
use hqw_math::{Exp1, Rng64};
use hqw_qubo::{CsrIsing, Ising};
use std::f64::consts::LN_2;

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

/// Deepest thinning level: aligned site moves are visited at no less than
/// `g·2^{−J_MAX}` per move, about 10⁻¹² of the gate rate, where a
/// deeper level would save no measurable work.
const J_MAX: usize = 40;

/// Expected gate passes per move that must still lie ahead for a stale
/// thinning bound to be rebuilt: a rebuild scans all `P·n` sites, which
/// costs about as much as visiting 0.3 of them.
const REBUILD_MIN_PASSES: f64 = 0.3;

/// One sweep's constants, a row of the plan built before any read runs.
#[derive(Debug)]
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

/// A reverse-anneal sweep's thinned-walk constants.
#[derive(Debug)]
struct ThinSweep {
    /// Index of the sweep's `1/λ_j` row in [`PimcPlan::rates`].
    rates: usize,
    /// The previous open sweep has identical constants, so an aligned-move
    /// walk still pending at its end carries into this one.
    carries: bool,
    /// `Σ g` over this sweep and every later one: the expected gate
    /// passes per move still ahead.
    passes_left: f64,
}

/// The sweep plan of one (profile, schedule, parameters, `P`): every
/// open sweep's constants and, for a reverse schedule, the rates of its
/// thinned site walk. It depends on nothing else, so one plan serves every
/// submission with that key ([`crate::QuantumSampler`] caches it).
#[derive(Debug)]
pub(crate) struct PimcPlan {
    slices: usize,
    profile: DWaveProfile,
    schedule: AnnealSchedule,
    params: AnnealParams,
    sweeps: Vec<Sweep>,
    /// One entry per sweep for a reverse schedule; empty for a forward one.
    thin: Vec<ThinSweep>,
    /// `1/λ_j = −1/ln1p(−g·2^{−j})` for `j = 0..=J_MAX`, one row per run of
    /// sweeps with equal constants.
    rates: Vec<[f64; J_MAX + 1]>,
}

impl PimcPlan {
    /// Whether this plan is the one `engine` builds for the key.
    pub(crate) fn is_for(
        &self,
        engine: &PimcEngine,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
    ) -> bool {
        self.slices == engine.trotter_slices
            && self.params.bits() == params.bits()
            && self.schedule.bits().eq(schedule.bits())
            && self.profile.bits().eq(profile.bits())
    }

    /// Runs one read per generator in `rngs` on `problem` and returns the
    /// readouts in `rngs` order, exactly as [`AnnealEngine::run_reads`].
    ///
    /// The CSR and a programmed state's local fields are built once; the
    /// reads run one after another over one scratch, each consuming only
    /// its own generator.
    ///
    /// # Panics
    /// As [`AnnealEngine::run`].
    pub(crate) fn run_reads(
        &self,
        problem: &Ising,
        initial: Option<&[i8]>,
        rngs: &mut [Rng64],
    ) -> Vec<Vec<i8>> {
        let csr = CsrIsing::from_ising(problem);
        let n = csr.num_vars();
        if n == 0 {
            return vec![Vec::new(); rngs.len()];
        }
        // A programmed state starts every slice of every read: its local
        // fields, and the lowest `X = −2·s·h` of its (all aligned) sites,
        // are computed once.
        let start = resolve_initial(&self.schedule, n, initial).map(|state| {
            let mut fields = vec![0.0; n];
            csr.fill_local_fields(&state, &mut fields);
            let min_x = state
                .iter()
                .zip(&fields)
                .map(|(&s, &h)| -2.0 * s as f64 * h)
                .fold(f64::INFINITY, f64::min);
            Start {
                state,
                fields,
                min_x,
            }
        });
        let p = self.slices;
        let kernel = Kernel {
            plan: self,
            csr: &csr,
            n,
            p,
            slice_of: SliceIndex::new(n, p * n + n),
            exp1: Exp1::new(),
        };
        let mut scratch = Scratch::default();
        rngs.iter_mut()
            .map(|rng| kernel.read(start.as_ref(), &mut scratch, rng))
            .collect()
    }
}

/// A programmed start: the state, its local fields and the lowest `X` of
/// its sites.
struct Start {
    state: Vec<i8>,
    fields: Vec<f64>,
    min_x: f64,
}

/// Buffers reused across the reads of one submission.
#[derive(Default)]
struct Scratch {
    /// Replicas, `spins[k*n + i]` = site `i` of slice `k`.
    spins: Vec<i8>,
    /// Their cached local fields `h_i + Σ_j J_ij s_{j,k}`.
    h_eff: Vec<f64>,
    /// The thinned walk's bound and kink list.
    bound: Bound,
}

/// The thinned walk's view of the replicas: which site moves sit next to a
/// kink, and the lowest `X = −2·s·h` over the others, per slice.
#[derive(Default)]
struct Bound {
    /// Ascending positions of the site moves with a time neighbour that
    /// disagrees.
    kinks: Vec<usize>,
    /// Per slice, the lowest `X` over its aligned sites (`+∞` if none).
    slice_min: Vec<f64>,
    /// The lowest `slice_min`.
    min_x: f64,
    /// False once a flip the bound does not track has happened.
    fresh: bool,
    /// An aligned-move walk still pending at the end of the last thinned
    /// sweep: the moves it skips in the next one, and its level `j`.
    carry: Option<(usize, usize)>,
}

impl Bound {
    /// The thinning level of `sweep`: the largest `j ≤ J_MAX` whose
    /// offset `j·ln 2` (as computed in floating point) does not exceed
    /// `d = k_cl·min X + 4·J⊥`, the least action of any aligned site move.
    /// 0 when the bound gives nothing (or `k_cl < 0` reverses it).
    fn level(&self, sweep: &Sweep) -> usize {
        let d = sweep.k_cl * self.min_x + 4.0 * sweep.j_perp;
        // NaN: no aligned site at `k_cl = 0` (0·∞).
        if sweep.k_cl < 0.0 || d.is_nan() || d < LN_2 {
            return 0;
        }
        let mut j = ((d / LN_2) as usize).min(J_MAX);
        while offset(j) > d {
            j -= 1;
        }
        j
    }
}

/// The acceptance offset `j·ln 2` of thinning level `j`.
#[inline]
fn offset(j: usize) -> f64 {
    j as f64 * LN_2
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

    /// The plan of every sweep whose freeze-out gate is open, with the
    /// thinned-walk rates when `schedule` starts from a programmed state.
    pub(crate) fn plan(
        &self,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
    ) -> PimcPlan {
        let beta = params.beta(profile);
        let p_f = self.trotter_slices as f64;
        let (sweeps, gates): (Vec<Sweep>, Vec<f64>) = params
            .open_sweeps(profile, schedule)
            .map(|(_, s, gate)| {
                let j_perp = self.j_perp(profile, beta, s);
                let sweep = Sweep {
                    j_perp,
                    k_cl: beta * profile.b_ghz(s) / (2.0 * p_f),
                    bond_below: Rng64::unit_threshold(1.0 - (-2.0 * j_perp).exp()),
                    gaps: GateGaps::new(gate),
                };
                (sweep, gate)
            })
            .unzip();
        let (mut thin, mut rates) = (Vec::new(), Vec::new());
        if schedule.requires_initial_state() {
            let mut passes_left: f64 = gates.iter().sum();
            for (at, (sweep, &gate)) in sweeps.iter().zip(&gates).enumerate() {
                let carries = at > 0 && {
                    let prev = &sweeps[at - 1];
                    prev.j_perp.to_bits() == sweep.j_perp.to_bits()
                        && prev.k_cl.to_bits() == sweep.k_cl.to_bits()
                        && gates[at - 1].to_bits() == gate.to_bits()
                };
                if !carries {
                    rates.push(std::array::from_fn(|j| {
                        -1.0 / (-gate * 0.5f64.powi(j as i32)).ln_1p()
                    }));
                }
                thin.push(ThinSweep {
                    rates: rates.len() - 1,
                    carries,
                    passes_left,
                });
                passes_left -= gate;
            }
        }
        PimcPlan {
            slices: self.trotter_slices,
            profile: profile.clone(),
            schedule: schedule.clone(),
            params: *params,
            sweeps,
            thin,
            rates,
        }
    }
}

/// One submission's plan, problem and the per-read constants its reads
/// share.
struct Kernel<'a> {
    plan: &'a PimcPlan,
    csr: &'a CsrIsing,
    n: usize,
    p: usize,
    /// `pos / n` for every move position, below `(P+1)·n`.
    slice_of: SliceIndex,
    exp1: Exp1,
}

impl Kernel<'_> {
    /// Slice `k + 1` along the periodic Trotter ring.
    #[inline]
    fn up(&self, k: usize) -> usize {
        if k + 1 == self.p {
            0
        } else {
            k + 1
        }
    }

    /// Slice `k − 1` along the periodic Trotter ring.
    #[inline]
    fn down(&self, k: usize) -> usize {
        if k == 0 {
            self.p - 1
        } else {
            k - 1
        }
    }

    /// Flips the spin at `row + i` (`row` = a slice offset) and folds its
    /// sign change into the cached fields of its in-slice neighbors.
    #[inline]
    fn flip(&self, spins: &mut [i8], h_eff: &mut [f64], row: usize, i: usize) {
        let s_new = -spins[row + i];
        spins[row + i] = s_new;
        let ds = 2.0 * s_new as f64;
        self.csr.axpy_row(&mut h_eff[row..row + self.n], i, ds);
    }

    /// Whether both time neighbours of the site at `pos` agree with it.
    #[inline]
    fn aligned(&self, spins: &[i8], pos: usize) -> bool {
        let k = self.slice_of.of(pos);
        let i = pos - k * self.n;
        let s = spins[pos];
        spins[self.up(k) * self.n + i] == s && spins[self.down(k) * self.n + i] == s
    }

    /// Slice, site and Δ action of the single-site move at `pos < P·n`:
    /// the slice energy changes by `−2·s·field` and each time link by
    /// `+2·J⊥·s·neighbor`. For an aligned site this is, bit for bit,
    /// `k_cl·X + 4·J⊥` with `X = −2·s·h` (see the module doc).
    #[inline(always)]
    fn site_delta(
        &self,
        sweep: &Sweep,
        spins: &[i8],
        h_eff: &[f64],
        pos: usize,
    ) -> (usize, usize, f64) {
        let n = self.n;
        let k = self.slice_of.of(pos);
        let row = k * n;
        let i = pos - row;
        let sik = spins[pos] as f64;
        let field = h_eff[pos];
        let time_neighbors = (spins[self.up(k) * n + i] + spins[self.down(k) * n + i]) as f64;
        let delta = -2.0 * sik * sweep.k_cl * field + 2.0 * sik * sweep.j_perp * time_neighbors;
        (k, i, delta)
    }

    /// The Metropolis single-site move at `pos < P·n`, accepted when
    /// `Δ ≤ 0` or a fresh Exp(1) draw exceeds `Δ`; returns its slice when
    /// it flipped.
    #[inline(always)]
    fn site_move(
        &self,
        sweep: &Sweep,
        spins: &mut [i8],
        h_eff: &mut [f64],
        rng: &mut Rng64,
        pos: usize,
    ) -> Option<usize> {
        let (k, i, delta) = self.site_delta(sweep, spins, h_eff, pos);
        if delta <= 0.0 || self.exp1.sample(rng) > delta {
            self.flip(spins, h_eff, k * self.n, i);
            return Some(k);
        }
        None
    }

    /// The imaginary-time cluster move at site `i`: grow a Wolff segment
    /// along the Trotter ring with bond probability `1 − e^{−2·J⊥}` over
    /// aligned time-neighbors, then flip it, accepting on the classical
    /// (field) part alone. Stochastic bond growth makes the proposal
    /// symmetric; at large `J⊥` the segment usually wraps the whole ring
    /// and the move degenerates into a classical Metropolis flip at the full
    /// device β — thermal activation. Returns whether it flipped.
    #[inline(always)]
    fn cluster_move(
        &self,
        sweep: &Sweep,
        spins: &mut [i8],
        h_eff: &mut [f64],
        rng: &mut Rng64,
        i: usize,
    ) -> bool {
        let (n, p) = (self.n, self.p);
        let at = |k: usize| k * n + i;
        let start = rng.next_index(p);
        let s0 = spins[at(start)];
        // The segment is the cyclic run [lo, hi] holding `len` slices.
        // Growth stops, without a bond draw, at the first anti-aligned
        // slice or once the run covers the whole ring; otherwise a failed
        // Bernoulli bond stops it. Forward (k+1 direction) first, then
        // backward.
        let (mut lo, mut hi, mut len) = (start, start, 1);
        while len < p && spins[at(self.up(hi))] == s0 && rng.next_u53() < sweep.bond_below {
            hi = self.up(hi);
            len += 1;
        }
        while len < p && spins[at(self.down(lo))] == s0 && rng.next_u53() < sweep.bond_below {
            lo = self.down(lo);
            len += 1;
        }
        // Classical action change of flipping the whole segment. The
        // cached fields of site i never contain s_i itself (no
        // self-coupling), so the per-slice deltas are independent and can
        // all be read before flipping.
        let mut delta = 0.0;
        let mut k = lo;
        for _ in 0..len {
            delta += -2.0 * s0 as f64 * sweep.k_cl * h_eff[at(k)];
            k = self.up(k);
        }
        if delta <= 0.0 || self.exp1.sample(rng) > delta {
            // Each flip touches only its own slice's fields, so the flip
            // order is free.
            k = lo;
            for _ in 0..len {
                self.flip(spins, h_eff, k * n, i);
                k = self.up(k);
            }
            return true;
        }
        false
    }

    /// One read over the plan, from the programmed state when the schedule
    /// has one; `scratch` is reused across reads.
    fn read(&self, start: Option<&Start>, scratch: &mut Scratch, rng: &mut Rng64) -> Vec<i8> {
        let (n, p) = (self.n, self.p);
        let pn = p * n;
        let Scratch {
            spins,
            h_eff,
            bound,
        } = scratch;
        // Proposals read a cached field in O(1); only accepted flips pay an
        // O(degree) update.
        spins.clear();
        h_eff.clear();
        match start {
            Some(start) => (0..p).for_each(|_| {
                spins.extend_from_slice(&start.state);
                h_eff.extend_from_slice(&start.fields);
            }),
            // Forward start (s = 0): the transverse field dominates and the
            // computational-basis marginal is uniform — random replicas.
            None => {
                spins.extend((0..pn).map(|_| if rng.next_bool() { 1i8 } else { -1 }));
                h_eff.resize(pn, 0.0);
                for (slice, fields) in spins.chunks_exact(n).zip(h_eff.chunks_exact_mut(n)) {
                    self.csr.fill_local_fields(slice, fields);
                }
            }
        }
        match start {
            Some(start) => self.reverse_sweeps(start, spins, h_eff, bound, rng),
            None => {
                for sweep in &self.plan.sweeps {
                    // Moves 0..pn are the (slice, site) Metropolis updates,
                    // moves pn..pn+n the per-site cluster moves; only
                    // passing moves are visited. Slice `k = pos / n` comes
                    // from a multiply-high by a reciprocal fixed per
                    // submission (`SliceIndex`, exact because every position
                    // is below (P+1)·n ≤ 2³²): passing moves land at random
                    // gaps, so a cursor stepping row by row mispredicts its
                    // exit, and a hardware divide costs more than either.
                    sweep.gaps.walk(rng, pn + n, |rng, pos| {
                        if pos < pn {
                            self.site_move(sweep, spins, h_eff, rng, pos);
                        } else {
                            self.cluster_move(sweep, spins, h_eff, rng, pos - pn);
                        }
                    });
                }
            }
        }

        // Majority-vote readout across slices.
        let vote = |i: usize| (0..p).map(|k| spins[k * n + i] as i32).sum::<i32>();
        (0..n).map(|i| if vote(i) >= 0 { 1 } else { -1 }).collect()
    }

    /// The sweeps of a read from a programmed state: thinned while the
    /// bound is fresh, today's walk over every move while it is stale.
    fn reverse_sweeps(
        &self,
        start: &Start,
        spins: &mut [i8],
        h_eff: &mut [f64],
        bound: &mut Bound,
        rng: &mut Rng64,
    ) {
        let (n, pn) = (self.n, self.p * self.n);
        // All slices equal the programmed state: no kinks, and every slice
        // holds the start's lowest X.
        bound.kinks.clear();
        bound.slice_min.clear();
        bound.slice_min.resize(self.p, start.min_x);
        bound.min_x = start.min_x;
        bound.fresh = true;
        bound.carry = None;
        let mut flipped_before = false;
        for (sweep, thin) in self.plan.sweeps.iter().zip(&self.plan.thin) {
            if !bound.fresh && !flipped_before && thin.passes_left >= REBUILD_MIN_PASSES {
                self.rebuild(spins, h_eff, bound);
            }
            let mut flipped = false;
            if bound.fresh {
                flipped = self.thinned_sites(sweep, thin, spins, h_eff, bound, rng);
                sweep.gaps.walk(rng, n, |rng, i| {
                    if self.cluster_move(sweep, spins, h_eff, rng, i) {
                        flipped = true;
                        bound.fresh = false;
                        bound.carry = None;
                    }
                });
            } else {
                sweep.gaps.walk(rng, pn + n, |rng, pos| {
                    flipped |= if pos < pn {
                        self.site_move(sweep, spins, h_eff, rng, pos).is_some()
                    } else {
                        self.cluster_move(sweep, spins, h_eff, rng, pos - pn)
                    };
                });
            }
            flipped_before = flipped;
        }
    }

    /// The site moves of one sweep under a fresh bound, as two merged
    /// walks in position order: the aligned moves at rate `g·2^{−j}`,
    /// accepted on `E > Δ − j·ln 2`, and the kink moves at rate `g` under
    /// today's test. After a flip both walks restart behind it. Returns
    /// whether any move flipped.
    fn thinned_sites(
        &self,
        sweep: &Sweep,
        thin: &ThinSweep,
        spins: &mut [i8],
        h_eff: &mut [f64],
        bound: &mut Bound,
        rng: &mut Rng64,
    ) -> bool {
        let pn = self.p * self.n;
        let rates = &self.plan.rates[thin.rates];
        // The aligned walk's gap: geometric at rate g·2^{−j}, uncapped (a
        // gap past the sweep's end carries over), saturating in the cast.
        let gap = |rng: &mut Rng64, j: usize| (self.exp1.sample(rng) * rates[j]) as usize;
        let mut j = bound.level(sweep);
        let mut aligned_at = match bound.carry.take() {
            Some((skip, level)) if thin.carries && level == j => skip,
            _ => gap(rng, j),
        };
        let mut kink = sweep.gaps.gap(rng, bound.kinks.len());
        let mut flipped = false;
        loop {
            let kink_at = bound.kinks.get(kink).copied().unwrap_or(usize::MAX);
            let pos = aligned_at.min(kink_at);
            if pos >= pn {
                break;
            }
            let flip = if kink_at == pos {
                // A kink move: rate g, today's test. An aligned-walk
                // candidate on the same position is not aligned.
                let slice = self.site_move(sweep, spins, h_eff, rng, pos);
                if slice.is_none() {
                    kink += 1 + sweep.gaps.gap(rng, bound.kinks.len() - kink - 1);
                }
                slice
            } else if !self.aligned(spins, pos) {
                aligned_at = aligned_at.saturating_add(1 + gap(rng, j));
                None
            } else {
                let (k, i, delta) = self.site_delta(sweep, spins, h_eff, pos);
                // Δ ≥ j·ln 2 whenever j ≥ 1 (the bound); at j = 0 this is
                // today's test.
                let excess = delta - offset(j);
                debug_assert!(j == 0 || excess >= 0.0, "Δ {delta} below level {j}");
                if excess <= 0.0 || self.exp1.sample(rng) > excess {
                    self.flip(spins, h_eff, k * self.n, i);
                    Some(k)
                } else {
                    aligned_at = aligned_at.saturating_add(1 + gap(rng, j));
                    None
                }
            };
            if let Some(k) = flip {
                flipped = true;
                self.track_site_flip(spins, h_eff, bound, k, pos - k * self.n);
                j = bound.level(sweep);
                aligned_at = (pos + 1).saturating_add(gap(rng, j));
                kink = bound.kinks.partition_point(|&q| q <= pos);
                kink += sweep.gaps.gap(rng, bound.kinks.len() - kink);
            }
        }
        bound.carry = Some((aligned_at - pn, j));
        flipped
    }

    /// The lowest `X = −2·s·h` over the aligned sites of slice `k`.
    fn slice_min(&self, spins: &[i8], h_eff: &[f64], k: usize) -> f64 {
        let n = self.n;
        let (row, up, down) = (k * n, self.up(k) * n, self.down(k) * n);
        (0..n)
            .filter(|&i| spins[up + i] == spins[row + i] && spins[down + i] == spins[row + i])
            .map(|i| -2.0 * spins[row + i] as f64 * h_eff[row + i])
            .fold(f64::INFINITY, f64::min)
    }

    /// Updates the bound after the site at slice `k`, site `i` flipped:
    /// only that site's membership in slices `k`, `k ± 1`, and slice `k`'s
    /// fields, changed. O(n + P).
    fn track_site_flip(&self, spins: &[i8], h_eff: &[f64], bound: &mut Bound, k: usize, i: usize) {
        for slice in [self.down(k), k, self.up(k)] {
            let pos = slice * self.n + i;
            let kink = !self.aligned(spins, pos);
            match bound.kinks.binary_search(&pos) {
                Ok(at) if !kink => {
                    bound.kinks.remove(at);
                }
                Err(at) if kink => bound.kinks.insert(at, pos),
                _ => {}
            }
            bound.slice_min[slice] = self.slice_min(spins, h_eff, slice);
        }
        bound.min_x = bound
            .slice_min
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
    }

    /// Rebuilds a stale bound from the replicas. O(P·n).
    fn rebuild(&self, spins: &[i8], h_eff: &[f64], bound: &mut Bound) {
        bound.kinks.clear();
        for k in 0..self.p {
            let row = k * self.n;
            bound
                .kinks
                .extend((row..row + self.n).filter(|&pos| !self.aligned(spins, pos)));
            bound.slice_min[k] = self.slice_min(spins, h_eff, k);
        }
        bound.min_x = bound
            .slice_min
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        bound.fresh = true;
        bound.carry = None;
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
        self.plan(profile, schedule, params)
            .run_reads(problem, initial, rngs)
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

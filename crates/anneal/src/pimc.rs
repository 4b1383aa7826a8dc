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
//! cluster moves; a forward read jumps from one passing move to the next
//! (`engine::GateGaps`), and a skipped move draws nothing. Its walk
//! restarts at every sweep boundary, exact by memorylessness. A passing move with
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
//! Spanning walks (reverse anneals). Call the site move at `(i, k)`
//! *aligned* when both time neighbours agree with `s = s_{i,k}`, else a
//! *kink* move, and ring `i` *kink-free* when site `i` agrees in all `P`
//! slices. A reverse read walks four classes of moves: aligned moves at
//! `g·2^{−j}`, kink moves at `g`, kink-free rings' cluster moves at the
//! tilted rate `g·a` below, and kinked rings' cluster moves at `g`, grown
//! and tested as in a forward read. Each class is one Bernoulli process
//! over the whole read, in (sweep, move) order. Its next pass is one
//! Exp(1) draw `E` less each sweep's hazard `(moves left)·λ`, where
//! `λ = −ln(1 − p)` for the sweep's per-move rate `p`, until `E` falls
//! within a sweep, then `⌊E·(1/λ)⌋` moves into it: move `m` passes first
//! with probability `e^{−Σ_{m'<m} λ_{m'}}·(1 − e^{−λ_m})`, so a walk spans
//! sweeps of any rates exactly, by memorylessness. The classes and rates
//! change only with a flip: the four walks merge in order, and all restart
//! behind every flip. The aligned walk runs over every site move and the
//! kink-free walk over every ring, passing over the other class's members
//! they land on. The plan caches every rate per *row*, a run of sweeps
//! with equal constants; a state's levels cost O(rows) lookups and its
//! hazards ahead O(sweeps) additions, with no `exp`. A flip that moves
//! the floors refills the levels only from its own sweep on: the walks
//! restart behind the flip, at its sweep, and a walk from sweep `t`
//! reads the rates of sweeps `t..` and the hazards of sweeps `t+1..`,
//! never a sweep before `t`. Each filled entry is computed as a full fill
//! computes it (the hazards are suffix sums, summed from the last sweep
//! back), so the walks draw the same passes bit for bit. Levels kept
//! from an earlier fill hold for a walk from sweep `t` only when their
//! floors are the same and their fill started at or before `t`.
//!
//! Aligned bound: an aligned move's action is `Δ = k_cl·X + 4·J⊥` with
//! `X = −2·s·h_eff`, so every aligned move has `Δ ≥ d = k_cl·min X +
//! 4·J⊥`, the minimum over aligned sites (`k_cl ≥ 0`). With `j =
//! ⌊d/ln 2⌋` (capped at `J_MAX`), it is accepted with `g·e^{−Δ} =
//! g·2^{−j}·e^{−(Δ − j·ln 2)}`, both factors at most 1: a pass at
//! `g·2^{−j}`, then the test `E > Δ − j·ln 2`.
//!
//! Tilted cluster law: on a kink-free ring only a failed bond (probability
//! `1 − b`, `b = bond_below·2⁻⁵³`) or a full ring stops the growth.
//! Forward growth takes up to `P−1` bonds and backward growth the rest, so
//! the length has the law `Q(L) = L·b^{L−1}·(1−b)²` for `L < P` and
//! `Q(P) = ((P−1)·(1−b) + 1)·b^{P−1}`, and the segment's first slice is
//! uniform and independent of `L`. Every site of a kink-free ring is
//! aligned, so a segment of `L` slices has `Δ ≥ L·c` with `c = k_cl·min X`,
//! and it flips with probability `g·Q(L)/P·e^{−Δ} = g·a ·
//! (Q(L)·e^{−L·c}/a)/P · e^{−(Δ − L·c)}`, `a = Σ_L Q(L)·e^{−L·c}`: a visit
//! at `g·a`, `L` from the tilted law, the first slice uniform, and the
//! test `E > Δ − L·c`. At `c ≤ 0` this is the plain move (`a = 1`). Each
//! row keeps tilt levels of `c`, each `ln 2 / E[L]` (the tilted mean)
//! above the last, so `a` at most halves per level, down to
//! `a ≤ 2^{−J_MAX}`; a read takes the highest level not above its `c`. A
//! site flip lowers the `X` of its neighbours in its slice only, so a
//! second form spares one slice: with `next` the lowest `X` outside the
//! slice holding `min X`, every segment has `Δ ≥ c_low + (L−1)·c_next`,
//! which bounds the offset `(L−1)·c` for `c ≤ c_next + min(c_low, 0)` (and
//! `(L−1)·c ≥ 0`). That form draws the same length law at the rate
//! `g·Σ_L Q(L)·e^{−(L−1)·c}`; each row takes the form with the lower rate.
//!
//! Keeping the bound: the replicas hold each position's `X` when it is
//! aligned, `+∞` when not. A flip folds its neighbours' new `X` into it
//! with their field update; the bound then refreshes ring `i`'s alignment
//! and kinks in the flipped slices and the two beside them, and those
//! slices' minima, in O((L + 2)·n + P). `min X` and `next` are rounded
//! down to multiples of 2⁻²⁰, which keeps them lower bounds and lets
//! states that differ by the rounding of an undone flip share levels.
//!
//! Forward reads start from random replicas with no bound and keep the
//! per-sweep walk's stream. A sweep whose gate is open (`g ≥ 1`, the
//! early sweeps of a forward anneal) lets every move through and its walk
//! draws no gap, so it runs as one dense pass instead: for each slice, its
//! time neighbours' rows found once, each site's `Δ` from the per-sweep
//! products `s·(−2·k_cl)` and `s·(2·J⊥)` (bit for bit the walk's
//! `(−2·s)·k_cl` and `(2·s)·J⊥`, as `s = ±1`), then the `n` cluster moves
//! in site order. That is the walk's move order, with each move's draws in
//! the walk's order, so the readouts and the generator's trailing state
//! are the walk's exactly (a test keeps the walk over every move as the
//! reference). Gated sweeps keep the walk. A forward read holds its
//! generator in a local for the whole read.
//!
//! Rounding of the spanning walks: in floating point an aligned move's
//! `Δ` is `fl(fl(k_cl·X) + 4·J⊥)`. The site move computes it as
//! `(−2·s·k_cl)·h + (2·s·J⊥)·(2·s)`; the doublings and sign changes are
//! exact, so the first product rounds the same real number as `k_cl·X`
//! and the second is `4·J⊥` exactly. Rounding is monotone, so the
//! computed `Δ` is never below `d = fl(fl(k_cl·min X) + 4·J⊥)`, and `j` is
//! lowered until `fl(j·ln 2) ≤ d`: the test's argument `Δ − fl(j·ln 2)`
//! is never negative. It is within `2⁻⁵¹·Δ` of the exact `Δ − j·ln 2`, so
//! the accepted probability `g·e^{−Δ}` moves by at most
//! `g·2⁻⁵¹·Δ·e^{−Δ} ≤ g·2⁻⁵¹/e`. A tilt level's `c` is a multiple of
//! 2⁻²⁰, so `L·c` is exact (for `P < 2²⁶`), and each term of a segment's
//! `Δ` rounds to at least `fl(k_cl·min X) ≥ c`: by induction every partial
//! sum is at least `m·c`, which is representable, so `Δ − L·c` is never
//! negative either. The spared form's bound is not per term: there a
//! computed `Δ` may fall below `(L−1)·c` by a few ulps, the excess is then
//! not positive, and the move is accepted outright, short of its exact
//! probability by a factor within those ulps of 1. The weights `y^L` are
//! repeated products within `L·2⁻⁵³` of `e^{−L·c}`, and `a` sums the same
//! products, so the drawn law is normalized. Each hazard subtracted from
//! `E` rounds its remainder by at most 2⁻⁵³ of it, so a pass that crosses
//! `S` sweeps lands within `S·2⁻⁵³` of its exact tail, besides the
//! `ε + 2⁻⁵¹` of a gap. A move with `g ≥ 1` gets the hazard 1024: it then
//! fails to pass with probability `e^{−1024}`, 0 in double precision.
//!
//! Reads: `PimcEngine::plan` builds the sweep plan, which depends only on
//! the profile, the schedule, the parameters and `P`, so a caller may keep
//! it across submissions ([`crate::QuantumSampler`] does).
//! `PimcPlan::read_into` builds a programmed state's template (its local
//! fields, `X` and levels) once, then runs the reads one after another
//! over one scratch and appends each readout to one flat buffer. The
//! scratch (replicas, bound, template and levels) is the caller's and
//! may come from any earlier submission: a submission starts by marking
//! it unclean and holding no levels, so nothing of the last one is read.
//! Each read consumes only its own generator, so the results equal lone
//! [`AnnealEngine::run`] calls.

use crate::dwave::DWaveProfile;
use crate::engine::{resolve_initial, AnnealEngine, AnnealParams, GateGaps};
use crate::schedule::AnnealSchedule;
use hqw_math::{Exp1, Rng64};
use hqw_qubo::CsrIsing;
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
/// deeper level would save no measurable work. A kink-free ring's cluster
/// tilt stops at the same depth.
const J_MAX: usize = 40;

/// Hazard of a move the gate always lets through (`g ≥ 1`): it then
/// fails to pass with probability `e^{−1024}`, which is 0 in double
/// precision, and every hazard sum stays finite.
const HAZARD_MAX: f64 = 1024.0;

/// The cluster tilt offsets `c` and the walks' floors are multiples of
/// `1/GRID` = 2⁻²⁰: every `L·c` is exact, and rounding a floor down to the
/// grid is exact too.
const GRID: f64 = (1u64 << 20) as f64;

/// Cap on a row's cluster tilt levels.
const TILT_LEVELS_MAX: usize = 4 * J_MAX;

/// A per-move pass probability `p` as a walk uses it: the hazard
/// `λ = −ln(1 − p)` and its reciprocal, so the moves a walk skips before
/// its next pass number `⌊E·(1/λ)⌋` for an Exp(1) draw `E`.
#[derive(Debug, Clone, Copy, Default)]
struct Rate {
    lambda: f64,
    inv: f64,
}

impl Rate {
    fn of(p: f64) -> Self {
        // `−ln1p(−1) = +∞` (and NaN past 1) fall to the cap.
        let lambda = (-(-p).ln_1p()).min(HAZARD_MAX);
        Rate {
            lambda,
            inv: 1.0 / lambda,
        }
    }
}

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
    /// Index of the sweep's entry in [`PimcPlan::rows`] (reverse plans).
    row: usize,
}

/// The spanning walks' constants of one run of sweeps with identical
/// constants (reverse plans).
#[derive(Debug)]
struct Row {
    k_cl: f64,
    j_perp: f64,
    /// The aligned-site walk's rate `g·2^{−j}` at each level
    /// `j = 0..=J_MAX`; level 0 is the gate itself, the kink walks' rate.
    site: [Rate; J_MAX + 1],
    /// The segment law `Q(L)`, `L = 1..=P`, of a cluster move on a
    /// kink-free ring.
    segment: Vec<f64>,
    /// The kink-free ring's cluster tilt levels, ascending in `c`; level 0
    /// (`c = 0`) is the untilted move at the gate's rate.
    tilts: Vec<Tilt>,
    /// Their offsets `c`, for the level search.
    tilt_c: Vec<f64>,
}

/// One cluster tilt level: a kink-free ring's cluster moves are visited
/// at `g·a` and draw their segment length `L` from `Q(L)·y^L / a`, or,
/// when one slice is spared the offset, at `g·a·e^c`.
#[derive(Debug)]
struct Tilt {
    /// The offset per slice; a multiple of 2⁻²⁰.
    c: f64,
    /// `e^{−c}`.
    y: f64,
    /// `a = Σ_L Q(L)·y^L`, each `y^L` by repeated multiplication (as the
    /// visit forms it).
    a: f64,
    /// The walk's rate `g·a`, with the offset `L·c`.
    rate: Rate,
    /// The walk's rate `g·Σ_L Q(L)·y^{L−1}`, with the offset `(L−1)·c`.
    spared: Rate,
}

impl Row {
    fn new(sweep: &Sweep, gate: f64, p: usize) -> Self {
        let site = std::array::from_fn(|j| Rate::of(gate * 0.5f64.powi(j as i32)));
        // Forward growth draws up to P−1 bonds, backward growth the rest:
        // a segment shorter than the ring took L−1 bonds and two misses,
        // with its forward share any of L values.
        let b = Rng64::unit_f64(sweep.bond_below);
        let segment: Vec<f64> = (1..=p)
            .map(|len| {
                let bonds = b.powi(len as i32 - 1);
                if len < p {
                    len as f64 * bonds * (1.0 - b) * (1.0 - b)
                } else {
                    ((p - 1) as f64 * (1.0 - b) + 1.0) * bonds
                }
            })
            .collect();
        let tilts = Self::tilts(&segment, gate, site[0]);
        Row {
            k_cl: sweep.k_cl,
            j_perp: sweep.j_perp,
            site,
            segment,
            tilt_c: tilts.iter().map(|tilt| tilt.c).collect(),
            tilts,
        }
    }

    /// The tilt levels: each step raises `c` by `ln 2 / E[L]`, the mean
    /// length under the current tilt, rounded down to the grid, so `a` at
    /// most halves from one level to the next (`ln a` falls at rate
    /// `E[L]`, which only shrinks as `c` grows); they stop once `a` is
    /// below `2^{−J_MAX}`.
    fn tilts(segment: &[f64], gate: f64, plain: Rate) -> Vec<Tilt> {
        let mut levels = vec![Tilt {
            c: 0.0,
            y: 1.0,
            a: 1.0,
            rate: plain,
            spared: plain,
        }];
        let mut mean: f64 = (1..=segment.len())
            .zip(segment)
            .map(|(len, q)| len as f64 * q)
            .sum();
        while levels.len() < TILT_LEVELS_MAX {
            let last = levels.last().expect("level 0").c;
            let next = ((last + LN_2 / mean) * GRID).floor() / GRID;
            let c = next.max(last + 1.0 / GRID);
            let y = (-c).exp();
            let (mut a, mut spared, mut length, mut y_len) = (0.0, 0.0, 0.0, 1.0);
            for (len, &q) in (1..).zip(segment) {
                spared += q * y_len;
                y_len *= y;
                a += q * y_len;
                length += len as f64 * q * y_len;
            }
            levels.push(Tilt {
                c,
                y,
                a,
                rate: Rate::of(gate * a),
                spared: Rate::of(gate * spared),
            });
            if a <= 0.5f64.powi(J_MAX as i32) {
                break;
            }
            mean = length / a;
        }
        levels
    }

    /// The levels at `floors`: the aligned-site level from the lowest
    /// `X`, and the tilt level and offset form of the kink-free cluster
    /// walk whose rate is lower.
    fn levels(&self, floors: Floors) -> RowLevels {
        // Every slice but one holds X ≥ next, so a segment's action is at
        // least c_low + (L−1)·c_next, which bounds both L·c (c ≤ c_low) and
        // (L−1)·c (c ≤ c_next + min(c_low, 0)).
        let c_low = self.k_cl * floors.low;
        let whole = self.tilt_level(c_low);
        let spare = self.tilt_level(self.k_cl * floors.next + c_low.min(0.0));
        let (tilt, spared, free) =
            if self.tilts[spare].spared.lambda < self.tilts[whole].rate.lambda {
                (spare, 1, self.tilts[spare].spared)
            } else {
                (whole, 0, self.tilts[whole].rate)
            };
        let j = self.level(floors.low);
        RowLevels {
            j,
            aligned: self.site[j],
            tilt,
            spared,
            free,
        }
    }

    /// The thinning level of the aligned-site walk: the largest
    /// `j ≤ J_MAX` whose offset `j·ln 2` (as computed in floating point)
    /// does not exceed `d = k_cl·min X + 4·J⊥`, the least action of any
    /// aligned site move. 0 when the bound gives nothing (or `k_cl < 0`
    /// reverses it).
    fn level(&self, min_x: f64) -> usize {
        let d = self.k_cl * min_x + 4.0 * self.j_perp;
        // NaN: no aligned site at `k_cl = 0` (0·∞).
        if self.k_cl < 0.0 || d.is_nan() || d < LN_2 {
            return 0;
        }
        let mut j = ((d / LN_2) as usize).min(J_MAX);
        while offset(j) > d {
            j -= 1;
        }
        j
    }

    /// The highest tilt level whose offset does not exceed `c`; 0 when
    /// `c` is not positive (or NaN).
    fn tilt_level(&self, c: f64) -> usize {
        if c > 0.0 {
            self.tilt_c.partition_point(|&at| at <= c) - 1
        } else {
            0
        }
    }
}

/// The acceptance offset `j·ln 2` of thinning level `j`.
#[inline]
fn offset(j: usize) -> f64 {
    j as f64 * LN_2
}

/// The sweep plan of one (profile, schedule, parameters, `P`): every
/// open sweep's constants and, for a reverse schedule, the rates and
/// tilts of its spanning walks. It depends on nothing else, so one plan
/// serves every submission with that key ([`crate::QuantumSampler`]
/// caches it).
#[derive(Debug)]
pub(crate) struct PimcPlan {
    slices: usize,
    profile: DWaveProfile,
    schedule: AnnealSchedule,
    params: AnnealParams,
    sweeps: Vec<Sweep>,
    /// One row per run of sweeps with equal constants for a reverse
    /// schedule; empty for a forward one.
    rows: Vec<Row>,
    /// `gate_left[t]`: the gate hazard per move summed over sweeps `t..`
    /// (reverse schedules; one entry more than `sweeps`).
    gate_left: Vec<f64>,
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

    /// Runs one read per generator in `rngs` on `csr` and appends the
    /// readouts to `out`, `n` spins each in `rngs` order: the readouts of
    /// [`AnnealEngine::run_reads`], flat. `start` (the template) and
    /// `reads` hold every buffer the reads use and may come from any
    /// earlier submission.
    ///
    /// A programmed state is built once into a template: the state, its
    /// local fields and their `X = −2·s·h` tiled across the `P` slices,
    /// and the walks' levels there. The reads run one after another over
    /// one scratch, each consuming only its own generator. A reverse read
    /// starts by copying the template's three flat buffers into the
    /// scratch, unless the scratch still equals it: a read whose walks
    /// flip nothing leaves every slice at the programmed state and the
    /// bound at the start's, so the next read skips the copy, and this
    /// read returns the programmed state without the majority vote (all
    /// `P` slices agree on it). Both shortcuts are exact.
    ///
    /// # Panics
    /// As [`AnnealEngine::run`].
    pub(crate) fn read_into(
        &self,
        csr: &CsrIsing,
        initial: Option<&[i8]>,
        rngs: &mut [Rng64],
        start: &mut Start,
        reads: &mut Scratch,
        out: &mut Vec<i8>,
    ) {
        if csr.num_vars() == 0 {
            return;
        }
        // Nothing the last submission left describes this one: the
        // replicas are not the start, and no levels hold.
        (reads.clean, reads.levels.from) = (false, usize::MAX);
        let kernel = self.kernel(csr, initial, start);
        for rng in rngs {
            kernel.read(reads, rng, out);
        }
    }

    /// The kernel of one submission on a non-empty `csr`, with the
    /// programmed start built into `start` when the schedule has one.
    fn kernel<'a>(
        &'a self,
        csr: &'a CsrIsing,
        initial: Option<&[i8]>,
        start: &'a mut Start,
    ) -> Kernel<'a> {
        let n = csr.num_vars();
        let p = self.slices;
        let mut kernel = Kernel {
            plan: self,
            csr,
            n,
            p,
            slice_of: SliceIndex::new(n, p * n + n),
            exp1: Exp1::new(),
            start: None,
        };
        // A programmed state starts every slice of every read: its local
        // fields, the lowest `X = −2·s·h` of its (all aligned) sites and
        // the walks' levels there are computed once, and the slices' start
        // is tiled once into the template.
        if let Some(state) = resolve_initial(&self.schedule, n, initial) {
            start.fields.resize(n, 0.0);
            csr.fill_local_fields(state, &mut start.fields[..n]);
            let xs = state.iter().zip(&start.fields);
            start.xs.clear();
            start.xs.extend(xs.map(|(&s, &h)| -2.0 * s as f64 * h));
            start.min_x = lowest(&start.xs);
            if !self.sweeps.is_empty() {
                let floors = Floors::new(start.min_x, start.min_x);
                start.levels.fill(&kernel, floors, 0);
            }
            start.spins.clear();
            start.spins.extend_from_slice(state);
            for _ in 1..p {
                start.spins.extend_from_within(..n);
                start.fields.extend_from_within(..n);
                start.xs.extend_from_within(..n);
            }
            kernel.start = Some(start);
        }
        kernel
    }
}

/// A programmed start: the template every reverse read starts from (the
/// state, its local fields and their `X = −2·s·h`, every site aligned,
/// each tiled across the `P` slices as [`Replicas`] lays them out), and
/// the lowest `X` and the walks' levels there.
#[derive(Default)]
pub(crate) struct Start {
    spins: Vec<i8>,
    fields: Vec<f64>,
    xs: Vec<f64>,
    min_x: f64,
    levels: Levels,
}

/// Buffers reused across the reads of one submission.
#[derive(Default)]
pub(crate) struct Scratch {
    replicas: Replicas,
    /// The walks' view of the replicas.
    bound: Bound,
    /// The walks' levels at the last floors other than the start's.
    levels: Levels,
    /// Whether `replicas` and `bound` still hold the start: the last
    /// reverse read flipped nothing.
    clean: bool,
}

/// The `P` replicas of one read.
#[derive(Default)]
struct Replicas {
    /// `spins[k*n + i]` = site `i` of slice `k`.
    spins: Vec<i8>,
    /// Their cached local fields `h_i + Σ_j J_ij s_{j,k}`.
    h_eff: Vec<f64>,
    /// Per position, `X = −2·s·h` when the site is aligned, else `+∞`
    /// (reverse reads; empty on forward ones).
    xs: Vec<f64>,
}

/// The walks' view of the replicas: which site moves sit next to a kink,
/// which rings hold one, and the lowest `X = −2·s·h` over the aligned
/// sites, per slice.
#[derive(Default)]
struct Bound {
    /// Ascending positions of the site moves with a time neighbour that
    /// disagrees.
    kinks: Vec<usize>,
    /// Per ring (site), how many of its positions are in `kinks`.
    ring_kinks: Vec<u32>,
    /// Ascending rings with a kink.
    kinked: Vec<usize>,
    /// Per slice, the lowest `xs` (`+∞` if no site is aligned).
    slice_min: Vec<f64>,
    /// The floors of `slice_min`.
    floors: Floors,
}

/// The bound's two numbers: the lowest `X` over the aligned sites, and
/// the lowest over the aligned sites outside the slice that holds it,
/// each rounded down to a multiple of 2⁻²⁰. Rounding down keeps both
/// lower bounds, and lets states that differ only by the rounding of
/// their field updates (a flip and its undo) share their levels.
#[derive(Debug, Clone, Copy, Default)]
struct Floors {
    low: f64,
    next: f64,
}

impl Floors {
    /// The floors `low ≤ next`, rounded down to the grid (exactly:
    /// the scaling is by a power of two).
    fn new(low: f64, next: f64) -> Self {
        let down = |x: f64| (x * GRID).floor() / GRID;
        Floors {
            low: down(low),
            next: down(next),
        }
    }

    /// The floors of per-slice minima.
    fn of(slice_min: &[f64]) -> Self {
        let (at, low) = slice_min
            .iter()
            .enumerate()
            .fold(
                (0, f64::INFINITY),
                |best, (k, &x)| if x < best.1 { (k, x) } else { best },
            );
        let next = slice_min
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != at)
            .fold(f64::INFINITY, |m, (_, &x)| m.min(x));
        Floors::new(low, next)
    }

    /// Whether two floors are the same bit for bit.
    fn same(self, other: Floors) -> bool {
        self.low.to_bits() == other.low.to_bits() && self.next.to_bits() == other.next.to_bits()
    }
}

/// The state-dependent part of the spanning walks for one pair of
/// floors, from one sweep on: each row's aligned-site level and cluster
/// tilt level with their rates, and the hazard the aligned and kink-free
/// walks still have ahead at each sweep.
#[derive(Default)]
struct Levels {
    floors: Floors,
    /// The first sweep filled: the rows and hazards of earlier sweeps are
    /// stale. `usize::MAX` holds no levels.
    from: usize,
    rows: Vec<RowLevels>,
    /// Per sweep `t`, the hazard of sweeps `t..` of the aligned walk
    /// (`P·n` moves a sweep) and of the kink-free cluster walk (`n`).
    aligned_left: Vec<f64>,
    free_left: Vec<f64>,
}

/// One row's levels and rates at a pair of floors.
#[derive(Debug, Clone, Copy, Default)]
struct RowLevels {
    /// The aligned-site level `j` and its rate `g·2^{−j}`.
    j: usize,
    aligned: Rate,
    /// The cluster tilt level, the slices its offset spares (0 or 1) and
    /// its rate.
    tilt: usize,
    spared: usize,
    free: Rate,
}

impl Levels {
    /// The levels at `floors` for sweeps `from..`: O(rows + sweeps) from
    /// there on and no `exp`, the rates being the plan's.
    fn fill(&mut self, kernel: &Kernel, floors: Floors, from: usize) {
        let plan = kernel.plan;
        let sweeps = plan.sweeps.len();
        (self.floors, self.from) = (floors, from);
        let first = plan.sweeps[from].row;
        self.rows.resize(first, RowLevels::default());
        self.rows
            .extend(plan.rows[first..].iter().map(|row| row.levels(floors)));
        self.aligned_left.resize(sweeps + 1, 0.0);
        self.free_left.resize(sweeps + 1, 0.0);
        self.aligned_left[sweeps] = 0.0;
        self.free_left[sweeps] = 0.0;
        let (site_moves, rings) = ((kernel.p * kernel.n) as f64, kernel.n as f64);
        for t in (from..sweeps).rev() {
            let at = self.rows[plan.sweeps[t].row];
            self.aligned_left[t] = self.aligned_left[t + 1] + site_moves * at.aligned.lambda;
            self.free_left[t] = self.free_left[t + 1] + rings * at.free.lambda;
        }
    }

    /// Whether these are the levels at `floors` for sweeps `from..`.
    fn hold(&self, floors: Floors, from: usize) -> bool {
        self.floors.same(floors) && self.from <= from && !self.rows.is_empty()
    }
}

/// No further visit: past every sweep.
const END: u64 = u64::MAX;

/// A walk position: sweep `t` above bit 33, move `pos` below it, so
/// positions order as integers. `pos` runs to `(P+1)·n ≤ 2³²`, one past a
/// sweep's last move, which the walks read as nothing left in that sweep.
#[inline]
fn pack(t: usize, pos: usize) -> u64 {
    (t as u64) << 33 | pos as u64
}

/// Sweep and move of a packed position.
#[inline]
fn unpack(at: u64) -> (usize, usize) {
    ((at >> 33) as usize, (at & ((1 << 33) - 1)) as usize)
}

/// A flip the walks restart behind: its position, and the segment of
/// ring `i` it flipped, `len` slices from slice `lo` upward.
struct Flip {
    at: u64,
    i: usize,
    lo: usize,
    len: usize,
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
    /// spanning walks' rows when `schedule` starts from a programmed state.
    pub(crate) fn plan(
        &self,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
    ) -> PimcPlan {
        let beta = params.beta(profile);
        let p = self.trotter_slices;
        let (mut sweeps, gates): (Vec<Sweep>, Vec<f64>) = params
            .open_sweeps(profile, schedule)
            .map(|(_, s, gate)| {
                let j_perp = self.j_perp(profile, beta, s);
                let sweep = Sweep {
                    j_perp,
                    k_cl: beta * profile.b_ghz(s) / (2.0 * p as f64),
                    bond_below: Rng64::unit_threshold(1.0 - (-2.0 * j_perp).exp()),
                    gaps: GateGaps::new(gate),
                    row: 0,
                };
                (sweep, gate)
            })
            .unzip();
        let (mut rows, mut gate_left) = (Vec::new(), Vec::new());
        if schedule.requires_initial_state() {
            for at in 0..sweeps.len() {
                let repeats = at > 0 && {
                    let (prev, sweep) = (&sweeps[at - 1], &sweeps[at]);
                    prev.j_perp.to_bits() == sweep.j_perp.to_bits()
                        && prev.k_cl.to_bits() == sweep.k_cl.to_bits()
                        && gates[at - 1].to_bits() == gates[at].to_bits()
                };
                if !repeats {
                    rows.push(Row::new(&sweeps[at], gates[at], p));
                }
                sweeps[at].row = rows.len() - 1;
            }
            gate_left = vec![0.0; sweeps.len() + 1];
            for t in (0..sweeps.len()).rev() {
                gate_left[t] = gate_left[t + 1] + rows[sweeps[t].row].site[0].lambda;
            }
        }
        PimcPlan {
            slices: p,
            profile: profile.clone(),
            schedule: schedule.clone(),
            params: *params,
            sweeps,
            rows,
            gate_left,
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
    /// The programmed start of a reverse schedule.
    start: Option<&'a Start>,
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

    /// Flips site `i` of slice `k` and folds its sign change into the
    /// cached fields of its in-slice neighbors and, on a reverse read,
    /// into their `xs` (their alignment does not change).
    #[inline]
    fn flip(&self, r: &mut Replicas, k: usize, i: usize) {
        let row = k * self.n;
        let s_new = -r.spins[row + i];
        r.spins[row + i] = s_new;
        let ds = 2.0 * s_new as f64;
        if r.xs.is_empty() {
            self.csr.axpy_row(&mut r.h_eff[row..row + self.n], i, ds);
            return;
        }
        let (up, down) = (self.up(k) * self.n, self.down(k) * self.n);
        let (cols, weights) = self.csr.row(i);
        for (&j, &w) in cols.iter().zip(weights) {
            let at = row + j as usize;
            r.h_eff[at] += w * ds;
            let s = r.spins[at];
            let aligned = r.spins[up + j as usize] == s && r.spins[down + j as usize] == s;
            r.xs[at] = if aligned {
                -2.0 * s as f64 * r.h_eff[at]
            } else {
                f64::INFINITY
            };
        }
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
    fn site_delta(&self, sweep: &Sweep, r: &Replicas, pos: usize) -> (usize, usize, f64) {
        let (n, spins) = (self.n, &r.spins);
        let k = self.slice_of.of(pos);
        let row = k * n;
        let i = pos - row;
        let sik = spins[pos] as f64;
        let field = r.h_eff[pos];
        let time_neighbors = (spins[self.up(k) * n + i] + spins[self.down(k) * n + i]) as f64;
        let delta = -2.0 * sik * sweep.k_cl * field + 2.0 * sik * sweep.j_perp * time_neighbors;
        (k, i, delta)
    }

    /// The Metropolis single-site move at `pos < P·n`, accepted when
    /// `Δ − offset ≤ 0` or a fresh Exp(1) draw exceeds it; returns its
    /// site and slice when it flipped.
    #[inline(always)]
    fn site_move(
        &self,
        sweep: &Sweep,
        r: &mut Replicas,
        rng: &mut Rng64,
        pos: usize,
        offset: f64,
    ) -> Option<(usize, usize)> {
        let (k, i, delta) = self.site_delta(sweep, r, pos);
        let excess = delta - offset;
        if excess <= 0.0 || self.exp1.sample(rng) > excess {
            self.flip(r, k, i);
            return Some((i, k));
        }
        None
    }

    /// Flips the `len` slices of ring `i` from slice `lo` upward when their
    /// classical action change `Δ`, less `offset`, is not positive or a
    /// fresh Exp(1) draw exceeds it. The cached fields of site `i` never
    /// contain `s_i` itself (no self-coupling), so the per-slice deltas are
    /// independent and are all read before flipping, and each flip touches
    /// only its own slice's fields, so the flip order is free.
    #[inline(always)]
    fn segment_move(
        &self,
        sweep: &Sweep,
        r: &mut Replicas,
        rng: &mut Rng64,
        (i, lo, len): (usize, usize, usize),
        offset: f64,
    ) -> bool {
        let n = self.n;
        let s0 = r.spins[lo * n + i];
        let mut delta = 0.0;
        let mut k = lo;
        for _ in 0..len {
            delta += -2.0 * s0 as f64 * sweep.k_cl * r.h_eff[k * n + i];
            k = self.up(k);
        }
        let excess = delta - offset;
        if excess <= 0.0 || self.exp1.sample(rng) > excess {
            k = lo;
            for _ in 0..len {
                self.flip(r, k, i);
                k = self.up(k);
            }
            return true;
        }
        false
    }

    /// The imaginary-time cluster move at site `i`: grow a Wolff segment
    /// along the Trotter ring with bond probability `1 − e^{−2·J⊥}` over
    /// aligned time-neighbors, then flip it, accepting on the classical
    /// (field) part alone. Stochastic bond growth makes the proposal
    /// symmetric; at large `J⊥` the segment usually wraps the whole ring
    /// and the move degenerates into a classical Metropolis flip at the full
    /// device β — thermal activation. Returns the segment's first slice
    /// and length when it flipped.
    #[inline(always)]
    fn cluster_move(
        &self,
        sweep: &Sweep,
        r: &mut Replicas,
        rng: &mut Rng64,
        i: usize,
    ) -> Option<(usize, usize)> {
        let (n, p, spins) = (self.n, self.p, &r.spins);
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
        self.segment_move(sweep, r, rng, (i, lo, len), 0.0)
            .then_some((lo, len))
    }

    /// The cluster move on the kink-free ring `i` at a tilt level, its
    /// offset sparing `spared` slices: the segment length from
    /// `Q(L)·y^L / a`, its first slice uniform, then the test on
    /// `Δ − (L − spared)·c`. Returns the segment when it flipped.
    fn tilted_cluster_move(
        &self,
        sweep: &Sweep,
        row: &Row,
        (tilt, spared): (&Tilt, usize),
        r: &mut Replicas,
        rng: &mut Rng64,
        i: usize,
    ) -> Option<(usize, usize)> {
        // The weights are the plan's products, formed in the same order; a
        // draw left over by rounding takes the longest positive weight.
        let mut u = rng.next_f64() * tilt.a;
        let (mut len, mut y_len) = (0, 1.0);
        for (l, &q) in (1..).zip(&row.segment) {
            y_len *= tilt.y;
            let weight = q * y_len;
            if weight > 0.0 {
                len = l;
                if u < weight {
                    break;
                }
                u -= weight;
            }
        }
        debug_assert!(len > 0, "a visited tilt level has weight");
        let lo = rng.next_index(self.p);
        let offset = (len - spared) as f64 * tilt.c;
        self.segment_move(sweep, r, rng, (i, lo, len), offset)
            .then_some((lo, len))
    }

    /// One read over the plan, from the programmed state when the schedule
    /// has one, its readout appended to `out`; `scratch` is reused across
    /// reads.
    fn read(&self, scratch: &mut Scratch, rng: &mut Rng64, out: &mut Vec<i8>) {
        let Scratch {
            replicas: r,
            bound,
            levels,
            clean,
        } = scratch;
        // Proposals read a cached field in O(1); only accepted flips pay an
        // O(degree) update.
        match self.start {
            Some(start) => {
                if !*clean {
                    self.restart(start, r, bound);
                }
                *clean = !self.reverse_read(start, r, bound, levels, rng);
                if *clean {
                    // Every slice still holds the programmed state.
                    out.extend_from_slice(&start.spins[..self.n]);
                    return;
                }
            }
            None => self.forward_read(r, rng),
        }
        self.vote(r, out);
    }

    /// Majority-vote readout across slices, appended to `out`.
    fn vote(&self, r: &Replicas, out: &mut Vec<i8>) {
        let (n, p) = (self.n, self.p);
        let vote = |i: usize| (0..p).map(|k| r.spins[k * n + i] as i32).sum::<i32>();
        out.extend((0..n).map(|i| if vote(i) >= 0 { 1i8 } else { -1 }));
    }

    /// Random replicas with their local fields: the forward start (s = 0),
    /// where the transverse field dominates and the computational-basis
    /// marginal is uniform.
    #[inline(always)]
    fn random_replicas(&self, r: &mut Replicas, rng: &mut Rng64) {
        let (n, pn) = (self.n, self.p * self.n);
        r.spins.clear();
        r.h_eff.clear();
        r.xs.clear();
        r.spins
            .extend((0..pn).map(|_| if rng.next_bool() { 1i8 } else { -1 }));
        r.h_eff.resize(pn, 0.0);
        for (slice, fields) in r.spins.chunks_exact(n).zip(r.h_eff.chunks_exact_mut(n)) {
            self.csr.fill_local_fields(slice, fields);
        }
    }

    /// A forward read from random replicas: a sweep whose gate is open
    /// runs as one dense pass, a gated one walks its passing moves. The
    /// read's generator lives in a local for the whole read: the hot loops
    /// then keep its state in registers instead of loading and storing it
    /// through `rng` on every draw.
    #[inline(never)]
    fn forward_read(&self, r: &mut Replicas, rng: &mut Rng64) {
        let mut local = rng.clone();
        self.random_replicas(r, &mut local);
        for sweep in &self.plan.sweeps {
            match sweep.gaps {
                GateGaps::Every => self.dense_sweep(sweep, r, &mut local),
                GateGaps::Exp { .. } => self.walk_sweep(sweep, r, &mut local),
            }
        }
        *rng = local;
    }

    /// The gate's walk over one sweep. Moves 0..pn are the (slice, site)
    /// Metropolis updates, moves pn..pn+n the per-site cluster moves; only
    /// passing moves are visited. Slice `k = pos / n` comes from a
    /// multiply-high by a reciprocal fixed per submission (`SliceIndex`,
    /// exact because every position is below (P+1)·n ≤ 2³²): passing moves
    /// land at random gaps, so a cursor stepping row by row mispredicts its
    /// exit, and a hardware divide costs more than either.
    #[inline(always)]
    fn walk_sweep(&self, sweep: &Sweep, r: &mut Replicas, rng: &mut Rng64) {
        let pn = self.p * self.n;
        sweep.gaps.walk(rng, pn + self.n, |rng, pos| {
            if pos < pn {
                self.site_move(sweep, r, rng, pos, 0.0);
            } else {
                self.cluster_move(sweep, r, rng, pos - pn);
            }
        });
    }

    /// A sweep whose gate is open: every move passes and the walk draws
    /// no gap, so its moves run in move order, slice by slice and site by
    /// site, then the `n` cluster moves in site order. Each slice's time
    /// neighbours are found once, and `Δ` takes the per-sweep products
    /// `s·(−2·k_cl)` and `s·(2·J⊥)`, which equal the site move's
    /// `(−2·s)·k_cl` and `(2·s)·J⊥` bit for bit (`s = ±1`, and doubling
    /// and negating are exact). The draws are the walk's, one by one.
    #[inline(always)]
    fn dense_sweep(&self, sweep: &Sweep, r: &mut Replicas, rng: &mut Rng64) {
        let n = self.n;
        let (field_scale, link_scale) = (-2.0 * sweep.k_cl, 2.0 * sweep.j_perp);
        for k in 0..self.p {
            let (row, up, down) = (k * n, self.up(k) * n, self.down(k) * n);
            for i in 0..n {
                let s = r.spins[row + i];
                let sik = s as f64;
                let time_neighbors = (r.spins[up + i] + r.spins[down + i]) as f64;
                let delta =
                    sik * field_scale * r.h_eff[row + i] + sik * link_scale * time_neighbors;
                if delta <= 0.0 || self.exp1.sample(rng) > delta {
                    r.spins[row + i] = -s;
                    self.csr.axpy_row(&mut r.h_eff[row..row + n], i, -2.0 * sik);
                }
            }
        }
        for i in 0..n {
            self.cluster_move(sweep, r, rng, i);
        }
        debug_assert!(self.fields_hold(r), "a dense pass broke the field cache");
    }

    /// Whether every spin is ±1 and every cached field is within
    /// `1e-9·(1 + |h|)` of a fresh `fill_local_fields` (checked builds).
    fn fields_hold(&self, r: &Replicas) -> bool {
        r.spins.iter().all(|&s| s == 1 || s == -1)
            && r.h_eff.iter().enumerate().all(|(pos, &cached)| {
                let (s, i) = (&r.spins[pos - pos % self.n..][..self.n], pos % self.n);
                let (cols, weights) = self.csr.row(i);
                let terms = cols.iter().zip(weights);
                let h = terms.fold(self.csr.h(i), |f, (&j, &w)| f + w * s[j as usize] as f64);
                (cached - h).abs() <= 1e-9 * (1.0 + h.abs())
            })
    }

    /// Puts every slice at the programmed state: the replicas from the
    /// template, and the bound of that state, no kinks and every slice
    /// holding the start's lowest `X`.
    fn restart(&self, start: &Start, r: &mut Replicas, bound: &mut Bound) {
        r.spins.clone_from(&start.spins);
        r.h_eff.clone_from(&start.fields);
        r.xs.clone_from(&start.xs);
        bound.kinks.clear();
        bound.ring_kinks.clear();
        bound.ring_kinks.resize(self.n, 0);
        bound.kinked.clear();
        bound.slice_min.clear();
        bound.slice_min.resize(self.p, start.min_x);
        bound.floors = start.levels.floors;
    }

    /// A read from a programmed state, the replicas and the bound at it:
    /// the four walks run from the start to the first flip, the bound
    /// follows the flip, and the walks restart behind it, until no walk
    /// passes another move. Returns whether any move flipped.
    fn reverse_read(
        &self,
        start: &Start,
        r: &mut Replicas,
        bound: &mut Bound,
        levels: &mut Levels,
        rng: &mut Rng64,
    ) -> bool {
        if self.plan.sweeps.is_empty() {
            return false;
        }
        let floors = start.levels.floors;
        // Whether the levels in use are `levels` rather than the start's.
        let mut own = false;
        let mut from = 0;
        loop {
            let current = if own { &*levels } else { &start.levels };
            let Some(flip) = self.walk(current, r, bound, rng, from) else {
                // `from` moved past the first flip, if there was one.
                return from > 0;
            };
            // The walks go on from the flip's sweep and read no level
            // behind it.
            let (t, _) = unpack(flip.at);
            from = flip.at + 1;
            self.track(r, bound, flip);
            own = !bound.floors.same(floors);
            if own && !levels.hold(bound.floors, t) {
                levels.fill(self, bound.floors, t);
            }
        }
    }

    /// Runs the four walks from `from` until a move flips, and returns
    /// that flip; `None` when no walk passes another move.
    fn walk(
        &self,
        levels: &Levels,
        r: &mut Replicas,
        bound: &Bound,
        rng: &mut Rng64,
        from: u64,
    ) -> Option<Flip> {
        let pn = self.p * self.n;
        let mut aligned = self.aligned_walk(levels, rng, from);
        let mut kink = self.kink_walk(bound, rng, from);
        let mut free = self.free_walk(levels, rng, from);
        let mut kinked = self.kinked_walk(bound, rng, from);
        loop {
            let at = aligned.min(kink).min(free).min(kinked);
            if at == END {
                return None;
            }
            let (t, pos) = unpack(at);
            let sweep = &self.plan.sweeps[t];
            let row = &self.plan.rows[sweep.row];
            let RowLevels {
                j, tilt, spared, ..
            } = levels.rows[sweep.row];
            // A kink walk's move comes first on a shared position: there
            // the aligned walk's candidate is not aligned, or the kink-free
            // walk's ring not kink-free, and is passed over next.
            if at == kink {
                if let Some((i, lo)) = self.site_move(sweep, r, rng, pos, 0.0) {
                    return Some(Flip { at, i, lo, len: 1 });
                }
                kink = self.kink_walk(bound, rng, at + 1);
            } else if at == aligned {
                // Δ ≥ j·ln 2 at an aligned site (the bound), so the test on
                // the excess completes the rate g·2^{−j} to g·e^{−Δ}.
                if r.xs[pos] < f64::INFINITY {
                    debug_assert!(
                        j == 0 || self.site_delta(sweep, r, pos).2 >= offset(j),
                        "Δ below level {j}"
                    );
                    if let Some((i, lo)) = self.site_move(sweep, r, rng, pos, offset(j)) {
                        return Some(Flip { at, i, lo, len: 1 });
                    }
                }
                aligned = self.aligned_walk(levels, rng, at + 1);
            } else if at == kinked {
                let i = pos - pn;
                if let Some((lo, len)) = self.cluster_move(sweep, r, rng, i) {
                    return Some(Flip { at, i, lo, len });
                }
                kinked = self.kinked_walk(bound, rng, at + 1);
            } else {
                let i = pos - pn;
                if bound.ring_kinks[i] == 0 {
                    let tilt = &row.tilts[tilt];

                    if let Some((lo, len)) =
                        self.tilted_cluster_move(sweep, row, (tilt, spared), r, rng, i)
                    {
                        return Some(Flip { at, i, lo, len });
                    }
                }
                free = self.free_walk(levels, rng, at + 1);
            }
        }
    }

    /// The next pass of a walk over `count` moves a sweep, the first
    /// `skip` of sweep `t` behind it: one Exp(1) draw `E` less each
    /// sweep's hazard `(moves left)·λ` until it falls within one, then
    /// `⌊E·(1/λ)⌋` moves into it. `rate(t)` is sweep `t`'s per-move rate,
    /// `after` the hazard of sweeps `t+1..` (for an early end), and
    /// `place(t, k)` packs the `k`-th move of sweep `t`.
    #[inline]
    fn span(
        &self,
        rng: &mut Rng64,
        (t, skip): (usize, usize),
        count: usize,
        rate: impl Fn(usize) -> Rate,
        after: impl Fn(usize) -> f64,
        place: impl Fn(usize, usize) -> u64,
    ) -> u64 {
        let sweeps = self.plan.sweeps.len();
        if count == 0 || t >= sweeps {
            return END;
        }
        let mut e = self.exp1.sample(rng);
        let Rate { lambda, inv } = rate(t);
        let here = (count - skip) as f64 * lambda;
        if e >= here + after(t + 1) {
            return END;
        }
        if e < here {
            return place(t, skip + ((e * inv) as usize).min(count - skip - 1));
        }
        e -= here;
        for t in t + 1..sweeps {
            let Rate { lambda, inv } = rate(t);
            let whole = count as f64 * lambda;
            if e < whole {
                return place(t, ((e * inv) as usize).min(count - 1));
            }
            e -= whole;
        }
        END
    }

    /// The aligned-site walk from `from`: every site move at `g·2^{−j}`.
    fn aligned_walk(&self, levels: &Levels, rng: &mut Rng64, from: u64) -> u64 {
        let (t, pos) = unpack(from);
        let pn = self.p * self.n;
        let plan = self.plan;
        self.span(
            rng,
            (t, pos.min(pn)),
            pn,
            |t| levels.rows[plan.sweeps[t].row].aligned,
            |t| levels.aligned_left[t],
            pack,
        )
    }

    /// The kink walk from `from`: the site moves next to a kink at `g`.
    fn kink_walk(&self, bound: &Bound, rng: &mut Rng64, from: u64) -> u64 {
        let (t, pos) = unpack(from);
        let kinks = &bound.kinks;
        let plan = self.plan;
        self.span(
            rng,
            (t, kinks.partition_point(|&q| q < pos)),
            kinks.len(),
            |t| plan.rows[plan.sweeps[t].row].site[0],
            |t| kinks.len() as f64 * plan.gate_left[t],
            |t, k| pack(t, kinks[k]),
        )
    }

    /// The kink-free cluster walk from `from`: every ring's cluster move
    /// at its tilt rate `g·a`.
    fn free_walk(&self, levels: &Levels, rng: &mut Rng64, from: u64) -> u64 {
        let (t, pos) = unpack(from);
        let pn = self.p * self.n;
        let plan = self.plan;
        self.span(
            rng,
            (t, pos.saturating_sub(pn)),
            self.n,
            |t| levels.rows[plan.sweeps[t].row].free,
            |t| levels.free_left[t],
            |t, k| pack(t, pn + k),
        )
    }

    /// The kinked-ring cluster walk from `from`: the cluster moves of the
    /// rings holding a kink at `g`.
    fn kinked_walk(&self, bound: &Bound, rng: &mut Rng64, from: u64) -> u64 {
        let (t, pos) = unpack(from);
        let pn = self.p * self.n;
        let kinked = &bound.kinked;
        let plan = self.plan;
        self.span(
            rng,
            (t, kinked.partition_point(|&i| pn + i < pos)),
            kinked.len(),
            |t| plan.rows[plan.sweeps[t].row].site[0],
            |t| kinked.len() as f64 * plan.gate_left[t],
            |t, k| pack(t, pn + kinked[k]),
        )
    }

    /// Updates the bound after `flip`, whose slices' flips already
    /// updated the `xs` of site `i`'s neighbours: ring `i`'s alignment
    /// changed in the flipped slices and the two beside them, so only its
    /// `xs` and kinks there, and those slices' minima (a plain scan of
    /// `xs`), do. O((len + 2)·n + P).
    fn track(&self, r: &mut Replicas, bound: &mut Bound, flip: Flip) {
        let (n, p) = (self.n, self.p);
        let Flip { i, lo, len, .. } = flip;
        let (first, slices) = if len + 2 >= p {
            (0, p)
        } else {
            (self.down(lo), len + 2)
        };
        let mut k = first;
        for _ in 0..slices {
            let pos = k * n + i;
            let aligned = self.aligned(&r.spins, pos);
            r.xs[pos] = if aligned {
                -2.0 * r.spins[pos] as f64 * r.h_eff[pos]
            } else {
                f64::INFINITY
            };
            match bound.kinks.binary_search(&pos) {
                Ok(at) if aligned => {
                    bound.kinks.remove(at);
                    bound.ring_kinks[i] -= 1;
                }
                Err(at) if !aligned => {
                    bound.kinks.insert(at, pos);
                    bound.ring_kinks[i] += 1;
                }
                _ => {}
            }
            bound.slice_min[k] = lowest(&r.xs[k * n..][..n]);
            k = self.up(k);
        }
        match (bound.kinked.binary_search(&i), bound.ring_kinks[i] > 0) {
            (Ok(at), false) => {
                bound.kinked.remove(at);
            }
            (Err(at), true) => bound.kinked.insert(at, i),
            _ => {}
        }
        bound.floors = Floors::of(&bound.slice_min);
    }
}

/// The lowest of `xs` (`+∞` if empty), as four interleaved minima so the
/// scan does not serialize on one compare chain.
fn lowest(xs: &[f64]) -> f64 {
    let mut min = [f64::INFINITY; 4];
    let mut chunks = xs.chunks_exact(4);
    for chunk in &mut chunks {
        for (min, &x) in min.iter_mut().zip(chunk) {
            if x < *min {
                *min = x;
            }
        }
    }
    chunks
        .remainder()
        .iter()
        .fold(min[0].min(min[1]).min(min[2].min(min[3])), |a, &x| a.min(x))
}

impl AnnealEngine for PimcEngine {
    fn name(&self) -> &'static str {
        "PIMC"
    }

    fn run(
        &self,
        problem: &CsrIsing,
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
        problem: &CsrIsing,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
        initial: Option<&[i8]>,
        rngs: &mut [Rng64],
    ) -> Vec<Vec<i8>> {
        let (n, mut out) = (problem.num_vars(), vec![]);
        let (start, reads) = (&mut Start::default(), &mut Scratch::default());
        self.plan(profile, schedule, params)
            .read_into(problem, initial, rngs, start, reads, &mut out);
        let read = |r: usize| out[r * n..][..n].to_vec();
        (0..rngs.len()).map(read).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreezeOut;
    use hqw_oracle::csr::from_ising;
    use hqw_oracle::Ising;
    use hqw_qubo::solution::bits_to_spins;

    fn ferromagnet(n: usize) -> CsrIsing {
        // All-ferromagnetic chain with a field pinning the ground state to
        // all-up: E(all +1) is the unique minimum.
        let mut ising = Ising::new(n);
        for i in 0..n {
            ising.set_h(i, -0.4);
            if i + 1 < n {
                ising.set_coupling(i, i + 1, -1.0);
            }
        }
        from_ising(&ising)
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
        let ising = from_ising(&Ising::new(0));
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

    /// A row at bond probability `b` and gate `g` over `p` slices.
    fn row(b: f64, g: f64, p: usize) -> Row {
        let sweep = Sweep {
            j_perp: 1.0,
            k_cl: 2.0,
            bond_below: Rng64::unit_threshold(b),
            gaps: GateGaps::new(g),
            row: 0,
        };
        Row::new(&sweep, g, p)
    }

    #[test]
    fn segment_law_matches_the_growth_on_a_kink_free_ring() {
        // The cluster move's growth with every slice aligned: forward bonds
        // up to a full ring, then backward ones.
        const GROWTHS: usize = 40_000;
        let mut rng = Rng64::new(0x5E6);
        for p in [2, 3, 8] {
            for b in [0.3, 0.85, 0.99] {
                let row = row(b, 0.05, p);
                let bond_below = Rng64::unit_threshold(b);
                let mut counts = vec![0u64; p];
                for _ in 0..GROWTHS {
                    let mut len = 1;
                    while len < p && rng.next_u53() < bond_below {
                        len += 1;
                    }
                    while len < p && rng.next_u53() < bond_below {
                        len += 1;
                    }
                    counts[len - 1] += 1;
                }
                let total: f64 = row.segment.iter().sum();
                assert!(
                    (total - 1.0).abs() < 1e-12,
                    "P {p}, b {b}: Q sums to {total}"
                );
                // χ² over the lengths with an expected count of at least 5.
                let (chi2, dof) =
                    counts
                        .iter()
                        .zip(&row.segment)
                        .fold((0.0, 0usize), |(chi2, dof), (&o, &q)| {
                            let e = q * GROWTHS as f64;
                            if e < 5.0 {
                                (chi2, dof)
                            } else {
                                (chi2 + (o as f64 - e).powi(2) / e, dof + 1)
                            }
                        });
                // The χ² quantile at 1 − 10⁻³ for at most 7 dof is below 25.
                assert!(chi2 < 25.0, "P {p}, b {b}: χ² {chi2:.1} on {dof} bins");
            }
        }
    }

    #[test]
    fn tilt_levels_at_most_halve_the_rate_and_reach_the_floor() {
        for (b, p) in [(0.85, 8), (0.998, 8), (0.3, 16), (0.95, 2)] {
            let row = row(b, 0.05, p);
            let tilts = &row.tilts;
            assert_eq!((tilts[0].c, tilts[0].a), (0.0, 1.0));
            for pair in tilts.windows(2) {
                let (last, next) = (&pair[0], &pair[1]);
                assert!(next.c > last.c, "offsets ascend");
                assert_eq!(next.c * GRID, (next.c * GRID).floor(), "on the grid");
                // Rounding aside, a level keeps at least half the mass.
                assert!(
                    next.a >= 0.5 * last.a * (1.0 - 1e-12),
                    "a {} -> {}",
                    last.a,
                    next.a
                );
                assert!(
                    next.spared.lambda >= next.rate.lambda,
                    "sparing a slice adds mass"
                );
            }
            let last = tilts.last().expect("level 0");
            assert!(
                last.a <= 0.5f64.powi(J_MAX as i32) || tilts.len() == TILT_LEVELS_MAX,
                "b {b}, P {p}: stops at a = {}",
                last.a
            );
            assert_eq!(row.tilt_level(-1.0), 0);
            assert_eq!(row.tilt_level(f64::NAN), 0);
            assert_eq!(row.tilt_level(f64::INFINITY), tilts.len() - 1);
            for (m, tilt) in tilts.iter().enumerate().skip(1) {
                assert_eq!(row.tilt_level(tilt.c), m);
            }
        }
    }

    impl Kernel<'_> {
        /// The forward read before the dense pass: random replicas, then
        /// the gate's walk over every sweep, open or not, on the caller's
        /// generator.
        fn walk_read(&self, r: &mut Replicas, rng: &mut Rng64) -> Vec<i8> {
            self.random_replicas(r, rng);
            for sweep in &self.plan.sweeps {
                self.walk_sweep(sweep, r, rng);
            }
            let mut out = Vec::new();
            self.vote(r, &mut out);
            out
        }
    }

    #[test]
    fn dense_pass_reads_equal_the_walk_bit_for_bit() {
        use crate::embedding::{ChainStrength, CliqueEmbedding};
        use crate::topology::Chimera;
        use hqw_oracle::generator::random_qubo;

        let mut rng = Rng64::new(0xDE5E);
        // Dense logical problems, and the mock QPU's: an 8-variable clique
        // through the C₂ embedding onto 32 qubits.
        let mut problems: Vec<CsrIsing> = [1, 2, 5, 32]
            .iter()
            .map(|&n| CsrIsing::from_qubo(&random_qubo(n, &mut rng)).0)
            .collect();
        let logical = CsrIsing::from_qubo(&random_qubo(8, &mut rng)).0;
        let mut physical = CsrIsing::default();
        CliqueEmbedding::new(Chimera::new(2), 8).embed(
            &logical,
            ChainStrength::RelativeToMax(2.0),
            &mut physical,
        );
        problems.push(physical);
        let profile = DWaveProfile::calibrated();
        let open = AnnealParams {
            sweeps_per_us: 8,
            beta_override: None,
            freeze_out: None,
        };
        let gated = AnnealParams {
            freeze_out: Some(FreezeOut::default()),
            ..open
        };
        let schedules = [
            (open, AnnealSchedule::forward(2.0).unwrap()),
            (gated, AnnealSchedule::forward(2.0).unwrap()),
            (
                AnnealParams::default(),
                AnnealSchedule::forward(1.0).unwrap(),
            ),
        ];
        for (s, (params, schedule)) in schedules.iter().enumerate() {
            for p in [2, 3, 8] {
                let plan = PimcEngine::new(p).plan(&profile, schedule, params);
                let dense = plan
                    .sweeps
                    .iter()
                    .filter(|sweep| matches!(sweep.gaps, GateGaps::Every))
                    .count();
                // The first schedule opens every gate, the others only some.
                assert!(dense > 0, "schedule {s}: no open gate");
                assert_eq!(dense == plan.sweeps.len(), s == 0, "schedule {s}");
                for problem in &problems {
                    let mut csr = problem.clone();
                    csr.normalize();
                    let n = csr.num_vars();
                    let mut start = Start::default();
                    let kernel = plan.kernel(&csr, None, &mut start);
                    let (mut scratch, mut replicas) = (Scratch::default(), Replicas::default());
                    for seed in 0..6 {
                        let (mut a, mut b) = (Rng64::new(seed), Rng64::new(seed));
                        let mut read = Vec::new();
                        kernel.read(&mut scratch, &mut a, &mut read);
                        let walked = kernel.walk_read(&mut replicas, &mut b);
                        let at = format!("schedule {s}, P {p}, n {n}, seed {seed}");
                        assert_eq!(read, walked, "{at}: readouts differ");
                        assert_eq!(scratch.replicas.spins, replicas.spins, "{at}");
                        let bits = |r: &Replicas| r.h_eff.iter().map(|h| h.to_bits()).collect();
                        let fields: Vec<u64> = bits(&scratch.replicas);
                        assert_eq!(fields, bits(&replicas), "{at}: fields");
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{at}: generators");
                    }
                }
            }
        }
    }

    impl Kernel<'_> {
        /// A reverse read from `start` that refills the levels for every
        /// sweep whenever the floors move, on the caller's generator.
        fn full_refill_read(
            &self,
            start: &Start,
            scratch: &mut Scratch,
            rng: &mut Rng64,
        ) -> Vec<i8> {
            let Scratch {
                replicas: r,
                bound,
                levels,
                ..
            } = scratch;
            self.restart(start, r, bound);
            let mut from = 0;
            while let Some(flip) = {
                let own = !bound.floors.same(start.levels.floors);
                self.walk(
                    if own { levels } else { &start.levels },
                    r,
                    bound,
                    rng,
                    from,
                )
            } {
                from = flip.at + 1;
                self.track(r, bound, flip);
                if !bound.floors.same(start.levels.floors) && !levels.hold(bound.floors, 0) {
                    levels.fill(self, bound.floors, 0);
                }
            }
            let mut out = Vec::new();
            self.vote(r, &mut out);
            out
        }
    }

    #[test]
    fn reverse_reads_equal_the_full_refill_bit_for_bit() {
        // Greedy-seeded reverse anneals of dense 16-spin problems, the
        // served shape, at the served s_p and below, where reads flip more
        // and the floors move mid-read. The submissions share one scratch,
        // as a sampler thread's do, so a read also meets levels an earlier
        // read filled from a later sweep.
        use hqw_oracle::generator::random_qubo;
        use hqw_qubo::greedy_search;

        let mut rng = Rng64::new(0x5EF1);
        let problems: Vec<(CsrIsing, Vec<i8>)> = (0..8)
            .map(|_| {
                let qubo = random_qubo(16, &mut rng);
                let (mut csr, _) = CsrIsing::from_qubo(&qubo);
                csr.normalize();
                (csr, bits_to_spins(&greedy_search(&qubo).0))
            })
            .collect();
        let profile = DWaveProfile::calibrated();
        let (template, shared) = (&mut Start::default(), &mut Scratch::default());
        for s_p in [0.55, 0.60, 0.65] {
            let schedule = AnnealSchedule::reverse(s_p, 1.0).unwrap();
            for p in [2, 8] {
                let plan = PimcEngine::new(p).plan(&profile, &schedule, &AnnealParams::default());
                for (frame, (csr, init)) in problems.iter().enumerate() {
                    let mut rngs: Vec<Rng64> = (0..16).map(Rng64::new).collect();
                    let mut reads = Vec::new();
                    plan.read_into(csr, Some(init), &mut rngs, template, shared, &mut reads);
                    let mut start = Start::default();
                    let kernel = plan.kernel(csr, Some(init), &mut start);
                    let start = kernel.start.expect("a reverse plan has a start");
                    let mut reference = Scratch::default();
                    for (seed, (read, a)) in reads.chunks_exact(16).zip(&rngs).enumerate() {
                        let mut b = Rng64::new(seed as u64);
                        let full = kernel.full_refill_read(start, &mut reference, &mut b);
                        let at = format!("s_p {s_p}, P {p}, frame {frame}, seed {seed}");
                        assert_eq!(read, full, "{at}: readouts differ");
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{at}: generators");
                    }
                    // The next submission holds no levels of this one.
                    let last = plan.sweeps.len() - 1;
                    let floors = shared.levels.floors;
                    plan.read_into(csr, Some(init), &mut [], template, shared, &mut reads);
                    assert!(!shared.levels.hold(floors, last));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 Trotter slices")]
    fn single_slice_rejected() {
        PimcEngine::new(1);
    }
}

//! Distributional equivalence of the annealer kernels.
//!
//! The rejection-free kernels visit only the moves the freeze-out gate
//! lets through, so they draw other numbers than the per-move chain they
//! replace and cannot match it bit for bit; they must match it in
//! distribution. The draw-after reference kernels below are that per-move
//! chain. Each test anneals a problem small enough to enumerate (`n = 6`
//! spins, 64 readouts; `P = 4` slices) [`READS`] times with a kernel and its
//! reference, from fixed seeds, and compares the two readout histograms
//! with a G-test of homogeneity at α = 10⁻³, on forward, reverse and
//! forward-reverse schedules. The same test must reject a kernel whose
//! gate is scaled by 1.1 (`a_ref_ghz = 2/√1.1`, exponent 2) on a reverse
//! anneal whose gate never reaches the clamp at 1.
//!
//! A reverse anneal from a programmed low-energy state is where PIMC's
//! thinned walks do their work: there almost every site agrees with both
//! its time neighbours, so those moves are visited at `g·2^{−j}` rather
//! than `g`, and a kink-free ring's cluster moves at their tilted rate.
//! More cases run that regime at the detector's shape: `P = 8` slices,
//! an enumerated local minimum programmed, `s_p = 0.65` and the served 32
//! sweeps/µs: the highest-energy local minimum with a 3 µs pause, and
//! every local minimum with the detector's 1 µs pause. The 1.1× gate
//! must be rejected from the highest one at 1 µs too, where the readout
//! has not settled.

use hqw_anneal::engine::{AnnealParams, FreezeOut};
use hqw_anneal::schedule::AnnealSchedule;
use hqw_anneal::{AnnealEngine, DWaveProfile, PimcEngine, SvmcEngine};
use hqw_math::Rng64;
use hqw_oracle::csr::from_ising;
use hqw_oracle::generator::random_qubo;
use hqw_oracle::model::to_ising;
use hqw_oracle::rng::split;
use hqw_oracle::Ising;
use std::f64::consts::LN_2;

/// Reads per arm.
const READS: usize = 10_000;

/// Upper 10⁻³ quantile of the standard normal: the test's α.
const Z_ALPHA: f64 = 3.090_232;

/// Which kernel a histogram comes from.
#[derive(Clone, Copy)]
enum Kernel {
    /// The engine under test.
    Engine,
    /// Its draw-after reference.
    Reference,
}

/// The annealer shape under test.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Pimc,
    Svmc,
}

/// A fixed dense problem of `n` spins.
fn problem(n: usize) -> Ising {
    to_ising(&random_qubo(n, &mut Rng64::new(0xE9_0001))).0
}

/// Where the reads start and how many Trotter slices PIMC runs.
struct Start {
    /// PIMC's slice count (SVMC ignores it).
    slices: usize,
    /// The programmed state of a reverse schedule.
    initial: Vec<i8>,
}

/// The start the schedule cases share: 4 slices and a fixed mixed state.
fn mixed_start(n: usize) -> Start {
    Start {
        slices: 4,
        initial: (0..n).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect(),
    }
}

/// The three schedule kinds, by name. The reverse anneal stays at
/// `s ≥ 0.55`, where `A(s) < 2/√1.1` GHz keeps the default gate and the
/// 1.1× one below the clamp at 1, and pauses briefly enough that its
/// readout still depends on how many moves the gate let through.
fn schedules() -> [(&'static str, AnnealSchedule); 3] {
    [
        ("forward", AnnealSchedule::forward(1.0).unwrap()),
        ("reverse", AnnealSchedule::reverse(0.55, 0.5).unwrap()),
        (
            "forward-reverse",
            AnnealSchedule::forward_reverse(0.65, 0.55, 0.5, 1.55).unwrap(),
        ),
    ]
}

/// Anneal parameters with the given freeze-out reference field: few
/// sweeps, so the readout depends on the kinetics the gate sets.
fn params(a_ref_ghz: f64) -> AnnealParams {
    AnnealParams {
        sweeps_per_us: 8,
        beta_override: None,
        freeze_out: Some(FreezeOut {
            a_ref_ghz,
            exponent: 2.0,
        }),
    }
}

/// Readout histogram of [`READS`] anneals, indexed by the readout's bits.
fn histogram(
    shape: Shape,
    kernel: Kernel,
    ising: &Ising,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    start: &Start,
    seed: u64,
) -> Vec<u64> {
    let n = ising.num_vars();
    let profile = DWaveProfile::calibrated();
    let initial = schedule
        .requires_initial_state()
        .then_some(start.initial.as_slice());
    let mut master = Rng64::new(seed);
    let mut rngs: Vec<Rng64> = (0..READS).map(|_| split(&mut master)).collect();
    let pimc = PimcEngine::new(start.slices);
    let csr = from_ising(ising);
    let reads: Vec<Vec<i8>> = match (shape, kernel) {
        (Shape::Pimc, Kernel::Engine) => {
            pimc.run_reads(&csr, &profile, schedule, params, initial, &mut rngs)
        }
        (Shape::Svmc, Kernel::Engine) => {
            SvmcEngine.run_reads(&csr, &profile, schedule, params, initial, &mut rngs)
        }
        (Shape::Pimc, Kernel::Reference) => rngs
            .iter_mut()
            .map(|rng| pimc_draw_after(&pimc, ising, &profile, schedule, params, initial, rng))
            .collect(),
        (Shape::Svmc, Kernel::Reference) => rngs
            .iter_mut()
            .map(|rng| svmc_draw_after(ising, &profile, schedule, params, initial, rng))
            .collect(),
    };
    let mut counts = vec![0u64; 1 << n];
    for read in reads {
        let index = read
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > 0)
            .fold(0usize, |acc, (i, _)| acc | 1 << i);
        counts[index] += 1;
    }
    counts
}

/// The G statistic of homogeneity of two histograms and its degrees of
/// freedom. Bins holding fewer than 10 reads over both arms are pooled
/// into one, so every expected count is large enough for the χ² limit.
fn g_test(a: &[u64], b: &[u64]) -> (f64, usize) {
    let mut bins: Vec<(u64, u64)> = Vec::new();
    let mut pooled = (0, 0);
    for (&x, &y) in a.iter().zip(b) {
        if x + y >= 10 {
            bins.push((x, y));
        } else {
            pooled = (pooled.0 + x, pooled.1 + y);
        }
    }
    if pooled.0 + pooled.1 > 0 {
        bins.push(pooled);
    }
    let (total_a, total_b) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
    let total = total_a + total_b;
    let term = |observed: u64, expected: f64| {
        if observed == 0 {
            0.0
        } else {
            observed as f64 * (observed as f64 / expected).ln()
        }
    };
    let g = 2.0
        * bins
            .iter()
            .map(|&(x, y)| {
                let column = (x + y) as f64;
                term(x, total_a * column / total) + term(y, total_b * column / total)
            })
            .sum::<f64>();
    (g, bins.len().saturating_sub(1))
}

/// The χ² quantile at 1 − α (Wilson–Hilferty; within a few tenths of a
/// percent for the tens of degrees of freedom these histograms have).
fn chi2_critical(dof: usize) -> f64 {
    let k = dof.max(1) as f64;
    let c = 2.0 / (9.0 * k);
    k * (1.0 - c + Z_ALPHA * c.sqrt()).powi(3)
}

/// Whether the engine (at `engine_params`) and the reference (at
/// `reference_params`) give the same readout distribution on `schedule`
/// from `start`; the statistic, its critical value and the dof go into
/// the message.
fn same_distribution_from(
    shape: Shape,
    schedule: &AnnealSchedule,
    (engine_params, reference_params): (&AnnealParams, &AnnealParams),
    start: &Start,
) -> (bool, String) {
    let ising = problem(6);
    let engine = histogram(
        shape,
        Kernel::Engine,
        &ising,
        schedule,
        engine_params,
        start,
        0xA11,
    );
    let reference = histogram(
        shape,
        Kernel::Reference,
        &ising,
        schedule,
        reference_params,
        start,
        0xB22,
    );
    let (g, dof) = g_test(&engine, &reference);
    let critical = chi2_critical(dof);
    (
        g < critical,
        format!("{shape:?}: G = {g:.1} on {dof} dof, critical {critical:.1}"),
    )
}

/// [`same_distribution_from`] the mixed start, the reference at the
/// default gate.
fn same_distribution(
    shape: Shape,
    schedule: &AnnealSchedule,
    engine_params: &AnnealParams,
) -> (bool, String) {
    let start = mixed_start(6);
    same_distribution_from(shape, schedule, (engine_params, &params(2.0)), &start)
}

#[test]
fn pimc_matches_the_per_move_chain_in_distribution() {
    for (name, schedule) in schedules() {
        let (same, report) = same_distribution(Shape::Pimc, &schedule, &params(2.0));
        assert!(same, "{name}: {report}");
    }
}

#[test]
fn svmc_matches_the_per_move_chain_in_distribution() {
    for (name, schedule) in schedules() {
        let (same, report) = same_distribution(Shape::Svmc, &schedule, &params(2.0));
        assert!(same, "{name}: {report}");
    }
}

#[test]
fn a_gate_scaled_by_1_1_is_rejected() {
    // Exponent 2: a_ref = 2/√1.1 multiplies the gate by exactly 1.1.
    let mutant = params(2.0 / 1.1f64.sqrt());
    let (_, reverse) = &schedules()[1];
    for shape in [Shape::Pimc, Shape::Svmc] {
        let (same, report) = same_distribution(shape, reverse, &mutant);
        assert!(!same, "the 1.1x gate passed: {report}");
    }
    // From a local minimum, where PIMC's reverse read thins its walks,
    // with a pause short enough that the readout has not settled.
    let (start, schedule) = local_minimum_case(SERVED_PAUSE_US);
    let served = served_params(2.0);
    let mutant = served_params(2.0 / 1.1f64.sqrt());
    let (same, report) = same_distribution_from(Shape::Pimc, &schedule, (&mutant, &served), &start);
    assert!(!same, "the 1.1x gate passed from a local minimum: {report}");
}

/// The detector's own pause (the paper's reverse anneal pauses 1 µs),
/// short enough that a local-minimum start's readout still depends on
/// how many moves the gate lets through: at 3 µs it has settled, and a
/// walk whose hazard is off by a fifth still passes.
const SERVED_PAUSE_US: f64 = 1.0;

/// The detector's anneal parameters (32 sweeps/µs) at freeze-out
/// reference field `a_ref_ghz`.
fn served_params(a_ref_ghz: f64) -> AnnealParams {
    AnnealParams {
        sweeps_per_us: 32,
        ..params(a_ref_ghz)
    }
}

/// The harness problem's local minima (every site's `X = −2·s·h`
/// positive), by ascending energy.
fn local_minima() -> Vec<Vec<i8>> {
    let ising = problem(6);
    let n = ising.num_vars();
    let csr = from_ising(&ising);
    let stable =
        |state: &[i8]| (0..n).all(|i| -2.0 * state[i] as f64 * csr.local_field(state, i) > 0.0);
    let mut minima: Vec<Vec<i8>> = (0..1usize << n)
        .map(|m| {
            (0..n)
                .map(|i| if m >> i & 1 == 1 { 1 } else { -1 })
                .collect()
        })
        .filter(|state: &Vec<i8>| stable(state))
        .collect();
    minima.sort_by(|a, b| ising.energy(a).total_cmp(&ising.energy(b)));
    minima
}

/// The detector's reverse anneal from `minimum`: `P = 8`, `s_p = 0.65`,
/// pausing `pause` µs.
fn local_minimum_start(minimum: Vec<i8>, pause: f64) -> (Start, AnnealSchedule) {
    // The walks thin here: at a local minimum every site's X is positive,
    // and at the pause the time links alone bound an aligned move's action
    // by 4·J⊥ ≥ ln 2, so j ≥ 1.
    let s_p = 0.65;
    let profile = DWaveProfile::calibrated();
    let j_perp = PimcEngine::new(8).j_perp(&profile, profile.beta(), s_p);
    assert!(4.0 * j_perp >= LN_2, "J⊥ {j_perp} gives no thinning");
    let start = Start {
        slices: 8,
        initial: minimum,
    };
    (start, AnnealSchedule::reverse(s_p, pause).unwrap())
}

/// [`local_minimum_start`] from the highest-energy local minimum, a state
/// greedy descent can stop at: the readout then both stays and escapes,
/// so it depends on how often the thinned walks flip an aligned site or a
/// whole ring and on the kink moves that follow each flip.
fn local_minimum_case(pause: f64) -> (Start, AnnealSchedule) {
    // The ground state is a local minimum too, so two of them mean the
    // highest is not the ground state.
    let mut minima = local_minima();
    assert!(minima.len() >= 2, "the problem has one local minimum only");
    local_minimum_start(minima.pop().expect("two minima"), pause)
}

#[test]
fn pimc_thinned_walk_matches_the_per_move_chain_from_a_local_minimum() {
    let served = served_params(2.0);
    let (start, schedule) = local_minimum_case(3.0);
    let (same, report) = same_distribution_from(Shape::Pimc, &schedule, (&served, &served), &start);
    assert!(same, "local-minimum reverse anneal: {report}");
    // Every local minimum at the detector's pause: the shallower ones put
    // the tilted cluster walk's segment law to the test (a walk that draws
    // its lengths untilted fails on the middle one).
    for (rank, minimum) in local_minima().into_iter().enumerate() {
        let (start, schedule) = local_minimum_start(minimum, SERVED_PAUSE_US);
        let (same, report) =
            same_distribution_from(Shape::Pimc, &schedule, (&served, &served), &start);
        assert!(
            same,
            "local minimum {rank}, {SERVED_PAUSE_US} µs pause: {report}"
        );
    }
}

// ---------------------------------------------------------------------------
// Draw-after reference kernels
// ---------------------------------------------------------------------------

/// The per-move PIMC chain: every proposal computes Δ and `exp`, then
/// tests one uniform against `gate·min(1, e^{−Δ})`; every cluster move
/// grows its segment (through an `in_cluster` mask and a `members` list)
/// before its acceptance draw.
fn pimc_draw_after(
    engine: &PimcEngine,
    problem: &Ising,
    profile: &DWaveProfile,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    rng: &mut Rng64,
) -> Vec<i8> {
    let csr = from_ising(problem);
    let n = csr.num_vars();
    let p = engine.trotter_slices;
    let beta = params.beta(profile);
    let mut spins: Vec<i8> = match initial {
        Some(state) => (0..p).flat_map(|_| state.iter().copied()).collect(),
        None => (0..p * n)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect(),
    };
    let mut h_eff: Vec<f64> = vec![0.0; p * n];
    for k in 0..p {
        csr.fill_local_fields(&spins[k * n..(k + 1) * n], &mut h_eff[k * n..(k + 1) * n]);
    }
    let flip_and_update = |spins: &mut [i8], h_eff: &mut [f64], base: usize, i: usize| {
        let s_new = -spins[base + i];
        spins[base + i] = s_new;
        let ds = 2.0 * s_new as f64;
        csr.axpy_row(&mut h_eff[base..base + n], i, ds);
    };
    let total_sweeps = params.total_sweeps(schedule);
    let duration = schedule.duration_us();
    let p_f = p as f64;
    let mut in_cluster = vec![false; p];
    let mut members: Vec<usize> = Vec::with_capacity(p);
    for sweep in 0..total_sweeps {
        let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
        let s = schedule.s_at(t);
        let j_perp = engine.j_perp(profile, beta, s);
        let k_cl = beta * profile.b_ghz(s) / (2.0 * p_f);
        let gate = params.gate(profile.a_ghz(s));
        if gate <= 0.0 {
            continue;
        }
        for k in 0..p {
            let up = if k + 1 == p { 0 } else { k + 1 };
            let down = if k == 0 { p - 1 } else { k - 1 };
            let base = k * n;
            for i in 0..n {
                let sik = spins[base + i] as f64;
                let field = h_eff[base + i];
                let time_neighbors = (spins[up * n + i] + spins[down * n + i]) as f64;
                let delta = -2.0 * sik * k_cl * field + 2.0 * sik * j_perp * time_neighbors;
                let accept = if delta <= 0.0 {
                    gate
                } else {
                    gate * (-delta).exp()
                };
                if rng.next_f64() < accept {
                    flip_and_update(&mut spins, &mut h_eff, base, i);
                }
            }
        }
        let p_bond = 1.0 - (-2.0 * j_perp).exp();
        for i in 0..n {
            let start = rng.next_index(p);
            let s0 = spins[start * n + i];
            in_cluster[start] = true;
            members.push(start);
            let mut k = start;
            loop {
                let next = if k + 1 == p { 0 } else { k + 1 };
                if in_cluster[next] || spins[next * n + i] != s0 || rng.next_f64() >= p_bond {
                    break;
                }
                in_cluster[next] = true;
                members.push(next);
                k = next;
            }
            k = start;
            loop {
                let prev = if k == 0 { p - 1 } else { k - 1 };
                if in_cluster[prev] || spins[prev * n + i] != s0 || rng.next_f64() >= p_bond {
                    break;
                }
                in_cluster[prev] = true;
                members.push(prev);
                k = prev;
            }
            let mut delta = 0.0;
            for &kk in &members {
                delta += -2.0 * s0 as f64 * k_cl * h_eff[kk * n + i];
            }
            let accept = if delta <= 0.0 {
                gate
            } else {
                gate * (-delta).exp()
            };
            if rng.next_f64() < accept {
                for &kk in &members {
                    flip_and_update(&mut spins, &mut h_eff, kk * n, i);
                }
            }
            for &kk in &members {
                in_cluster[kk] = false;
            }
            members.clear();
        }
    }
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

/// The per-move SVMC chain: every rotor draws a proposal, computes
/// `cos`/`sin`, Δ and `exp`, then tests one uniform against
/// `gate·min(1, e^{−βΔ})`.
fn svmc_draw_after(
    problem: &Ising,
    profile: &DWaveProfile,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    rng: &mut Rng64,
) -> Vec<i8> {
    let csr = from_ising(problem);
    let n = csr.num_vars();
    let beta = params.beta(profile);
    let theta: Vec<f64> = match initial {
        Some(state) => state
            .iter()
            .map(|&s| if s > 0 { 0.0 } else { std::f64::consts::PI })
            .collect(),
        None => vec![std::f64::consts::FRAC_PI_2; n],
    };
    let mut cos_t: Vec<f64> = theta.iter().map(|t| t.cos()).collect();
    let mut sin_t: Vec<f64> = theta.iter().map(|t| t.sin()).collect();
    let rebuild = |cos_t: &[f64], field: &mut [f64]| {
        for (i, slot) in field.iter_mut().enumerate() {
            let (cols, ws) = csr.row(i);
            let mut f = csr.h(i);
            for (&j, &w) in cols.iter().zip(ws) {
                f += w * cos_t[j as usize];
            }
            *slot = f;
        }
    };
    let mut field: Vec<f64> = vec![0.0; n];
    rebuild(&cos_t, &mut field);
    let total_sweeps = params.total_sweeps(schedule);
    let duration = schedule.duration_us();
    for sweep in 0..total_sweeps {
        let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
        let s = schedule.s_at(t);
        let a_half = profile.a_ghz(s) / 2.0;
        let b_half = profile.b_ghz(s) / 2.0;
        let gate = params.gate(profile.a_ghz(s));
        if gate <= 0.0 {
            continue;
        }
        if sweep > 0 && sweep % 64 == 0 {
            rebuild(&cos_t, &mut field);
        }
        for i in 0..n {
            let proposal = rng.next_range(0.0, std::f64::consts::PI);
            let p_cos = proposal.cos();
            let p_sin = proposal.sin();
            let d_cos = p_cos - cos_t[i];
            let delta = b_half * field[i] * d_cos - a_half * (p_sin - sin_t[i]);
            let accept = if delta <= 0.0 {
                gate
            } else {
                gate * (-beta * delta).exp()
            };
            if rng.next_f64() < accept {
                cos_t[i] = p_cos;
                sin_t[i] = p_sin;
                csr.axpy_row(&mut field, i, d_cos);
            }
        }
    }
    cos_t
        .iter()
        .map(|&c| if c >= 0.0 { 1 } else { -1 })
        .collect()
}

//! Fixed-complexity sphere decoding (FCSD).
//!
//! Named in the paper's §5 (Barbero & Thompson [4]): enumerate *all* levels
//! on the first `ρ` tree layers, then complete each of the `levelsᵖ` partial
//! paths with the cheap Babai (nearest-plane) rule. Complexity is exactly
//! `levels^ρ` completions regardless of channel realization — attractive for
//! pipelined hardware where worst-case latency matters (the paper's
//! Challenge 3), and each path is independent, "enabling parallelism".

use super::lattice::{nearest_level, RealLattice};
use super::{DetectionResult, Detector, DetectorMeta};
use crate::mimo::MimoSystem;
use hqw_math::{CMatrix, CVector};

/// FCSD with `rho` fully-expanded layers.
#[derive(Debug, Clone, Copy)]
pub struct Fcsd {
    /// Number of top tree layers to expand exhaustively.
    pub rho: usize,
}

impl Fcsd {
    /// Creates an FCSD detector expanding `rho` layers.
    pub fn new(rho: usize) -> Self {
        Fcsd { rho }
    }
}

impl Detector for Fcsd {
    fn name(&self) -> &'static str {
        "FCSD"
    }

    fn detect(&self, system: &MimoSystem, h: &CMatrix, y: &CVector) -> DetectionResult {
        let lattice = RealLattice::new(system, h, y);
        let dim = lattice.dim();
        let rho = self.rho.min(dim);
        let expand_from = dim - rho; // layers dim-1 .. expand_from are expanded

        let mut best_cost = f64::INFINITY;
        let mut best_x = vec![0.0; dim];
        let mut completions = 0u64;

        // Iterative enumeration of the expanded prefix.
        let mut stack: Vec<(usize, Vec<f64>, f64)> = vec![(dim, vec![0.0; dim], 0.0)];
        while let Some((d, x, cost)) = stack.pop() {
            if d == expand_from {
                completions += 1;
                // Complete with Babai from layer d−1 down.
                let mut xc = x.clone();
                let mut total = cost;
                for dd in (0..d).rev() {
                    let (center, _) = lattice.layer_center(dd, &xc);
                    let level = nearest_level(lattice.levels(dd), center);
                    total += lattice.layer_cost(dd, level, &xc);
                    xc[dd] = level;
                }
                if total < best_cost {
                    best_cost = total;
                    best_x = xc;
                }
                continue;
            }
            let layer = d - 1;
            for &level in lattice.levels(layer) {
                let mut xn = x.clone();
                xn[layer] = level;
                let c = cost + lattice.layer_cost(layer, level, &x);
                stack.push((layer, xn, c));
            }
        }

        let symbols = lattice.to_symbols(&best_x);
        let gray_bits = system.demodulate(&symbols);
        DetectionResult {
            symbols,
            gray_bits,
            meta: DetectorMeta {
                nodes_visited: completions,
                sweeps: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{add_awgn, ChannelModel};
    use crate::detect::testutil::noiseless;
    use crate::detect::MlBruteForce;
    use crate::modulation::Modulation;
    use hqw_math::Rng64;

    #[test]
    fn rho_zero_is_pure_babai_and_solves_noiseless() {
        for m in Modulation::ALL {
            let sc = noiseless(m, 4, 71);
            let det = Fcsd::new(0).detect(&sc.system, &sc.h, &sc.y);
            assert_eq!(det.gray_bits, sc.tx_bits, "{}", m.name());
        }
    }

    #[test]
    fn full_expansion_is_exact() {
        let mut rng = Rng64::new(73);
        let sys = MimoSystem::new(3, 3, Modulation::Qpsk);
        for _ in 0..5 {
            let h = ChannelModel::RayleighIid.generate(3, 3, &mut rng);
            let bits = sys.random_bits(&mut rng);
            let x = sys.modulate(&bits);
            let mut y = sys.transmit(&h, &x);
            add_awgn(&mut y, 0.3, &mut rng);
            let fc = Fcsd::new(6).detect(&sys, &h, &y); // all 6 layers expanded
            let ml = MlBruteForce.detect(&sys, &h, &y);
            let m_fc = sys.ml_metric(&h, &y, &fc.symbols);
            let m_ml = sys.ml_metric(&h, &y, &ml.symbols);
            assert!((m_fc - m_ml).abs() < 1e-9, "{m_fc} vs {m_ml}");
        }
    }

    #[test]
    fn quality_improves_with_rho_statistically() {
        let mut rng = Rng64::new(75);
        let sys = MimoSystem::new(5, 5, Modulation::Qam16);
        let mut m0 = 0.0;
        let mut m3 = 0.0;
        for _ in 0..10 {
            let h = ChannelModel::RayleighIid.generate(5, 5, &mut rng);
            let bits = sys.random_bits(&mut rng);
            let x = sys.modulate(&bits);
            let mut y = sys.transmit(&h, &x);
            add_awgn(&mut y, 0.5, &mut rng);
            m0 += sys.ml_metric(&h, &y, &Fcsd::new(0).detect(&sys, &h, &y).symbols);
            m3 += sys.ml_metric(&h, &y, &Fcsd::new(3).detect(&sys, &h, &y).symbols);
        }
        assert!(
            m3 <= m0 + 1e-9,
            "rho=3 ({m3}) should not lose to rho=0 ({m0})"
        );
    }

    #[test]
    fn path_count_is_fixed_complexity() {
        let sc = noiseless(Modulation::Qam16, 4, 77);
        // Top layers are Q rails (2 bits → 4 levels each).
        for (rho, paths) in [(0, 1), (1, 4), (2, 16)] {
            let det = Fcsd::new(rho).detect(&sc.system, &sc.h, &sc.y);
            assert_eq!(det.meta.nodes_visited, paths, "rho={rho}");
        }
    }
}

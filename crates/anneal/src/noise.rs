//! Analog control noise (ICE — integrated control errors).
//!
//! Analog annealers do not program `h` and `J` exactly: each read sees the
//! intended coefficients perturbed by roughly-Gaussian errors. This is the
//! hardware reality behind the paper's §3.1 finding that soft-information
//! constraint factors are "difficult to find … on noisy, analog quantum
//! machines": a constraint strength that is safe on the nominal problem can
//! displace the global optimum once coefficients jitter.
//!
//! Magnitudes default to the 2000Q-era scale (a few percent of the
//! unit-normalized programming range).

use hqw_math::Rng64;
use hqw_qubo::CsrIsing;

/// Gaussian perturbation model for programmed coefficients.
#[derive(Debug, Clone, Copy)]
pub struct IceModel {
    /// Standard deviation of the per-read error on each `h_i`.
    pub sigma_h: f64,
    /// Standard deviation of the per-read error on each `J_ij`.
    pub sigma_j: f64,
}

impl Default for IceModel {
    fn default() -> Self {
        // 2000Q-era public figures: δh ≈ 0.03, δJ ≈ 0.02 on the [-1, 1]
        // programming range.
        IceModel {
            sigma_h: 0.03,
            sigma_j: 0.02,
        }
    }
}

impl IceModel {
    /// A noiseless model (useful to switch ICE off through the same API).
    pub fn none() -> Self {
        IceModel {
            sigma_h: 0.0,
            sigma_j: 0.0,
        }
    }

    /// Creates a model with explicit magnitudes.
    ///
    /// # Panics
    /// Panics on negative sigmas.
    pub fn new(sigma_h: f64, sigma_j: f64) -> Self {
        assert!(sigma_h >= 0.0 && sigma_j >= 0.0, "IceModel: negative sigma");
        IceModel { sigma_h, sigma_j }
    }

    /// True when both magnitudes are zero.
    pub fn is_none(&self) -> bool {
        self.sigma_h == 0.0 && self.sigma_j == 0.0
    }

    /// Returns a perturbed copy of `problem` (the topology is unchanged;
    /// only weights jitter), as seen by one anneal read: one draw per
    /// field in spin order, then one per coupling in edge order (each edge
    /// from its lower endpoint, rows in order).
    pub fn perturb(&self, problem: &CsrIsing, rng: &mut Rng64) -> CsrIsing {
        let mut noisy = problem.clone();
        if self.sigma_h > 0.0 {
            for i in 0..problem.num_vars() {
                noisy.add_h(i, rng.next_gaussian_with(0.0, self.sigma_h));
            }
        }
        if self.sigma_j > 0.0 {
            noisy.add_to_couplings(|| rng.next_gaussian_with(0.0, self.sigma_j));
        }
        noisy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_oracle::csr::from_ising;
    use hqw_oracle::Ising;

    fn sample_problem() -> CsrIsing {
        let mut ising = Ising::new(4);
        ising.set_h(0, 0.5);
        ising.set_h(2, -0.25);
        ising.set_coupling(0, 1, 1.0);
        ising.set_coupling(2, 3, -0.5);
        from_ising(&ising)
    }

    /// `J_01`: spin 0's only neighbour is spin 1.
    fn j01(problem: &CsrIsing) -> f64 {
        problem.row(0).1[0]
    }

    #[test]
    fn none_model_is_identity() {
        let p = sample_problem();
        let mut rng = Rng64::new(1);
        let out = IceModel::none().perturb(&p, &mut rng);
        for i in 0..4 {
            assert_eq!(out.h(i), p.h(i));
            assert_eq!(out.row(i), p.row(i));
        }
    }

    #[test]
    fn perturbation_preserves_topology() {
        let p = sample_problem();
        let mut rng = Rng64::new(2);
        let out = IceModel::default().perturb(&p, &mut rng);
        assert_eq!(out.num_vars(), 4);
        assert_eq!(out.nnz(), p.nnz());
        for i in 0..4 {
            assert_eq!(out.row(i).0, p.row(i).0, "edge endpoints changed");
        }
        // Both mirrored entries of an edge see the same noise.
        assert_eq!(j01(&out), out.row(1).1[0]);
    }

    #[test]
    fn perturbation_magnitude_matches_sigma() {
        let p = sample_problem();
        let model = IceModel::new(0.1, 0.05);
        let mut rng = Rng64::new(3);
        let trials = 2000;
        let mut h_err_sq = 0.0;
        let mut j_err_sq = 0.0;
        for _ in 0..trials {
            let out = model.perturb(&p, &mut rng);
            h_err_sq += (out.h(0) - p.h(0)).powi(2);
            j_err_sq += (j01(&out) - j01(&p)).powi(2);
        }
        let h_std = (h_err_sq / trials as f64).sqrt();
        let j_std = (j_err_sq / trials as f64).sqrt();
        assert!((h_std - 0.1).abs() < 0.01, "h std {h_std}");
        assert!((j_std - 0.05).abs() < 0.005, "J std {j_std}");
    }

    #[test]
    fn each_read_sees_different_noise() {
        let p = sample_problem();
        let model = IceModel::default();
        let mut rng = Rng64::new(4);
        let a = model.perturb(&p, &mut rng);
        let b = model.perturb(&p, &mut rng);
        assert!((a.h(0) - b.h(0)).abs() > 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative sigma")]
    fn negative_sigma_rejected() {
        IceModel::new(-0.1, 0.0);
    }
}

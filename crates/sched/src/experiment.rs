//! The Fig. 5 schedulability experiment: percentage of schedulable task
//! sets under LockStep, HMR and FlexStep across utilisation levels and
//! system configurations.

use crate::partition::{FlexStepPartitioner, HmrPartitioner, LockStepPartitioner, Partitioner};
use crate::uunifast::{generate, GenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One Fig. 5 sub-plot configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Config {
    /// Number of cores `m`.
    pub m: usize,
    /// Number of tasks `n`.
    pub n: usize,
    /// Fraction of double-check tasks `α`.
    pub alpha: f64,
    /// Fraction of triple-check tasks `β`.
    pub beta: f64,
}

impl Fig5Config {
    /// The six published sub-plots (a)–(f).
    pub fn paper_all() -> [(char, Fig5Config); 6] {
        [
            (
                'a',
                Fig5Config {
                    m: 8,
                    n: 160,
                    alpha: 0.0625,
                    beta: 0.0625,
                },
            ),
            (
                'b',
                Fig5Config {
                    m: 8,
                    n: 160,
                    alpha: 0.125,
                    beta: 0.125,
                },
            ),
            (
                'c',
                Fig5Config {
                    m: 8,
                    n: 160,
                    alpha: 0.25,
                    beta: 0.25,
                },
            ),
            (
                'd',
                Fig5Config {
                    m: 8,
                    n: 160,
                    alpha: 0.25,
                    beta: 0.0,
                },
            ),
            (
                'e',
                Fig5Config {
                    m: 16,
                    n: 160,
                    alpha: 0.125,
                    beta: 0.125,
                },
            ),
            (
                'f',
                Fig5Config {
                    m: 8,
                    n: 80,
                    alpha: 0.25,
                    beta: 0.25,
                },
            ),
        ]
    }
}

/// Acceptance ratios at one utilisation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Normalised (per-core) utilisation of the generated sets.
    pub utilization: f64,
    /// % of sets schedulable under LockStep.
    pub lockstep: f64,
    /// % of sets schedulable under HMR.
    pub hmr: f64,
    /// % of sets schedulable under FlexStep.
    pub flexstep: f64,
}

/// Runs one sub-plot sweep.
///
/// `utils` holds normalised per-core utilisations (the paper sweeps 0.35
/// to 0.95); `sets_per_point` task sets are generated per point with a
/// deterministic seed derived from `seed`.
pub fn sweep(
    config: &Fig5Config,
    utils: &[f64],
    sets_per_point: usize,
    seed: u64,
) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(utils.len());
    let lockstep = LockStepPartitioner;
    let hmr = HmrPartitioner;
    let flexstep = FlexStepPartitioner;
    for &u in utils {
        let mut ok = [0usize; 3];
        for s in 0..sets_per_point {
            // Seed from the utilisation *value* (not the slice index) so
            // a sweep over [a, b] and two single-point sweeps draw the
            // same task sets — the `fig5` binary maps single-point
            // sweeps over the axis in parallel and relies on this.
            let mut rng =
                StdRng::seed_from_u64(seed ^ u.to_bits().rotate_left(17) ^ (s as u64) << 24);
            let params = GenParams::fig5(config.n, u * config.m as f64, config.alpha, config.beta);
            let ts = generate(&mut rng, &params);
            if lockstep.schedulable(&ts, config.m) {
                ok[0] += 1;
            }
            if hmr.schedulable(&ts, config.m) {
                ok[1] += 1;
            }
            if flexstep.schedulable(&ts, config.m) {
                ok[2] += 1;
            }
        }
        let pct = |k: usize| 100.0 * ok[k] as f64 / sets_per_point as f64;
        out.push(SweepPoint {
            utilization: u,
            lockstep: pct(0),
            hmr: pct(1),
            flexstep: pct(2),
        });
    }
    out
}

/// The paper's x-axis: 0.35 to 0.95 in steps of 0.05.
pub fn paper_utilization_axis() -> Vec<f64> {
    (0..=12).map(|i| 0.35 + 0.05 * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_axis_shape() {
        let axis = paper_utilization_axis();
        assert_eq!(axis.len(), 13);
        assert!((axis[0] - 0.35).abs() < 1e-12);
        assert!((axis[12] - 0.95).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = Fig5Config {
            m: 4,
            n: 24,
            alpha: 0.125,
            beta: 0.125,
        };
        let a = sweep(&cfg, &[0.5, 0.7], 40, 99);
        let b = sweep(&cfg, &[0.5, 0.7], 40, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn single_point_sweeps_equal_one_sweep_over_both_points() {
        let cfg = Fig5Config {
            m: 4,
            n: 24,
            alpha: 0.125,
            beta: 0.125,
        };
        let both = sweep(&cfg, &[0.5, 0.8], 30, 7);
        let single = [sweep(&cfg, &[0.5], 30, 7)[0], sweep(&cfg, &[0.8], 30, 7)[0]];
        assert_eq!(both, single);
    }

    #[test]
    fn flexstep_dominates_at_moderate_utilisation() {
        // The headline qualitative result of Fig. 5: FlexStep ≥ HMR ≥
        // LockStep, with LockStep collapsing first (its rigid fusion
        // halves the usable cores). On the copy-inclusive axis the
        // LockStep cliff for this mix falls just past 0.5.
        let cfg = Fig5Config {
            m: 8,
            n: 40,
            alpha: 0.125,
            beta: 0.125,
        };
        let pts = sweep(&cfg, &[0.35, 0.58], 60, 13);
        for p in &pts {
            assert!(
                p.flexstep >= p.hmr - 5.0,
                "FlexStep should not lose to HMR: {p:?}"
            );
            assert!(
                p.flexstep >= p.lockstep - 5.0,
                "FlexStep should not lose to LockStep: {p:?}"
            );
        }
        assert!(
            pts[1].flexstep > pts[1].lockstep + 20.0,
            "the flexibility gap must appear past the LockStep cliff: {:?}",
            pts[1]
        );
    }

    #[test]
    fn acceptance_decreases_with_utilisation() {
        let cfg = Fig5Config {
            m: 8,
            n: 40,
            alpha: 0.125,
            beta: 0.125,
        };
        let pts = sweep(&cfg, &[0.4, 0.95], 60, 5);
        assert!(pts[0].flexstep >= pts[1].flexstep);
        assert!(pts[0].lockstep >= pts[1].lockstep);
    }
}

//! The paper's Table 1 application registry.
//!
//! Six 6-qubit TFIM VQE applications differing in ansatz family, block
//! repetitions, and the machine whose transient trace drives the simulation:
//!
//! | App  | Qubits | Ansatz | Reps | Machine + trial |
//! |------|--------|--------|------|-----------------|
//! | App1 | 6      | SU2    | 2    | Toronto (v1)    |
//! | App2 | 6      | RA     | 4    | Guadalupe (v1)  |
//! | App3 | 6      | RA     | 4    | Guadalupe (v2)  |
//! | App4 | 6      | SU2    | 4    | Toronto (v2)    |
//! | App5 | 6      | RA     | 8    | Cairo (v1)      |
//! | App6 | 6      | RA     | 8    | Casablanca (v1) |

use crate::ansatz::{Ansatz, AnsatzKind, Entanglement};
use crate::objective::{NoisyObjective, NoisyObjectiveConfig};
use crate::tfim::Tfim;
use qismet_mathkit::derive_seed;
use qismet_qnoise::Machine;
use qismet_qsim::{Backend, CachedStatevectorBackend};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application index (1-6).
    pub id: u8,
    /// Qubit count (6 for all paper apps).
    pub n_qubits: usize,
    /// Ansatz family.
    pub ansatz: AnsatzKind,
    /// Entangling block repetitions.
    pub reps: usize,
    /// Machine whose traces drive the noise.
    pub machine: Machine,
    /// Trace trial index (the paper's "(v1)" / "(v2)").
    pub trial: u32,
}

impl AppSpec {
    /// The six simulation applications of Table 1.
    pub fn table1() -> Vec<AppSpec> {
        use AnsatzKind::*;
        vec![
            AppSpec {
                id: 1,
                n_qubits: 6,
                ansatz: EfficientSu2,
                reps: 2,
                machine: Machine::Toronto,
                trial: 1,
            },
            AppSpec {
                id: 2,
                n_qubits: 6,
                ansatz: RealAmplitudes,
                reps: 4,
                machine: Machine::Guadalupe,
                trial: 1,
            },
            AppSpec {
                id: 3,
                n_qubits: 6,
                ansatz: RealAmplitudes,
                reps: 4,
                machine: Machine::Guadalupe,
                trial: 2,
            },
            AppSpec {
                id: 4,
                n_qubits: 6,
                ansatz: EfficientSu2,
                reps: 4,
                machine: Machine::Toronto,
                trial: 2,
            },
            AppSpec {
                id: 5,
                n_qubits: 6,
                ansatz: RealAmplitudes,
                reps: 8,
                machine: Machine::Cairo,
                trial: 1,
            },
            AppSpec {
                id: 6,
                n_qubits: 6,
                ansatz: RealAmplitudes,
                reps: 8,
                machine: Machine::Casablanca,
                trial: 1,
            },
        ]
    }

    /// Looks up a Table 1 app by index (1-6).
    pub fn by_id(id: u8) -> Option<AppSpec> {
        Self::table1().into_iter().find(|a| a.id == id)
    }

    /// Display name (`"App3"`).
    pub fn name(&self) -> String {
        format!("App{}", self.id)
    }

    /// Deterministic seed stream for this app.
    pub fn seed(&self, master: u64) -> u64 {
        derive_seed(
            master,
            (self.id as u64) << 32 | self.machine.seed_stream() << 8 | self.trial as u64,
        )
    }

    /// Builds the ansatz.
    pub fn build_ansatz(&self) -> Ansatz {
        Ansatz::new(self.ansatz, self.n_qubits, self.reps, Entanglement::Linear)
    }

    /// Builds the full simulated application instance.
    ///
    /// * `job_capacity` — transient-trace length; allocate several times the
    ///   planned iteration count to absorb QISMET retries.
    /// * `magnitude` — transient burst magnitude as a fraction of objective
    ///   magnitude; `None` uses the machine's native intensity.
    pub fn build(
        &self,
        job_capacity: usize,
        magnitude: Option<f64>,
        master_seed: u64,
    ) -> AppInstance {
        self.build_with_backend(
            job_capacity,
            magnitude,
            master_seed,
            Box::new(CachedStatevectorBackend::new()),
        )
    }

    /// Like [`AppSpec::build`] but running the objective on an explicit
    /// circuit-execution [`Backend`] — the hook campaign executors use to
    /// share one pooled backend (scratch state + compiled plans) across all
    /// runs on a worker thread. Results are identical to [`AppSpec::build`]
    /// by the [`Backend`] contract.
    ///
    /// The exact ground energy comes from [`Tfim::exact_ground_energy`],
    /// which is memoized process-wide by `(n, j, h, boundary)`: only the
    /// first build per Hamiltonian per process pays the dense solve, and
    /// every build of a campaign's shared 6-qubit chain after it reuses the
    /// same bits.
    pub fn build_with_backend(
        &self,
        job_capacity: usize,
        magnitude: Option<f64>,
        master_seed: u64,
        backend: Box<dyn Backend>,
    ) -> AppInstance {
        let tfim = Tfim {
            n: self.n_qubits,
            j: 1.0,
            h: 1.0,
            boundary: crate::tfim::Boundary::Open,
        };
        let hamiltonian = tfim.hamiltonian();
        let exact_ground = tfim
            .exact_ground_energy()
            .expect("dense TFIM diagonalization");
        let ansatz = self.build_ansatz();
        let seed = self.seed(master_seed);
        let mag = magnitude.unwrap_or_else(|| self.machine.native_transient_magnitude());
        let trace = self.machine.transient_model(mag).generate(
            &mut qismet_mathkit::rng_from_seed(derive_seed(seed, 1)),
            job_capacity,
        );
        let cfg = NoisyObjectiveConfig {
            static_model: self.machine.static_model(self.n_qubits),
            trace,
            magnitude_ref: exact_ground.abs(),
            shot_sigma: 0.01 * exact_ground.abs(),
            // Evaluations co-scheduled into one job (QISMET's Fig. 7 layout)
            // share the job's transient up to this residual spread —
            // state-dependent impact differences between nearby circuits
            // (Section 3.2c). The baseline never benefits from this: its
            // evaluations run as separate jobs.
            within_job_spread: 0.2,
            seed: derive_seed(seed, 2),
        };
        let theta0 = ansatz.initial_params_wide(derive_seed(seed, 3));
        let objective =
            NoisyObjective::with_backend(ansatz.clone(), hamiltonian.clone(), cfg, backend);
        AppInstance {
            spec: self.clone(),
            ansatz,
            hamiltonian,
            exact_ground,
            objective,
            theta0,
        }
    }
}

/// A fully wired simulated application.
#[derive(Debug, Clone)]
pub struct AppInstance {
    /// The Table 1 row this instance realizes.
    pub spec: AppSpec,
    /// The variational ansatz.
    pub ansatz: Ansatz,
    /// The TFIM Hamiltonian.
    pub hamiltonian: qismet_qsim::PauliSum,
    /// Exact ground energy (classical reference).
    pub exact_ground: f64,
    /// The transient-noisy objective.
    pub objective: NoisyObjective,
    /// Initial parameters.
    pub theta0: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let apps = AppSpec::table1();
        assert_eq!(apps.len(), 6);
        assert!(apps.iter().all(|a| a.n_qubits == 6));
        let app2 = AppSpec::by_id(2).unwrap();
        assert_eq!(app2.ansatz, AnsatzKind::RealAmplitudes);
        assert_eq!(app2.reps, 4);
        assert_eq!(app2.machine, Machine::Guadalupe);
        let app5 = AppSpec::by_id(5).unwrap();
        assert_eq!(app5.machine, Machine::Cairo);
        assert_eq!(app5.reps, 8);
        assert!(AppSpec::by_id(7).is_none());
    }

    #[test]
    fn seeds_are_distinct_across_apps() {
        let apps = AppSpec::table1();
        let mut seen = std::collections::HashSet::new();
        for a in &apps {
            assert!(seen.insert(a.seed(42)), "seed collision for {}", a.name());
        }
        // Same app, same master seed: stable.
        assert_eq!(apps[0].seed(42), AppSpec::by_id(1).unwrap().seed(42));
    }

    #[test]
    fn build_produces_consistent_instance() {
        let app = AppSpec::by_id(2).unwrap().build(200, None, 7);
        assert_eq!(app.ansatz.n_params(), 30); // RA, 6 qubits, reps 4
        assert_eq!(app.theta0.len(), 30);
        assert!(app.exact_ground < -7.0);
        assert_eq!(app.objective.jobs_remaining(), 200);
        // App name format.
        assert_eq!(app.spec.name(), "App2");
    }

    #[test]
    fn magnitude_override_scales_trace() {
        let calm = AppSpec::by_id(1).unwrap().build(5000, Some(0.0), 7);
        let wild = AppSpec::by_id(1).unwrap().build(5000, Some(0.5), 7);
        let calm_max = qismet_mathkit::max(
            &(0..5000)
                .map(|j| calm.objective.transient_at(j).abs())
                .collect::<Vec<_>>(),
        );
        let wild_max = qismet_mathkit::max(
            &(0..5000)
                .map(|j| wild.objective.transient_at(j).abs())
                .collect::<Vec<_>>(),
        );
        assert!(
            calm_max < 0.01,
            "zero-magnitude trace should be jitter-free"
        );
        assert!(wild_max > 0.3, "wild trace max {wild_max}");
    }

    #[test]
    fn deeper_apps_have_lower_attenuation() {
        let shallow = AppSpec::by_id(1).unwrap().build(10, None, 7); // reps 2
        let deep = AppSpec::by_id(5).unwrap().build(10, None, 7); // reps 8, Cairo
        assert!(
            deep.objective.attenuation() < shallow.objective.attenuation(),
            "deep {} vs shallow {}",
            deep.objective.attenuation(),
            shallow.objective.attenuation()
        );
    }
}

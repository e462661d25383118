//! The circuit-execution layer.
//!
//! Everything above this crate evaluates circuits through the [`Backend`]
//! trait instead of constructing simulators directly. Its one
//! implementation, [`StatevectorBackend`], runs compiled plans
//! ([`crate::CompiledCircuit`] / [`crate::CompiledObservable`]) on a reused
//! scratch statevector. QISMET's job structure (paper Fig. 7) maps onto
//! [`Backend::evaluate_plan_batch`]: every parameter point of one quantum
//! job is handed to the engine as a single batch.
//!
//! The hot path is [`Backend::evaluate_plan`]: the caller compiles its
//! ansatz and observable once and holds the plans, and each call rebinds
//! the plan in place and runs it without allocating. [`Backend::evaluate`]
//! takes a bound [`Circuit`] instead and compiles it on every call.
//!
//! # Examples
//!
//! ```
//! use qismet_qsim::{Backend, Circuit, PauliSum, StatevectorBackend};
//!
//! let h = PauliSum::from_labels(&[(-1.0, "ZZ"), (-0.5, "XI")]).unwrap();
//! let mut c = Circuit::new(2);
//! c.ry(0.3, 0).ry(0.7, 1).cx(0, 1);
//! let mut backend = StatevectorBackend::new();
//! let single = backend.evaluate(&c, &h).unwrap();
//! let batch = backend.evaluate_batch(std::slice::from_ref(&c), &h).unwrap();
//! assert_eq!(single.to_bits(), batch[0].to_bits());
//! ```

use crate::circuit::Circuit;
use crate::compile::{CompiledCircuit, CompiledObservable};
use crate::gate::GateError;
use crate::pauli::PauliSum;
use crate::statevector::StateVector;
use std::fmt;

/// A circuit-execution engine producing expectation values.
///
/// Implementations take `&mut self` so they can reuse scratch buffers
/// across evaluations; they must nevertheless be *stateless with respect to
/// results* — the value returned for a `(circuit, observable)` pair may not
/// depend on prior calls. That invariant is what lets callers batch freely:
/// [`Backend::evaluate_batch`] must agree bit-for-bit with a loop of
/// [`Backend::evaluate`] calls, and a reused backend with a fresh one.
pub trait Backend: Send {
    /// Evaluates `<0| C† H C |0>` for a bound circuit.
    ///
    /// The provided implementation compiles `circuit` as a template plan
    /// (every angle a rebindable slot) and `observable` alongside it, then
    /// runs them through [`Backend::evaluate_plan`] at the circuit's own
    /// angles, so the result is bitwise equal to the plan path. It compiles
    /// on every call: loops should hold a plan instead.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if the circuit has free parameters.
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError> {
        let mut angles = Vec::new();
        // Extract angles first so unbound circuits error before compiling.
        CompiledCircuit::extract_angles(circuit, &mut angles)?;
        let mut plan = CompiledCircuit::compile_template(circuit);
        self.evaluate_plan(&mut plan, &angles, &CompiledObservable::compile(observable))
    }

    /// Evaluates a batch of circuits against one observable, in order.
    ///
    /// The default implementation loops over [`Backend::evaluate`];
    /// implementations may override it to amortize setup, but the results
    /// must stay bitwise identical to the loop.
    ///
    /// # Errors
    ///
    /// The first [`GateError`] encountered, if any circuit is unbound.
    fn evaluate_batch(
        &mut self,
        circuits: &[Circuit],
        observable: &PauliSum,
    ) -> Result<Vec<f64>, GateError> {
        circuits
            .iter()
            .map(|c| self.evaluate(c, observable))
            .collect()
    }

    /// Evaluates a pre-compiled plan at one parameter point: the plan is
    /// rebound in place to `params` and executed against the compiled
    /// observable. This is the hot path — no `Circuit` is bound, no gate
    /// matrices are heap-allocated, no per-term state sweeps run, and
    /// [`StatevectorBackend`] performs no allocation at all once its
    /// scratch state has the plan's width.
    ///
    /// Results must be bitwise identical across implementations for the
    /// same plan and parameters (plan execution is deterministic).
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if `params` is shorter than the
    /// plan's parameter count.
    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError>;

    /// Evaluates a plan at many parameter points, in order. The plan's
    /// residual binding after the call is unspecified. Results are bitwise
    /// identical to a loop of [`Backend::evaluate_plan`] calls.
    ///
    /// # Errors
    ///
    /// The first [`GateError`] encountered.
    fn evaluate_plan_batch(
        &mut self,
        plan: &mut CompiledCircuit,
        points: &[Vec<f64>],
        observable: &CompiledObservable,
    ) -> Result<Vec<f64>, GateError> {
        points
            .iter()
            .map(|p| self.evaluate_plan(plan, p, observable))
            .collect()
    }

    /// Clones into an owned trait object (lets objective structs stay
    /// `Clone` while holding a boxed backend).
    fn clone_box(&self) -> Box<dyn Backend>;

    /// Short engine name for reports and `Debug` output.
    fn name(&self) -> &'static str;
}

impl Clone for Box<dyn Backend> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl fmt::Debug for dyn Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Backend({})", self.name())
    }
}

/// The statevector backend: compiled plans run on one scratch
/// [`StateVector`], allocated on the first evaluation and replaced when the
/// width changes, so a tuning loop performs no amplitude allocation after
/// its first call. Every plan run resets the scratch state, so results
/// never depend on prior calls.
#[derive(Debug, Clone, Default)]
pub struct StatevectorBackend {
    scratch: Option<StateVector>,
}

impl StatevectorBackend {
    /// Creates the backend; the scratch state is allocated lazily.
    pub fn new() -> Self {
        StatevectorBackend::default()
    }
}

/// Adds one execution of `plan`'s per-kernel-class op counts to the
/// `qsim.ops.*` counters. One relaxed load and early-out when telemetry is
/// off; when on, eight atomic adds per execution.
fn record_op_classes(plan: &CompiledCircuit) {
    if !qismet_telemetry::enabled() {
        return;
    }
    let counts = plan.op_class_counts();
    qismet_telemetry::counter!("qsim.ops.one_q").add(counts[0]);
    qismet_telemetry::counter!("qsim.ops.one_q_real").add(counts[1]);
    qismet_telemetry::counter!("qsim.ops.cx").add(counts[2]);
    qismet_telemetry::counter!("qsim.ops.cz").add(counts[3]);
    qismet_telemetry::counter!("qsim.ops.swap").add(counts[4]);
    qismet_telemetry::counter!("qsim.ops.rzz").add(counts[5]);
    qismet_telemetry::counter!("qsim.ops.superop").add(counts[6]);
    qismet_telemetry::counter!("qsim.ops.table").add(counts[7]);
}

impl Backend for StatevectorBackend {
    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        let _span = qismet_telemetry::span!("qsim.evaluate_plan");
        // A hit is an evaluation of an already compiled plan; the miss is
        // booked by the compile itself (see `CompiledCircuit::lower`).
        qismet_telemetry::counter!("qsim.plan_cache.hits").inc();
        plan.rebind(params)?;
        record_op_classes(plan);
        let n = plan.n_qubits();
        // No reset on reuse: the plan run resets the state itself, which
        // lets real-amplitude plans take their `f64` fast path.
        let scratch = match &mut self.scratch {
            Some(sv) if sv.n_qubits() == n => sv,
            slot => slot.insert(StateVector::new(n)),
        };
        plan.run_expectation(scratch, observable)
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "statevector"
    }
}

/// Hands out a new [`StatevectorBackend`] per call. Kept only because the
/// campaign benchmark (`perfbench/`) calls it; everything else uses
/// [`StatevectorBackend::new`].
#[derive(Debug, Clone, Default)]
pub struct BackendPool;

impl BackendPool {
    /// Creates the pool.
    pub fn new() -> Self {
        BackendPool
    }

    /// A new backend. The width is unused: the backend sizes its scratch
    /// state to each plan.
    pub fn backend_for(&self, _n_qubits: usize) -> Box<dyn Backend> {
        Box::new(StatevectorBackend::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qismet_mathkit::rng_from_seed;
    use rand::Rng;

    fn random_circuit(n: usize, seed: u64) -> Circuit {
        let mut rng = rng_from_seed(seed);
        let mut c = Circuit::new(n);
        for layer in 0..6 {
            for q in 0..n {
                c.ry(rng.gen::<f64>() * std::f64::consts::TAU, q);
                c.rz(rng.gen::<f64>() * std::f64::consts::TAU, q);
            }
            for q in 0..n - 1 {
                if (layer + q) % 2 == 0 {
                    c.cx(q, q + 1);
                }
            }
        }
        c
    }

    fn observable(n: usize) -> PauliSum {
        let labels: Vec<(f64, String)> = (0..n - 1)
            .map(|q| {
                let mut label = vec!['I'; n];
                label[q] = 'Z';
                label[q + 1] = 'Z';
                (-1.0, label.into_iter().collect::<String>())
            })
            .collect();
        let refs: Vec<(f64, &str)> = labels.iter().map(|(c, s)| (*c, s.as_str())).collect();
        PauliSum::from_labels(&refs).unwrap()
    }

    #[test]
    fn matches_from_circuit_exactly() {
        let h = observable(5);
        let mut backend = StatevectorBackend::new();
        for seed in 0..8 {
            let c = random_circuit(5, seed);
            let reference = StateVector::from_circuit(&c).unwrap().expectation(&h);
            let fast = backend.evaluate(&c, &h).unwrap();
            assert!(
                (reference - fast).abs() < 1e-12,
                "seed {seed}: reference {reference} vs backend {fast}"
            );
        }
    }

    #[test]
    fn reused_is_bitwise_identical_to_fresh() {
        // A backend reused across calls (scratch state carried over) gives
        // the same floating-point results as a new backend per call, not
        // merely close ones.
        let h = observable(4);
        let mut reused = StatevectorBackend::new();
        for seed in 10..18 {
            let c = random_circuit(4, seed);
            let a = StatevectorBackend::new().evaluate(&c, &h).unwrap();
            let b = reused.evaluate(&c, &h).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn batch_agrees_bitwise_with_singles() {
        let h = observable(4);
        let circuits: Vec<Circuit> = (0..7).map(|s| random_circuit(4, 100 + s)).collect();
        let singles: Vec<f64> = circuits
            .iter()
            .map(|c| StatevectorBackend::new().evaluate(c, &h).unwrap())
            .collect();
        let mut reused: Box<dyn Backend> = Box::new(StatevectorBackend::new());
        for pass in 0..2 {
            let batch = reused.evaluate_batch(&circuits, &h).unwrap();
            assert_eq!(batch.len(), singles.len());
            for (i, (a, b)) in singles.iter().zip(&batch).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pass {pass} circuit {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn plan_evaluation_matches_circuit_evaluation() {
        use crate::gate::Param;
        let h = observable(4);
        let obs = CompiledObservable::compile(&h);
        // A parameterized ansatz evaluated both ways at several points.
        let mut ansatz = Circuit::new(4);
        let mut k = 0usize;
        for _ in 0..3 {
            for q in 0..4 {
                ansatz.ry(Param::Free(k), q);
                k += 1;
            }
            for q in 0..3 {
                ansatz.cx(q, q + 1);
            }
        }
        let mut plan = CompiledCircuit::compile(&ansatz);
        let mut reused = StatevectorBackend::new();
        let mut rng = rng_from_seed(5);
        for _ in 0..6 {
            let params: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let via_plan = reused.evaluate_plan(&mut plan, &params, &obs).unwrap();
            let via_fresh = StatevectorBackend::new()
                .evaluate_plan(&mut plan, &params, &obs)
                .unwrap();
            // Reused and fresh scratch states give bitwise identical plan
            // results.
            assert_eq!(via_plan.to_bits(), via_fresh.to_bits());
            // And both agree with the circuit path.
            let bound = ansatz.bind(&params).unwrap();
            let via_circuit = reused.evaluate(&bound, &h).unwrap();
            assert_eq!(via_plan.to_bits(), via_circuit.to_bits());
        }
    }

    #[test]
    fn plan_batch_agrees_bitwise_with_singles() {
        use crate::gate::Param;
        let h = observable(3);
        let obs = CompiledObservable::compile(&h);
        let mut ansatz = Circuit::new(3);
        for (k, q) in (0..3).enumerate() {
            ansatz.ry(Param::Free(k), q);
        }
        ansatz.cx(0, 1).cx(1, 2);
        let mut rng = rng_from_seed(9);
        let points: Vec<Vec<f64>> = (0..9)
            .map(|_| (0..3).map(|_| rng.gen::<f64>() * 3.0 - 1.5).collect())
            .collect();
        let mut plan = CompiledCircuit::compile(&ansatz);
        let mut backend = StatevectorBackend::new();
        let singles: Vec<f64> = points
            .iter()
            .map(|p| backend.evaluate_plan(&mut plan, p, &obs).unwrap())
            .collect();
        let batch = backend
            .evaluate_plan_batch(&mut plan, &points, &obs)
            .unwrap();
        for (i, (a, b)) in singles.iter().zip(&batch).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "point {i}");
        }
        // Empty plan batches work.
        assert!(backend
            .evaluate_plan_batch(&mut plan, &[], &obs)
            .unwrap()
            .is_empty());
        // A short point in the middle of a batch errors the whole batch.
        let mut short = points.clone();
        short[5] = vec![0.2];
        assert!(backend
            .evaluate_plan_batch(&mut plan, &short, &obs)
            .is_err());
    }

    #[test]
    fn reused_backend_adapts_to_width_changes() {
        // One backend goes through widths 3 -> 5 -> 3 -> 6, first by circuit
        // and then by plan, and matches a new backend bitwise at each step.
        let widths = [3usize, 5, 3, 6];
        let mut reused = StatevectorBackend::new();
        for (step, &n) in widths.iter().enumerate() {
            let c = random_circuit(n, step as u64);
            let h = observable(n);
            let fresh = StatevectorBackend::new().evaluate(&c, &h).unwrap();
            let got = reused.evaluate(&c, &h).unwrap();
            assert_eq!(fresh.to_bits(), got.to_bits(), "evaluate step {step}");
        }
        for (step, &n) in widths.iter().enumerate() {
            let c = random_circuit(n, 10 + step as u64);
            let obs = CompiledObservable::compile(&observable(n));
            let mut plan = CompiledCircuit::compile(&c);
            let fresh = StatevectorBackend::new()
                .evaluate_plan(&mut plan, &[], &obs)
                .unwrap();
            let got = reused.evaluate_plan(&mut plan, &[], &obs).unwrap();
            assert_eq!(fresh.to_bits(), got.to_bits(), "evaluate_plan step {step}");
        }
    }

    #[test]
    fn unbound_circuits_error_through_backends() {
        use crate::gate::Param;
        let mut c = Circuit::new(2);
        c.ry(Param::Free(0), 0);
        let h = observable(2);
        assert!(StatevectorBackend::new().evaluate(&c, &h).is_err());
        assert!(StatevectorBackend::new()
            .evaluate_batch(std::slice::from_ref(&c), &h)
            .is_err());
        // Short parameter vectors error through the plan path.
        let obs = CompiledObservable::compile(&h);
        let mut plan = CompiledCircuit::compile(&c);
        assert!(StatevectorBackend::new()
            .evaluate_plan(&mut plan, &[], &obs)
            .is_err());
    }

    #[test]
    fn empty_batch_is_empty() {
        let h = observable(2);
        let out = StatevectorBackend::new().evaluate_batch(&[], &h).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn boxed_backend_clones_and_debugs() {
        let backend: Box<dyn Backend> = Box::new(StatevectorBackend::new());
        let clone = backend.clone();
        assert_eq!(clone.name(), "statevector");
        assert_eq!(format!("{:?}", &*backend), "Backend(statevector)");
        assert_eq!(BackendPool::new().backend_for(3).name(), "statevector");
    }
}

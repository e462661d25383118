//! The pluggable circuit-execution layer.
//!
//! Everything above this crate evaluates circuits through the [`Backend`]
//! trait instead of constructing simulators directly, which gives the
//! workspace one seam for every execution strategy: the straightforward
//! statevector path, the buffer-reusing cached path, and the mutex-shared
//! and per-width pooled handles campaign executors hand to their runs.
//! QISMET's job structure (paper Fig. 7) maps naturally onto
//! [`Backend::evaluate_batch`]: every circuit of one quantum job is handed
//! to the engine as a single batch.
//!
//! Both statevector backends execute through compiled plans
//! ([`crate::CompiledCircuit`] / [`crate::CompiledObservable`]): each keeps
//! a small plan cache keyed by circuit *structure*, so a tuning loop that
//! evaluates the same ansatz at thousands of angle points compiles once and
//! only rebinds thereafter. Callers that already hold a plan skip the cache
//! entirely via [`Backend::evaluate_plan`], the allocation-free hot path.
//!
//! # Examples
//!
//! ```
//! use qismet_qsim::{Backend, CachedStatevectorBackend, Circuit, PauliSum};
//!
//! let h = PauliSum::from_labels(&[(-1.0, "ZZ"), (-0.5, "XI")]).unwrap();
//! let mut c = Circuit::new(2);
//! c.ry(0.3, 0).ry(0.7, 1).cx(0, 1);
//! let mut backend = CachedStatevectorBackend::new();
//! let single = backend.evaluate(&c, &h).unwrap();
//! let batch = backend.evaluate_batch(std::slice::from_ref(&c), &h).unwrap();
//! assert_eq!(single.to_bits(), batch[0].to_bits());
//! ```

use crate::circuit::Circuit;
use crate::compile::{CompiledCircuit, CompiledObservable};
use crate::gate::GateError;
use crate::pauli::PauliSum;
use crate::statevector::StateVector;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A circuit-execution engine producing expectation values.
///
/// Implementations take `&mut self` so they can reuse scratch buffers
/// across evaluations; they must nevertheless be *stateless with respect to
/// results* — the value returned for a `(circuit, observable)` pair may not
/// depend on prior calls. That invariant is what lets callers batch freely:
/// [`Backend::evaluate_batch`] must agree bit-for-bit with a loop of
/// [`Backend::evaluate`] calls, and pooled/shared backends must agree with
/// fresh ones.
pub trait Backend: Send {
    /// Evaluates `<0| C† H C |0>` for a bound circuit.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if the circuit has free parameters.
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError>;

    /// Evaluates a batch of circuits against one observable, in order.
    ///
    /// The default implementation loops over [`Backend::evaluate`];
    /// implementations may override it to amortize setup or fan out across
    /// threads, but the results must stay bitwise identical to the loop.
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
    /// matrices are heap-allocated, no per-term state sweeps run; with a
    /// scratch-reusing implementation ([`CachedStatevectorBackend`],
    /// [`SharedBackend`]) it performs no allocation at all. The default
    /// implementation still allocates one fresh state per call.
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
    ) -> Result<f64, GateError> {
        plan.rebind(params)?;
        let mut sv = StateVector::new(plan.n_qubits());
        plan.run_expectation(&mut sv, observable)
    }

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

/// Plans and compiled observables retained per backend. Small and scanned
/// linearly: a campaign touches one or two circuit structures and one
/// Hamiltonian, so the match test (an angle-blind structural compare, no
/// allocation) is trivial next to a `2^n` state sweep.
const PLAN_CACHE_CAP: usize = 8;

/// The compile-once, rebind-forever cache both statevector backends share:
/// template plans keyed by circuit structure, compiled observables keyed by
/// the source Hamiltonian, and a reused angle-extraction buffer.
#[derive(Debug, Clone, Default)]
struct PlanCache {
    plans: Vec<CompiledCircuit>,
    observables: Vec<(PauliSum, CompiledObservable)>,
    angles: Vec<f64>,
}

impl PlanCache {
    /// Index of a template plan matching `circuit`'s structure, compiled on
    /// first sight and rebound to the circuit's concrete angles.
    fn plan_for(&mut self, circuit: &Circuit) -> Result<usize, GateError> {
        // Extract angles first so unbound circuits error before any caching.
        CompiledCircuit::extract_angles(circuit, &mut self.angles)?;
        let idx = match self.plans.iter().position(|p| p.matches_structure(circuit)) {
            Some(i) => {
                qismet_telemetry::counter!("qsim.plan_cache.hits").inc();
                i
            }
            None => {
                // The miss is booked by the compile itself (see
                // `CompiledCircuit::lower`), keeping one taxonomy: a hit is
                // a compiled plan reused, a miss is a plan built.
                if self.plans.len() >= PLAN_CACHE_CAP {
                    self.plans.remove(0);
                }
                self.plans.push(CompiledCircuit::compile_template(circuit));
                self.plans.len() - 1
            }
        };
        self.plans[idx].rebind(&self.angles)?;
        Ok(idx)
    }

    /// Index of the compiled observable for `h`, compiling on first sight.
    fn observable_for(&mut self, h: &PauliSum) -> usize {
        match self.observables.iter().position(|(k, _)| k == h) {
            Some(i) => i,
            None => {
                if self.observables.len() >= PLAN_CACHE_CAP {
                    self.observables.remove(0);
                }
                self.observables
                    .push((h.clone(), CompiledObservable::compile(h)));
                self.observables.len() - 1
            }
        }
    }
}

/// The reference backend: a fresh [`StateVector`] per evaluation (no scratch
/// reuse), executing through the same compiled plans as the cached path so
/// the two agree bit for bit.
///
/// Exists as the semantics baseline; prefer [`CachedStatevectorBackend`] in
/// loops.
#[derive(Debug, Clone, Default)]
pub struct StatevectorBackend {
    cache: PlanCache,
}

impl StatevectorBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        StatevectorBackend::default()
    }
}

impl Backend for StatevectorBackend {
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError> {
        let p = self.cache.plan_for(circuit)?;
        let o = self.cache.observable_for(observable);
        let mut sv = StateVector::new(circuit.n_qubits());
        self.cache.plans[p].run_expectation(&mut sv, &self.cache.observables[o].1)
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "statevector"
    }
}

/// The cached fast path: one scratch [`StateVector`] reused (reset in
/// place) across evaluations plus the shared plan cache, so a VQA tuning
/// loop performs zero amplitude allocations and zero recompilations after
/// the first call at a given width.
///
/// Plan execution is the exact kernel sequence of [`StatevectorBackend`],
/// so results agree bitwise with it.
#[derive(Debug, Clone, Default)]
pub struct CachedStatevectorBackend {
    scratch: Option<StateVector>,
    cache: PlanCache,
}

impl CachedStatevectorBackend {
    /// Creates the backend; the scratch buffer is allocated lazily on the
    /// first evaluation.
    pub fn new() -> Self {
        CachedStatevectorBackend::default()
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

/// Runs a bound plan on the scratch state (reset by the plan run itself,
/// which lets real-amplitude plans take their `f64` fast path) and
/// evaluates the compiled observable.
fn execute(
    plan: &CompiledCircuit,
    observable: &CompiledObservable,
    scratch: &mut StateVector,
) -> Result<f64, GateError> {
    record_op_classes(plan);
    plan.run_expectation(scratch, observable)
}

/// The scratch state for `n_qubits`, reusing the buffer when the width
/// matches (no reset — [`execute`] runs plans through
/// [`CompiledCircuit::run`], which resets). A free function over the slot
/// (not a method) so callers can keep disjoint borrows of the backend's
/// plan cache alive.
fn scratch_for(slot: &mut Option<StateVector>, n_qubits: usize) -> &mut StateVector {
    match slot {
        Some(sv) if sv.n_qubits() == n_qubits => {}
        _ => *slot = Some(StateVector::new(n_qubits)),
    }
    slot.as_mut().expect("scratch populated above")
}

impl Backend for CachedStatevectorBackend {
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError> {
        let p = self.cache.plan_for(circuit)?;
        let o = self.cache.observable_for(observable);
        let scratch = scratch_for(&mut self.scratch, circuit.n_qubits());
        execute(&self.cache.plans[p], &self.cache.observables[o].1, scratch)
    }

    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        let _span = qismet_telemetry::span!("qsim.evaluate_plan");
        qismet_telemetry::counter!("qsim.plan_cache.hits").inc();
        plan.rebind(params)?;
        let scratch = scratch_for(&mut self.scratch, plan.n_qubits());
        execute(plan, observable, scratch)
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "cached-statevector"
    }
}

/// A handle to one backend shared behind a mutex: cloning the handle (and
/// [`Backend::clone_box`]) shares the underlying scratch state and plan
/// cache instead of duplicating them. This is what a worker-thread pool
/// hands to the objectives it hosts — every run on the worker reuses the
/// same amplitude buffer and compiled plans. Results are unaffected by the
/// sharing (the [`Backend`] contract: values never depend on prior calls).
#[derive(Debug, Clone, Default)]
pub struct SharedBackend {
    inner: Arc<Mutex<CachedStatevectorBackend>>,
}

impl SharedBackend {
    /// Creates a handle to a fresh cached backend.
    pub fn new() -> Self {
        SharedBackend::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CachedStatevectorBackend> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Backend for SharedBackend {
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError> {
        self.lock().evaluate(circuit, observable)
    }

    fn evaluate_batch(
        &mut self,
        circuits: &[Circuit],
        observable: &PauliSum,
    ) -> Result<Vec<f64>, GateError> {
        self.lock().evaluate_batch(circuits, observable)
    }

    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        self.lock().evaluate_plan(plan, params, observable)
    }

    fn evaluate_plan_batch(
        &mut self,
        plan: &mut CompiledCircuit,
        points: &[Vec<f64>],
        observable: &CompiledObservable,
    ) -> Result<Vec<f64>, GateError> {
        self.lock().evaluate_plan_batch(plan, points, observable)
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "shared-cached-statevector"
    }
}

/// A pool of [`SharedBackend`]s keyed by qubit count, so alternating
/// workloads (4q and 6q runs in one campaign) each keep a stable scratch
/// buffer instead of thrashing a single slot. Campaign executors hold one
/// pool per worker thread (ROADMAP: "cross-run backend sharing").
#[derive(Debug, Clone, Default)]
pub struct BackendPool {
    slots: HashMap<usize, SharedBackend>,
}

impl BackendPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BackendPool::default()
    }

    /// A backend handle for `n_qubits`-wide circuits; all handles for one
    /// width share scratch state and plan cache.
    pub fn backend_for(&mut self, n_qubits: usize) -> Box<dyn Backend> {
        Box::new(self.slots.entry(n_qubits).or_default().clone())
    }

    /// Number of distinct widths the pool currently serves.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no backend has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
    fn cached_matches_from_circuit_exactly() {
        let h = observable(5);
        let mut cached = CachedStatevectorBackend::new();
        for seed in 0..8 {
            let c = random_circuit(5, seed);
            let reference = StateVector::from_circuit(&c).unwrap().expectation(&h);
            let fast = cached.evaluate(&c, &h).unwrap();
            assert!(
                (reference - fast).abs() < 1e-12,
                "seed {seed}: reference {reference} vs cached {fast}"
            );
        }
    }

    #[test]
    fn cached_is_bitwise_identical_to_fresh() {
        // Same compiled-plan execution => same floating-point results,
        // not merely close ones.
        let h = observable(4);
        let mut cached = CachedStatevectorBackend::new();
        let mut fresh = StatevectorBackend::new();
        for seed in 10..18 {
            let c = random_circuit(4, seed);
            let a = fresh.evaluate(&c, &h).unwrap();
            let b = cached.evaluate(&c, &h).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn batch_agrees_bitwise_with_singles() {
        let h = observable(4);
        let circuits: Vec<Circuit> = (0..7).map(|s| random_circuit(4, 100 + s)).collect();
        for backend in [
            Box::new(StatevectorBackend::new()) as Box<dyn Backend>,
            Box::new(CachedStatevectorBackend::new()) as Box<dyn Backend>,
            Box::new(SharedBackend::new()) as Box<dyn Backend>,
        ] {
            let mut one_at_a_time = backend.clone();
            let singles: Vec<f64> = circuits
                .iter()
                .map(|c| one_at_a_time.evaluate(c, &h).unwrap())
                .collect();
            let mut batched = backend.clone();
            let batch = batched.evaluate_batch(&circuits, &h).unwrap();
            assert_eq!(batch.len(), singles.len());
            for (i, (a, b)) in singles.iter().zip(&batch).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} circuit {i}: {a} vs {b}",
                    batched.name()
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
        let mut cached = CachedStatevectorBackend::new();
        let mut fresh = StatevectorBackend::new();
        let mut rng = rng_from_seed(5);
        for _ in 0..6 {
            let params: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let via_plan = cached.evaluate_plan(&mut plan, &params, &obs).unwrap();
            let via_default = fresh.evaluate_plan(&mut plan, &params, &obs).unwrap();
            // Cached (scratch-reusing) and default (fresh-state) plan paths
            // are bitwise identical.
            assert_eq!(via_plan.to_bits(), via_default.to_bits());
            // And both agree with the circuit-based cache path.
            let bound = ansatz.bind(&params).unwrap();
            let via_circuit = cached.evaluate(&bound, &h).unwrap();
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
        let mut backend = CachedStatevectorBackend::new();
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
    fn plan_cache_reuses_across_angle_points() {
        let h = observable(4);
        let mut backend = CachedStatevectorBackend::new();
        for seed in 0..12 {
            // Same structure every time: one template plan serves all calls.
            let c = random_circuit(4, 300 + seed);
            backend.evaluate(&c, &h).unwrap();
        }
        assert_eq!(backend.cache.plans.len(), 1);
        assert_eq!(backend.cache.observables.len(), 1);
        // A structurally different circuit adds a second plan.
        let mut other = Circuit::new(4);
        other.h(0).cx(0, 1);
        backend.evaluate(&other, &h).unwrap();
        assert_eq!(backend.cache.plans.len(), 2);
    }

    #[test]
    fn plan_cache_evicts_at_capacity() {
        let h = observable(2);
        let mut backend = CachedStatevectorBackend::new();
        for depth in 0..(PLAN_CACHE_CAP + 3) {
            let mut c = Circuit::new(2);
            for _ in 0..=depth {
                c.h(0);
            }
            c.cx(0, 1);
            backend.evaluate(&c, &h).unwrap();
        }
        assert!(backend.cache.plans.len() <= PLAN_CACHE_CAP);
    }

    #[test]
    fn shared_backend_shares_state_across_clones() {
        let h = observable(3);
        let mut a = SharedBackend::new();
        let mut b = a.clone();
        let c = random_circuit(3, 41);
        let va = a.evaluate(&c, &h).unwrap();
        let vb = b.evaluate(&c, &h).unwrap();
        assert_eq!(va.to_bits(), vb.to_bits());
        // Both handles hit the same plan cache.
        assert_eq!(a.lock().cache.plans.len(), 1);
    }

    #[test]
    fn backend_pool_hands_out_per_width_backends() {
        let mut pool = BackendPool::new();
        assert!(pool.is_empty());
        let mut b3 = pool.backend_for(3);
        let mut b5 = pool.backend_for(5);
        let mut b3_again = pool.backend_for(3);
        assert_eq!(pool.len(), 2);
        let h3 = observable(3);
        let h5 = observable(5);
        let c3 = random_circuit(3, 1);
        let c5 = random_circuit(5, 2);
        let first = b3.evaluate(&c3, &h3).unwrap();
        let again = b3_again.evaluate(&c3, &h3).unwrap();
        assert_eq!(first.to_bits(), again.to_bits());
        assert!(b5.evaluate(&c5, &h5).unwrap().is_finite());
        // Pool-served results match a fresh unpooled backend bitwise.
        let fresh = CachedStatevectorBackend::new().evaluate(&c3, &h3).unwrap();
        assert_eq!(first.to_bits(), fresh.to_bits());
    }

    #[test]
    fn cached_backend_adapts_to_width_changes() {
        let mut cached = CachedStatevectorBackend::new();
        let h3 = observable(3);
        let h5 = observable(5);
        let c3 = random_circuit(3, 1);
        let c5 = random_circuit(5, 2);
        let a3 = cached.evaluate(&c3, &h3).unwrap();
        let a5 = cached.evaluate(&c5, &h5).unwrap();
        let b3 = cached.evaluate(&c3, &h3).unwrap();
        assert_eq!(a3.to_bits(), b3.to_bits());
        assert!(a5.is_finite());
    }

    #[test]
    fn unbound_circuits_error_through_backends() {
        use crate::gate::Param;
        let mut c = Circuit::new(2);
        c.ry(Param::Free(0), 0);
        let h = observable(2);
        assert!(StatevectorBackend::new().evaluate(&c, &h).is_err());
        assert!(CachedStatevectorBackend::new().evaluate(&c, &h).is_err());
        assert!(CachedStatevectorBackend::new()
            .evaluate_batch(std::slice::from_ref(&c), &h)
            .is_err());
        // Short parameter vectors error through the plan path.
        let obs = CompiledObservable::compile(&h);
        let mut plan = CompiledCircuit::compile(&c);
        assert!(CachedStatevectorBackend::new()
            .evaluate_plan(&mut plan, &[], &obs)
            .is_err());
    }

    #[test]
    fn empty_batch_is_empty() {
        let h = observable(2);
        let out = CachedStatevectorBackend::new()
            .evaluate_batch(&[], &h)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn boxed_backend_clones_and_debugs() {
        let backend: Box<dyn Backend> = Box::new(CachedStatevectorBackend::new());
        let clone = backend.clone();
        assert_eq!(clone.name(), "cached-statevector");
        assert_eq!(format!("{:?}", &*backend), "Backend(cached-statevector)");
    }
}

//! Circuit and observable compilation: the allocation-free hot path.
//!
//! Every VQA campaign is thousands of optimizer iterations, each dominated
//! by objective evaluations of the *same* ansatz at different angles. The
//! interpreted path pays per evaluation for work that only depends on the
//! circuit's structure: binding a fresh [`Circuit`], dispatching gate by
//! gate through an enum match, materializing heap-allocated gate matrices,
//! and sweeping the full state once per Hamiltonian term. This module
//! hoists all of that to compile time:
//!
//! * [`CompiledCircuit`] lowers a [`Circuit`] once into a flat op-list with
//!   fused single-qubit runs and in-place parameter rebinding, so evaluating
//!   a new parameter point recomputes a handful of stack-allocated 2x2
//!   matrices and nothing else.
//! * [`CompiledObservable`] lowers a [`PauliSum`] once into a fused
//!   expectation kernel: all diagonal (Z/I-only) terms are evaluated in one
//!   shared probability sweep, and each off-diagonal term uses precomputed
//!   x/z masks, a hoisted `i^y` phase, and Hermitian pair-skipping (half the
//!   state per term).
//!
//! The legacy per-term kernels are preserved in
//! [`crate::statevector::reference`]; the compiled kernels agree with them
//! to `<= 1e-12` (pinned by the `compiled_equivalence` proptest suite).
//! Gate application itself reuses the exact stride-skipping kernels of
//! [`StateVector`], so two backends executing the same plan produce
//! bit-identical results.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateError, Param};
use crate::kernels::{self, Mat2};
use crate::pauli::PauliSum;
use crate::statevector::StateVector;
use qismet_mathkit::Complex64;

const ID2: Mat2 = [
    [Complex64::ONE, Complex64::ZERO],
    [Complex64::ZERO, Complex64::ONE],
];

/// `a * b` for 2x2 complex matrices, entirely on the stack.
fn mul2(a: &Mat2, b: &Mat2) -> Mat2 {
    [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]
}

/// The 2x2 matrix of a one-qubit gate with free parameters resolved from
/// `params`, built without heap allocation. The entries match
/// [`Gate::matrix`] bit for bit so fused and interpreted execution differ
/// only in multiplication order.
fn gate_mat2(gate: Gate, params: &[f64]) -> Result<Mat2, GateError> {
    use Complex64 as C;
    let angle = |p: Param| -> Result<f64, GateError> {
        match p {
            Param::Fixed(v) => Ok(v),
            Param::Free(k) => params.get(k).copied().ok_or(GateError::UnboundParameter),
        }
    };
    let f = std::f64::consts::FRAC_1_SQRT_2;
    Ok(match gate {
        Gate::H => [
            [C::from_re(f), C::from_re(f)],
            [C::from_re(f), C::from_re(-f)],
        ],
        Gate::X => [[C::ZERO, C::ONE], [C::ONE, C::ZERO]],
        Gate::Y => [[C::ZERO, -C::I], [C::I, C::ZERO]],
        Gate::Z => [[C::ONE, C::ZERO], [C::ZERO, -C::ONE]],
        Gate::S => [[C::ONE, C::ZERO], [C::ZERO, C::I]],
        Gate::Sdg => [[C::ONE, C::ZERO], [C::ZERO, -C::I]],
        Gate::T => [
            [C::ONE, C::ZERO],
            [C::ZERO, C::cis(std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Tdg => [
            [C::ONE, C::ZERO],
            [C::ZERO, C::cis(-std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Sx => [
            [C::new(0.5, 0.5), C::new(0.5, -0.5)],
            [C::new(0.5, -0.5), C::new(0.5, 0.5)],
        ],
        Gate::Rx(p) => {
            let t = angle(p)? / 2.0;
            let (s, c) = t.sin_cos();
            [
                [C::from_re(c), C::new(0.0, -s)],
                [C::new(0.0, -s), C::from_re(c)],
            ]
        }
        Gate::Ry(p) => {
            let t = angle(p)? / 2.0;
            let (s, c) = t.sin_cos();
            [
                [C::from_re(c), C::from_re(-s)],
                [C::from_re(s), C::from_re(c)],
            ]
        }
        Gate::Rz(p) => {
            let t = angle(p)? / 2.0;
            [[C::cis(-t), C::ZERO], [C::ZERO, C::cis(t)]]
        }
        Gate::Phase(p) => [[C::ONE, C::ZERO], [C::ZERO, C::cis(angle(p)?)]],
        Gate::Cx | Gate::Cz | Gate::Swap | Gate::Rzz(_) => {
            unreachable!("two-qubit gate has no 2x2 matrix")
        }
    })
}

/// `true` for gates whose 2x2 matrix is real for **any** angle, so a fused
/// segment of them stays real across every rebinding and can run on the
/// halved-multiply real kernel.
fn gate_is_real(g: Gate) -> bool {
    matches!(g, Gate::H | Gate::X | Gate::Z | Gate::Ry(_))
}

/// Resolves a parameter against the binding vector.
fn param_value(p: Param, values: &[f64]) -> Result<f64, GateError> {
    match p {
        Param::Fixed(v) => Ok(v),
        Param::Free(k) => values.get(k).copied().ok_or(GateError::UnboundParameter),
    }
}

/// Widest qubit support a lowered CX/CZ/SWAP/RZZ ladder table may span
/// (table size `2^s`; 8 qubits = 256 entries — the most a `u8` local
/// configuration index can address, and still L1 resident). The wide cap
/// lets a full linear-entanglement ladder lower into **one** table pass:
/// contiguous supports take the block-permutation kernel, which moves
/// `2^shift`-amplitude blocks instead of gathering single amplitudes.
const LADDER_MAX_QUBITS: usize = 8;

/// Minimum state width for the real-amplitude run mode: below this the
/// thread-local scratch borrow and the complex write-back pass cost more
/// than the halved sweeps save.
const REAL_RUN_MIN_QUBITS: usize = 6;

thread_local! {
    /// Per-thread real-amplitude state for plans where
    /// [`CompiledCircuit::runs_real`] holds: grown on demand, reused across
    /// runs, written back into the caller's [`StateVector`] at the end of
    /// each run.
    static REAL_STATE: core::cell::RefCell<Vec<f64>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// Maximum superoperator support (dense `2^k x 2^k` matrices; k = 3 keeps
/// the 8x8 matrix and its 8-amplitude orbit in registers).
const SUPEROP_MAX_QUBITS: usize = 3;

/// Minimum state width for fusing **parameterized** content into dense
/// superops. A free angle inside a superop makes every rebind pay an
/// `O(gates * 2^2k)` matrix rebuild; below this width the state sweep is so
/// cheap (L1-resident) that the rebuild dominates the objective evaluation,
/// so small plans keep free angles in 2x2 fused segments / specialized RZZ
/// slots instead (trig-only rebinds). Angle-free content (Clifford
/// preludes, fixed-angle circuits) fuses densely at every width — its
/// matrices are built once at compile time.
const DENSE_FUSION_MIN_QUBITS: usize = 12;

/// A constituent gate of a fused superop or ladder table, recorded with
/// **global** qubit indices so rebinding can rebuild the fused form without
/// any local-index bookkeeping (the support set is fixed once lowering
/// finishes, so global -> local translation is stable).
#[derive(Debug, Clone, Copy)]
enum LocalGate {
    /// One-qubit gate on wire `q`.
    OneQ { q: usize, g: Gate },
    /// CX with control `c`, target `t`.
    Cx { c: usize, t: usize },
    /// CZ on `a`, `b`.
    Cz { a: usize, b: usize },
    /// SWAP on `a`, `b`.
    Swap { a: usize, b: usize },
    /// RZZ on `a`, `b` with (possibly free) angle `p`.
    Rzz { a: usize, b: usize, p: Param },
}

impl LocalGate {
    fn is_free(&self) -> bool {
        matches!(
            self,
            LocalGate::OneQ {
                g: Gate::Rx(Param::Free(_))
                    | Gate::Ry(Param::Free(_))
                    | Gate::Rz(Param::Free(_))
                    | Gate::Phase(Param::Free(_)),
                ..
            } | LocalGate::Rzz {
                p: Param::Free(_),
                ..
            }
        )
    }

    fn is_real(&self) -> bool {
        match self {
            LocalGate::OneQ { g, .. } => gate_is_real(*g),
            LocalGate::Cx { .. } | LocalGate::Cz { .. } | LocalGate::Swap { .. } => true,
            LocalGate::Rzz { .. } => false,
        }
    }
}

/// A multi-qubit superoperator: adjacent gates on an overlapping qubit set
/// fused into one dense `2^k x 2^k` matrix (k <= [`SUPEROP_MAX_QUBITS`]),
/// applied in a single cache-blocked gather/scatter sweep.
#[derive(Debug, Clone)]
struct SuperOp {
    /// Support, global qubit indices, ascending.
    qubits: Vec<usize>,
    /// Row-major `2^k x 2^k` matrix over the local basis (local bit `j` =
    /// `qubits[j]`); only the top-left `2^k x 2^k` block of the fixed-size
    /// backing store is used.
    m: [Complex64; 64],
    /// All constituent gates are real-for-any-angle: the apply kernel skips
    /// the imaginary halves of the matrix entries (exact zeros).
    real: bool,
    /// Contains at least one free parameter (rebuilt on rebind).
    free: bool,
    /// Constituents in application order, global qubit indices.
    gates: Vec<LocalGate>,
}

impl SuperOp {
    fn k(&self) -> usize {
        self.qubits.len()
    }

    fn local_bit(&self, q: usize) -> usize {
        let j = self
            .qubits
            .iter()
            .position(|&x| x == q)
            .expect("qubit in superop support");
        1usize << j
    }

    /// Rebuilds the dense matrix from the constituent gates: start from the
    /// identity and absorb each gate as a row operation (butterfly for 1q
    /// gates, row swap/scale for the specialized 2q gates). This is
    /// O(gates * 2^(2k)) — far cheaper than chaining `2^k x 2^k` products —
    /// and allocation-free, which keeps rebinding on the objective hot path.
    fn rebuild(&mut self, values: &[f64]) -> Result<(), GateError> {
        let d = 1usize << self.k();
        self.m = [Complex64::ZERO; 64];
        for r in 0..d {
            self.m[r * d + r] = Complex64::ONE;
        }
        for gi in 0..self.gates.len() {
            match self.gates[gi] {
                LocalGate::OneQ { q, g } => {
                    let u = gate_mat2(g, values)?;
                    let lbit = self.local_bit(q);
                    for r0 in 0..d {
                        if r0 & lbit != 0 {
                            continue;
                        }
                        let r1 = r0 | lbit;
                        for c in 0..d {
                            let x = self.m[r0 * d + c];
                            let y = self.m[r1 * d + c];
                            self.m[r0 * d + c] = u[0][0] * x + u[0][1] * y;
                            self.m[r1 * d + c] = u[1][0] * x + u[1][1] * y;
                        }
                    }
                }
                LocalGate::Cx { c, t } => {
                    let (cbit, tbit) = (self.local_bit(c), self.local_bit(t));
                    for r in 0..d {
                        if r & cbit != 0 && r & tbit == 0 {
                            let r2 = r | tbit;
                            for col in 0..d {
                                self.m.swap(r * d + col, r2 * d + col);
                            }
                        }
                    }
                }
                LocalGate::Cz { a, b } => {
                    let (abit, bbit) = (self.local_bit(a), self.local_bit(b));
                    for r in 0..d {
                        if r & abit != 0 && r & bbit != 0 {
                            for col in 0..d {
                                self.m[r * d + col] = -self.m[r * d + col];
                            }
                        }
                    }
                }
                LocalGate::Swap { a, b } => {
                    let (abit, bbit) = (self.local_bit(a), self.local_bit(b));
                    for r in 0..d {
                        if r & abit != 0 && r & bbit == 0 {
                            let r2 = (r & !abit) | bbit;
                            for col in 0..d {
                                self.m.swap(r * d + col, r2 * d + col);
                            }
                        }
                    }
                }
                LocalGate::Rzz { a, b, p } => {
                    let theta = param_value(p, values)?;
                    let minus = Complex64::cis(-theta / 2.0);
                    let plus = Complex64::cis(theta / 2.0);
                    let (abit, bbit) = (self.local_bit(a), self.local_bit(b));
                    for r in 0..d {
                        let ph = if (r & abit != 0) == (r & bbit != 0) {
                            minus
                        } else {
                            plus
                        };
                        for col in 0..d {
                            self.m[r * d + col] *= ph;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A lowered CX/CZ/SWAP/RZZ ladder: a pure index-permutation + diagonal
/// phase over its local support, precomputed into lookup tables and applied
/// in one sweep instead of one sweep per gate.
#[derive(Debug, Clone)]
struct PermTable {
    /// Support, global qubit indices, ascending.
    qubits: Vec<usize>,
    /// `1 << q` per support qubit, ascending (kernel orbit expansion).
    bits: Vec<usize>,
    /// Amplitude offset of each local configuration.
    offs: Vec<usize>,
    /// `src[l] = pi^-1(l)`: which local config lands on `l`.
    src: Vec<u8>,
    /// Output phase of local config `l`.
    phase: Vec<Complex64>,
    /// `Some(qubits[0])` when the support is a contiguous qubit run
    /// `[k, k+s)`: local config `l` then sits at amplitude offset
    /// `l << k` and every orbit is one contiguous region, so the kernel
    /// permutes `2^k`-amplitude blocks instead of gathering amplitudes
    /// through the `offs` indirection.
    contig_shift: Option<usize>,
    /// Identity permutation (CZ/RZZ-only ladder): in-place phase sweep.
    diagonal: bool,
    /// All phases exactly one (CX/SWAP-only ladder): pure permutation.
    unit: bool,
    /// Contains a free RZZ angle (tables are rebuilt on rebind).
    free: bool,
    /// Constituents in application order, global qubit indices.
    gates: Vec<LocalGate>,
}

impl PermTable {
    fn local_index(&self, q: usize) -> usize {
        self.qubits
            .iter()
            .position(|&x| x == q)
            .expect("qubit in table support")
    }

    /// Recomputes the permutation and phase tables by composing the
    /// constituent gates over the `2^s` local configurations
    /// (`pi' = g o pi`, `phase'(c) = phase(c) * phase_g(pi(c))`), then
    /// inverting into the gather form the kernel consumes.
    fn rebuild(&mut self, values: &[f64]) -> Result<(), GateError> {
        let s = self.qubits.len();
        let size = 1usize << s;
        let mut pi = [0u8; 1 << LADDER_MAX_QUBITS];
        let mut ph = [Complex64::ONE; 1 << LADDER_MAX_QUBITS];
        for (c, slot) in pi.iter_mut().enumerate().take(size) {
            *slot = c as u8;
        }
        ph[..size].fill(Complex64::ONE);
        for gi in 0..self.gates.len() {
            match self.gates[gi] {
                LocalGate::Cx { c, t } => {
                    let (cbit, tbit) = (1u8 << self.local_index(c), 1u8 << self.local_index(t));
                    for x in pi.iter_mut().take(size) {
                        if *x & cbit != 0 {
                            *x ^= tbit;
                        }
                    }
                }
                LocalGate::Swap { a, b } => {
                    let (abit, bbit) = (1u8 << self.local_index(a), 1u8 << self.local_index(b));
                    for x in pi.iter_mut().take(size) {
                        let pa = *x & abit != 0;
                        let pb = *x & bbit != 0;
                        if pa != pb {
                            *x ^= abit | bbit;
                        }
                    }
                }
                LocalGate::Cz { a, b } => {
                    let (abit, bbit) = (1u8 << self.local_index(a), 1u8 << self.local_index(b));
                    for (x, f) in pi.iter().zip(ph.iter_mut()).take(size) {
                        if *x & abit != 0 && *x & bbit != 0 {
                            *f = -*f;
                        }
                    }
                }
                LocalGate::Rzz { a, b, p } => {
                    let theta = param_value(p, values)?;
                    let minus = Complex64::cis(-theta / 2.0);
                    let plus = Complex64::cis(theta / 2.0);
                    let (abit, bbit) = (1u8 << self.local_index(a), 1u8 << self.local_index(b));
                    for (x, f) in pi.iter().zip(ph.iter_mut()).take(size) {
                        *f *= if (*x & abit != 0) == (*x & bbit != 0) {
                            minus
                        } else {
                            plus
                        };
                    }
                }
                LocalGate::OneQ { .. } => unreachable!("ladders hold only 2q perm/phase gates"),
            }
        }
        self.src.resize(size, 0);
        self.phase.resize(size, Complex64::ONE);
        for c in 0..size {
            let l = pi[c] as usize;
            self.src[l] = c as u8;
            self.phase[l] = ph[c];
        }
        self.diagonal = (0..size).all(|c| pi[c] as usize == c);
        self.unit = self.phase[..size].iter().all(|&f| f == Complex64::ONE);
        Ok(())
    }
}

/// One lowered operation of an execution plan.
#[derive(Debug, Clone, Copy)]
enum PlanOp {
    /// A (possibly fused) 2x2 unitary on one qubit.
    OneQ { qubit: usize, u: Mat2 },
    /// A (possibly fused) **real** 2x2 unitary on one qubit — the
    /// `RealAmplitudes`-family fast path (half the multiplies of the
    /// complex butterfly).
    OneQReal { qubit: usize, m: [[f64; 2]; 2] },
    /// Controlled-X.
    Cx { control: usize, target: usize },
    /// Controlled-Z.
    Cz { a: usize, b: usize },
    /// SWAP.
    Swap { a: usize, b: usize },
    /// ZZ interaction with precomputed diagonal phases.
    Rzz {
        a: usize,
        b: usize,
        plus: Complex64,
        minus: Complex64,
    },
    /// Dense k-qubit superoperator; indexes [`CompiledCircuit::supers`].
    Super { idx: usize },
    /// Precomputed permutation + phase ladder table; indexes
    /// [`CompiledCircuit::tables`].
    Table { idx: usize },
}

/// A rebindable slot: plan state that must be recomputed when the free
/// parameter vector changes.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Fused single-qubit segment containing at least one free parameter;
    /// `seg` indexes the plan's constituent-gate lists.
    Fused { op: usize, seg: usize },
    /// RZZ whose angle is the free parameter `param`.
    Rzz { op: usize, param: usize },
    /// Superop containing at least one free angle (matrix rebuilt from its
    /// constituents on rebind).
    Super { idx: usize },
    /// Ladder table containing at least one free RZZ angle.
    Table { idx: usize },
}

/// A fused one-qubit segment accumulated during lowering. Segments stay
/// *unplaced* while pending: a wire's segment only commutes with operations
/// on other wires, so deferring placement until the wire is next touched
/// (or lowering ends) lets an entangler absorb the whole segment into a
/// superop with no identity placeholder left behind.
#[derive(Debug, Clone)]
struct Segment {
    gates: Vec<Gate>,
    free: bool,
}

/// Product of a fused segment's gate matrices (applied left to right),
/// seeded from the first gate so single-gate segments — the common case in
/// hardware-efficient ansatz layers — pay no identity multiply.
fn fused_mat2(gates: &[Gate], values: &[f64]) -> Result<Mat2, GateError> {
    let mut it = gates.iter();
    let mut u = match it.next() {
        Some(g) => gate_mat2(*g, values)?,
        None => ID2,
    };
    for g in it {
        u = mul2(&gate_mat2(*g, values)?, &u);
    }
    Ok(u)
}

/// Writes a fused matrix into a one-qubit plan op, dropping the (exactly
/// zero) imaginary parts when the op uses the real kernel.
fn write_one_q(op: &mut PlanOp, u: &Mat2) {
    match op {
        PlanOp::OneQ { u: slot, .. } => *slot = *u,
        PlanOp::OneQReal { m, .. } => {
            *m = [[u[0][0].re, u[0][1].re], [u[1][0].re, u[1][1].re]];
        }
        _ => unreachable!("not a one-qubit op"),
    }
}

fn kind_tag(g: Gate) -> u8 {
    match g {
        Gate::H => 0,
        Gate::X => 1,
        Gate::Y => 2,
        Gate::Z => 3,
        Gate::S => 4,
        Gate::Sdg => 5,
        Gate::T => 6,
        Gate::Tdg => 7,
        Gate::Sx => 8,
        Gate::Rx(_) => 9,
        Gate::Ry(_) => 10,
        Gate::Rz(_) => 11,
        Gate::Phase(_) => 12,
        Gate::Cx => 13,
        Gate::Cz => 14,
        Gate::Swap => 15,
        Gate::Rzz(_) => 16,
    }
}

/// A [`Circuit`] lowered into a flat, rebindable execution plan.
///
/// Compilation fuses runs of adjacent single-qubit gates on the same wire
/// (gates separated only by operations on *other* wires commute past them)
/// into one 2x2 unitary, precomputes every angle-independent matrix and
/// phase, and records a rebinding recipe for everything that depends on a
/// free parameter. [`CompiledCircuit::rebind`] then re-evaluates only those
/// slots — no heap allocation, no gate re-dispatch — which is what lets a
/// tuning loop evaluate thousands of parameter points for the cost of a few
/// stack 2x2 products each.
///
/// # Examples
///
/// ```
/// use qismet_qsim::{Circuit, CompiledCircuit, Param, StateVector};
///
/// let mut c = Circuit::new(2);
/// c.ry(Param::Free(0), 0).cx(0, 1).ry(Param::Free(1), 1);
/// let mut plan = CompiledCircuit::compile(&c);
/// plan.rebind(&[0.3, 0.7]).unwrap();
/// let mut sv = StateVector::new(2);
/// plan.apply(&mut sv).unwrap();
/// let direct = StateVector::from_circuit(&c.bind(&[0.3, 0.7]).unwrap()).unwrap();
/// assert!(sv.fidelity(&direct) > 1.0 - 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    n_qubits: usize,
    n_params: usize,
    ops: Vec<PlanOp>,
    /// Constituent gates of parameterized fused segments, in application
    /// order (rebind recomputes their product).
    fused_gates: Vec<Vec<Gate>>,
    /// Dense multi-qubit superoperators referenced by [`PlanOp::Super`].
    supers: Vec<SuperOp>,
    /// Permutation/phase ladder tables referenced by [`PlanOp::Table`].
    tables: Vec<PermTable>,
    slots: Vec<Slot>,
    bound: bool,
    source_len: usize,
    /// Structural fingerprint of the source circuit: (kind, q0, q1) per op,
    /// angle-blind. Used by backend plan caches to match circuits that share
    /// a structure.
    key: Vec<(u8, u8, u8)>,
    /// Every op preserves real amplitude vectors **for any parameter
    /// binding** (real 1q segments, CX/CZ/SWAP, real superops, RZZ-free
    /// tables). [`CompiledCircuit::run`] then evolves an `f64` scratch state
    /// from `|0...0>` — half the flops and memory traffic of the complex
    /// sweep — and writes the amplitudes back at the end.
    real_run: bool,
}

/// Working state of the lowering pass.
///
/// Fusion legality is tracked per wire with three facts:
///
/// * `pending[q]` — an unplaced run of one-qubit gates on `q` (commutes
///   with everything on other wires, so placement is deferred).
/// * `wire_super[q]` / `wire_table[q]` — the open superop/ladder that was
///   the last thing to touch `q`, if any.
/// * `last_touch[q]` — `1 +` the plan position of the last *placed* op
///   touching `q` (0 = untouched). A gate may be merged back into an open
///   group `G` at plan position `p` exactly when every operand wire
///   satisfies `last_touch <= p`: all ops placed after `G` are then
///   disjoint from the gate's support, so it commutes back to `G`.
struct Lowering {
    ops: Vec<PlanOp>,
    slots: Vec<Slot>,
    fused_gates: Vec<Vec<Gate>>,
    supers: Vec<SuperOp>,
    super_pos: Vec<usize>,
    tables: Vec<PermTable>,
    table_pos: Vec<usize>,
    pending: Vec<Option<Segment>>,
    wire_super: Vec<Option<usize>>,
    wire_table: Vec<Option<usize>>,
    last_touch: Vec<usize>,
    /// Free-parameter content may enter dense superops (state wide enough
    /// that sweep cost dominates the per-rebind matrix rebuild; see
    /// [`DENSE_FUSION_MIN_QUBITS`]).
    dense_param: bool,
}

impl Lowering {
    fn new(n: usize) -> Self {
        Lowering {
            ops: Vec::new(),
            slots: Vec::new(),
            fused_gates: Vec::new(),
            supers: Vec::new(),
            super_pos: Vec::new(),
            tables: Vec::new(),
            table_pos: Vec::new(),
            pending: (0..n).map(|_| None).collect(),
            wire_super: vec![None; n],
            wire_table: vec![None; n],
            last_touch: vec![0; n],
            dense_param: n >= DENSE_FUSION_MIN_QUBITS,
        }
    }

    /// Places wire `q`'s pending segment at the current end of the plan
    /// (legal: nothing has touched `q` since the segment began).
    fn flush_segment(&mut self, q: usize) {
        let Some(seg) = self.pending[q].take() else {
            return;
        };
        let pos = self.ops.len();
        let real = seg.gates.iter().all(|&g| gate_is_real(g));
        self.ops.push(if real {
            PlanOp::OneQReal {
                qubit: q,
                m: [[1.0, 0.0], [0.0, 1.0]],
            }
        } else {
            PlanOp::OneQ { qubit: q, u: ID2 }
        });
        if seg.free {
            self.slots.push(Slot::Fused {
                op: pos,
                seg: self.fused_gates.len(),
            });
            self.fused_gates.push(seg.gates);
        } else {
            let u = fused_mat2(&seg.gates, &[]).expect("segment has no free parameters");
            write_one_q(&mut self.ops[pos], &u);
        }
        self.last_touch[q] = pos + 1;
    }

    /// Moves wire `q`'s pending segment (if any) into superop `s`.
    fn absorb_segment(&mut self, s: usize, q: usize) {
        let Some(seg) = self.pending[q].take() else {
            return;
        };
        let sup = &mut self.supers[s];
        sup.free |= seg.free;
        for g in seg.gates {
            sup.real &= gate_is_real(g);
            sup.gates.push(LocalGate::OneQ { q, g });
        }
    }

    /// Marks superop `s` as the latest content of wire `q`.
    fn claim_for_super(&mut self, s: usize, q: usize) {
        self.last_touch[q] = self.super_pos[s] + 1;
        self.wire_super[q] = Some(s);
        self.wire_table[q] = None;
    }

    /// Marks ladder `t` as the latest content of wire `q`.
    fn claim_for_table(&mut self, t: usize, q: usize) {
        self.last_touch[q] = self.table_pos[t] + 1;
        self.wire_table[q] = Some(t);
        self.wire_super[q] = None;
    }

    fn two_q_local(g: Gate, a: usize, b: usize) -> LocalGate {
        match g {
            Gate::Cx => LocalGate::Cx { c: a, t: b },
            Gate::Cz => LocalGate::Cz { a, b },
            Gate::Swap => LocalGate::Swap { a, b },
            Gate::Rzz(p) => LocalGate::Rzz { a, b, p },
            _ => unreachable!("two-qubit gates only"),
        }
    }

    fn push_2q_into_super(&mut self, s: usize, g: Gate, a: usize, b: usize) {
        let lg = Self::two_q_local(g, a, b);
        let sup = &mut self.supers[s];
        sup.free |= lg.is_free();
        sup.real &= lg.is_real();
        sup.gates.push(lg);
    }

    fn push_2q_into_table(&mut self, t: usize, g: Gate, a: usize, b: usize) {
        let lg = Self::two_q_local(g, a, b);
        let tab = &mut self.tables[t];
        tab.free |= lg.is_free();
        tab.gates.push(lg);
    }

    fn one_q(&mut self, g: Gate, q: usize) {
        // A wire whose latest content is an open superop feeds the gate
        // straight into the dense matrix: the apply sweep gets it for free.
        // Free angles stay out of small-state superops (rebind economics;
        // see `dense_param`) — the wire leaves its superop instead.
        if let Some(s) = self.wire_super[q] {
            let lg = LocalGate::OneQ { q, g };
            if self.dense_param || !lg.is_free() {
                let sup = &mut self.supers[s];
                sup.free |= lg.is_free();
                sup.real &= lg.is_real();
                sup.gates.push(lg);
                return;
            }
            self.wire_super[q] = None;
        }
        // Ladders hold only permutation/phase gates; the wire leaves its
        // ladder (if any) and accumulates a one-qubit segment instead.
        self.wire_table[q] = None;
        let free = matches!(g.param(), Some(Param::Free(_)));
        match &mut self.pending[q] {
            Some(seg) => {
                seg.gates.push(g);
                seg.free |= free;
            }
            slot @ None => {
                *slot = Some(Segment {
                    gates: vec![g],
                    free,
                })
            }
        }
    }

    /// Whether wire `q`'s pending segment carries a free parameter.
    fn pending_free(&self, q: usize) -> bool {
        self.pending[q].as_ref().is_some_and(|seg| seg.free)
    }

    fn two_q(&mut self, g: Gate, a: usize, b: usize) {
        // Free angles stay out of small-state superops (rebind economics;
        // see `dense_param`).
        let free_2q = matches!(g, Gate::Rzz(Param::Free(_)));
        // 1. Both wires current in the same open superop: extend it.
        if let (Some(sa), Some(sb)) = (self.wire_super[a], self.wire_super[b]) {
            if sa == sb && (self.dense_param || !free_2q) {
                self.push_2q_into_super(sa, g, a, b);
                return;
            }
        }
        // 2. One wire current in a superop that can legally take the other:
        //    the `last_touch` test proves every op placed since the superop
        //    opened is disjoint from the joining wire, so the gate (and the
        //    joining wire's still-pending segment) commutes back into it.
        for (wa, wb) in [(a, b), (b, a)] {
            let Some(s) = self.wire_super[wa] else {
                continue;
            };
            if !self.dense_param && (free_2q || self.pending_free(wb)) {
                continue;
            }
            let in_support = self.supers[s].qubits.contains(&wb);
            let fits = in_support || self.supers[s].k() < SUPEROP_MAX_QUBITS;
            if fits && self.last_touch[wb] <= self.super_pos[s] {
                if !in_support {
                    let qs = &mut self.supers[s].qubits;
                    let at = qs.partition_point(|&x| x < wb);
                    qs.insert(at, wb);
                }
                self.absorb_segment(s, wb);
                self.push_2q_into_super(s, g, a, b);
                self.claim_for_super(s, wb);
                return;
            }
        }
        // 3. A pending segment on either wire seeds a fresh superop (the
        //    dense matrix absorbs the segment's gates for free). On small
        //    states free-parameter segments stay 2x2 rebind slots instead:
        //    place them here and let the entangler open a ladder below.
        if self.pending[a].is_some() || self.pending[b].is_some() {
            let adds_free = free_2q || self.pending_free(a) || self.pending_free(b);
            if self.dense_param || !adds_free {
                let idx = self.supers.len();
                let pos = self.ops.len();
                self.ops.push(PlanOp::Super { idx });
                self.supers.push(SuperOp {
                    qubits: if a < b { vec![a, b] } else { vec![b, a] },
                    m: [Complex64::ZERO; 64],
                    real: true,
                    free: false,
                    gates: Vec::new(),
                });
                self.super_pos.push(pos);
                self.absorb_segment(idx, a);
                self.absorb_segment(idx, b);
                self.push_2q_into_super(idx, g, a, b);
                self.claim_for_super(idx, a);
                self.claim_for_super(idx, b);
                return;
            }
            // Place every free pending segment now — each still commutes to
            // this position — so the ladder opened below can keep growing
            // across wires without later segment placements blocking the
            // `last_touch` legality test mid-ladder.
            for q in 0..self.pending.len() {
                if self.pending_free(q) {
                    self.flush_segment(q);
                }
            }
            self.flush_segment(a);
            self.flush_segment(b);
        }
        // 4. Pure entangler ladders: extend the open ladder when legal.
        if let (Some(ta), Some(tb)) = (self.wire_table[a], self.wire_table[b]) {
            if ta == tb {
                self.push_2q_into_table(ta, g, a, b);
                return;
            }
        }
        for (wa, wb) in [(a, b), (b, a)] {
            let Some(t) = self.wire_table[wa] else {
                continue;
            };
            let in_support = self.tables[t].qubits.contains(&wb);
            let fits = in_support || self.tables[t].qubits.len() < LADDER_MAX_QUBITS;
            if fits && self.last_touch[wb] <= self.table_pos[t] {
                if !in_support {
                    let qs = &mut self.tables[t].qubits;
                    let at = qs.partition_point(|&x| x < wb);
                    qs.insert(at, wb);
                }
                self.push_2q_into_table(t, g, a, b);
                self.claim_for_table(t, wb);
                return;
            }
        }
        // 5. Open a fresh ladder.
        let idx = self.tables.len();
        let pos = self.ops.len();
        self.ops.push(PlanOp::Table { idx });
        self.tables.push(PermTable {
            qubits: if a < b { vec![a, b] } else { vec![b, a] },
            bits: Vec::new(),
            offs: Vec::new(),
            src: Vec::new(),
            phase: Vec::new(),
            contig_shift: None,
            diagonal: false,
            unit: false,
            free: false,
            gates: Vec::new(),
        });
        self.table_pos.push(pos);
        self.push_2q_into_table(idx, g, a, b);
        self.claim_for_table(idx, a);
        self.claim_for_table(idx, b);
    }

    /// Flushes pending segments and finalizes every fused group: non-free
    /// superops/tables are built now, free ones become rebind slots, and
    /// single-gate ladders fall back to the specialized per-gate kernels.
    #[allow(clippy::type_complexity)]
    fn finish(
        mut self,
    ) -> (
        Vec<PlanOp>,
        Vec<Slot>,
        Vec<Vec<Gate>>,
        Vec<SuperOp>,
        Vec<PermTable>,
    ) {
        for q in 0..self.pending.len() {
            self.flush_segment(q);
        }
        for (idx, sup) in self.supers.iter_mut().enumerate() {
            if sup.free {
                self.slots.push(Slot::Super { idx });
            } else {
                sup.rebuild(&[]).expect("superop has no free parameters");
            }
        }
        for (idx, tab) in self.tables.iter_mut().enumerate() {
            if tab.gates.len() == 1 {
                // A ladder that never grew lowers to the specialized
                // single-gate kernel (cheaper than a table gather).
                let pos = self.table_pos[idx];
                self.ops[pos] = match tab.gates[0] {
                    LocalGate::Cx { c, t } => PlanOp::Cx {
                        control: c,
                        target: t,
                    },
                    LocalGate::Cz { a, b } => PlanOp::Cz { a, b },
                    LocalGate::Swap { a, b } => PlanOp::Swap { a, b },
                    LocalGate::Rzz { a, b, p } => match p {
                        Param::Fixed(theta) => PlanOp::Rzz {
                            a,
                            b,
                            plus: Complex64::cis(theta / 2.0),
                            minus: Complex64::cis(-theta / 2.0),
                        },
                        Param::Free(k) => {
                            self.slots.push(Slot::Rzz { op: pos, param: k });
                            PlanOp::Rzz {
                                a,
                                b,
                                plus: Complex64::ONE,
                                minus: Complex64::ONE,
                            }
                        }
                    },
                    LocalGate::OneQ { .. } => unreachable!("ladders hold only 2q gates"),
                };
                continue;
            }
            tab.bits = tab.qubits.iter().map(|&q| 1usize << q).collect();
            let size = 1usize << tab.qubits.len();
            let mut offs = Vec::with_capacity(size);
            for l in 0..size {
                let mut off = 0usize;
                for (j, &bit) in tab.bits.iter().enumerate() {
                    if l >> j & 1 == 1 {
                        off += bit;
                    }
                }
                offs.push(off);
            }
            tab.offs = offs;
            tab.contig_shift = tab
                .qubits
                .windows(2)
                .all(|w| w[1] == w[0] + 1)
                .then(|| tab.qubits[0]);
            if tab.free {
                self.slots.push(Slot::Table { idx });
            } else {
                tab.rebuild(&[]).expect("table has no free parameters");
            }
        }
        (
            self.ops,
            self.slots,
            self.fused_gates,
            self.supers,
            self.tables,
        )
    }
}

impl CompiledCircuit {
    /// Lowers a circuit, keeping its free-parameter slots (`Param::Free(k)`
    /// reads `params[k]` at [`CompiledCircuit::rebind`] time). Fixed angles
    /// are baked in at compile time.
    pub fn compile(circuit: &Circuit) -> Self {
        Self::lower(circuit, false)
    }

    /// Lowers a circuit treating **every** gate angle — fixed or free — as a
    /// rebindable slot, numbered in traversal order. Combined with
    /// [`CompiledCircuit::extract_angles`] this lets one plan serve every
    /// bound circuit that shares a structure (the backend plan-cache path).
    pub fn compile_template(circuit: &Circuit) -> Self {
        Self::lower(circuit, true)
    }

    /// Per-kernel-class op counts for this plan, in a fixed order:
    /// `[one_q, one_q_real, cx, cz, swap, rzz, super, table]`. Feeds the
    /// `qsim.ops.*` telemetry counters; only called on the enabled path.
    pub(crate) fn op_class_counts(&self) -> [u64; 8] {
        let mut c = [0u64; 8];
        for op in &self.ops {
            let k = match op {
                PlanOp::OneQ { .. } => 0,
                PlanOp::OneQReal { .. } => 1,
                PlanOp::Cx { .. } => 2,
                PlanOp::Cz { .. } => 3,
                PlanOp::Swap { .. } => 4,
                PlanOp::Rzz { .. } => 5,
                PlanOp::Super { .. } => 6,
                PlanOp::Table { .. } => 7,
            };
            c[k] += 1;
        }
        c
    }

    fn lower(circuit: &Circuit, template: bool) -> Self {
        // One taxonomy across every evaluation path: compiling a plan is
        // the plan-cache *miss*; evaluating a previously compiled plan
        // (structure-cache match or `evaluate_plan` on an externally held
        // plan) is the *hit*.
        qismet_telemetry::counter!("qsim.plans_compiled").inc();
        qismet_telemetry::counter!("qsim.plan_cache.misses").inc();
        let n = circuit.n_qubits();
        let mut key = Vec::with_capacity(circuit.len());
        let mut next_slot = 0usize;
        // In template mode every parameterized gate's angle becomes the next
        // numbered slot; otherwise free indices pass through unchanged.
        let mut remap = |g: Gate| -> Gate {
            if !template {
                return g;
            }
            if g.is_parameterized() {
                let slot = Param::Free(next_slot);
                next_slot += 1;
                match g {
                    Gate::Rx(_) => Gate::Rx(slot),
                    Gate::Ry(_) => Gate::Ry(slot),
                    Gate::Rz(_) => Gate::Rz(slot),
                    Gate::Phase(_) => Gate::Phase(slot),
                    Gate::Rzz(_) => Gate::Rzz(slot),
                    _ => unreachable!(),
                }
            } else {
                g
            }
        };
        let mut lw = Lowering::new(n);
        for op in circuit.ops() {
            let g = remap(op.gate);
            key.push((kind_tag(g), op.qubits[0] as u8, op.qubits[1] as u8));
            if g.arity() == 1 {
                lw.one_q(g, op.qubits[0]);
            } else {
                lw.two_q(g, op.qubits[0], op.qubits[1]);
            }
        }
        let (ops, slots, fused_gates, supers, tables) = lw.finish();
        let n_params = if template {
            next_slot
        } else {
            circuit.n_params()
        };
        let real_run = ops.iter().all(|op| match *op {
            PlanOp::OneQReal { .. }
            | PlanOp::Cx { .. }
            | PlanOp::Cz { .. }
            | PlanOp::Swap { .. } => true,
            PlanOp::OneQ { .. } | PlanOp::Rzz { .. } => false,
            PlanOp::Super { idx } => supers[idx].real,
            PlanOp::Table { idx } => tables[idx]
                .gates
                .iter()
                .all(|g| !matches!(g, LocalGate::Rzz { .. })),
        });
        CompiledCircuit {
            n_qubits: n,
            n_params,
            bound: n_params == 0,
            source_len: circuit.len(),
            ops,
            fused_gates,
            supers,
            tables,
            slots,
            key,
            real_run,
        }
    }

    /// Circuit width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of free parameter slots.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Lowered op count (after fusion).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the plan contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Gate count of the source circuit (before fusion).
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// `true` once every parameterized slot holds concrete values (always
    /// true for parameter-free circuits; otherwise set by the first
    /// successful [`CompiledCircuit::rebind`]).
    pub fn is_bound(&self) -> bool {
        self.bound
    }

    /// `true` when `circuit` has the same structure (gate kinds and
    /// operands, angles ignored) as the circuit this plan was compiled
    /// from — i.e. a template-mode plan can serve it via
    /// [`CompiledCircuit::rebind`] with its extracted angles.
    pub fn matches_structure(&self, circuit: &Circuit) -> bool {
        circuit.n_qubits() == self.n_qubits
            && circuit.len() == self.key.len()
            && circuit
                .ops()
                .iter()
                .zip(&self.key)
                .all(|(op, k)| *k == (kind_tag(op.gate), op.qubits[0] as u8, op.qubits[1] as u8))
    }

    /// Collects the concrete angle of every parameterized gate of `circuit`
    /// in traversal order into `out` (cleared first) — the parameter vector
    /// a template-mode plan of matching structure expects.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if any gate still carries a free
    /// parameter.
    pub fn extract_angles(circuit: &Circuit, out: &mut Vec<f64>) -> Result<(), GateError> {
        out.clear();
        for op in circuit.ops() {
            if let Some(p) = op.gate.param() {
                out.push(p.value().ok_or(GateError::UnboundParameter)?);
            }
        }
        Ok(())
    }

    /// Recomputes every parameter-dependent slot from `values`, in place —
    /// no allocation, no gate re-dispatch.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if `values` is shorter than
    /// [`CompiledCircuit::n_params`]; the plan keeps its previous binding.
    pub fn rebind(&mut self, values: &[f64]) -> Result<(), GateError> {
        if values.len() < self.n_params {
            return Err(GateError::UnboundParameter);
        }
        let CompiledCircuit {
            ops,
            fused_gates,
            supers,
            tables,
            slots,
            ..
        } = self;
        for slot in slots.iter() {
            match *slot {
                Slot::Fused { op, seg } => {
                    let u = fused_mat2(&fused_gates[seg], values)?;
                    write_one_q(&mut ops[op], &u);
                }
                Slot::Rzz { op, param } => {
                    let theta = values[param];
                    if let PlanOp::Rzz { plus, minus, .. } = &mut ops[op] {
                        *plus = Complex64::cis(theta / 2.0);
                        *minus = Complex64::cis(-theta / 2.0);
                    }
                }
                Slot::Super { idx } => supers[idx].rebuild(values)?,
                Slot::Table { idx } => tables[idx].rebuild(values)?,
            }
        }
        self.bound = true;
        Ok(())
    }

    /// Applies the plan to a state in place (the state is **not** reset
    /// first; see [`CompiledCircuit::run`]).
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if the plan has unbound slots.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn apply(&self, sv: &mut StateVector) -> Result<(), GateError> {
        if !self.bound {
            return Err(GateError::UnboundParameter);
        }
        assert_eq!(
            sv.n_qubits(),
            self.n_qubits,
            "plan width must match state width"
        );
        let amps = sv.amps_mut();
        for op in &self.ops {
            self.apply_op(op, amps);
        }
        Ok(())
    }

    /// Applies one lowered op to the full amplitude slice.
    fn apply_op(&self, op: &PlanOp, amps: &mut [Complex64]) {
        match *op {
            PlanOp::OneQ { qubit, ref u } => kernels::apply_1q(amps, u, 1usize << qubit),
            PlanOp::OneQReal { qubit, ref m } => kernels::apply_1q_real(amps, m, 1usize << qubit),
            PlanOp::Cx { control, target } => {
                kernels::apply_cx(amps, 1usize << control, 1usize << target)
            }
            PlanOp::Cz { a, b } => kernels::apply_cz(amps, 1usize << a, 1usize << b),
            PlanOp::Swap { a, b } => kernels::apply_swap(amps, 1usize << a, 1usize << b),
            PlanOp::Rzz { a, b, plus, minus } => {
                kernels::apply_rzz_phases(amps, minus, plus, 1usize << a, 1usize << b)
            }
            PlanOp::Super { idx } => {
                let sup = &self.supers[idx];
                let q = &sup.qubits;
                if sup.k() == 2 {
                    kernels::apply_super2(
                        amps,
                        &sup.m[..16],
                        1usize << q[0],
                        1usize << q[1],
                        sup.real,
                    );
                } else {
                    kernels::apply_super3(
                        amps,
                        &sup.m[..64],
                        1usize << q[0],
                        1usize << q[1],
                        1usize << q[2],
                        sup.real,
                    );
                }
            }
            PlanOp::Table { idx } => {
                let t = &self.tables[idx];
                if let Some(shift) = t.contig_shift {
                    kernels::apply_table_contig(amps, shift, &t.src, &t.phase, t.diagonal, t.unit);
                } else {
                    kernels::apply_table(
                        amps, &t.bits, &t.offs, &t.src, &t.phase, t.diagonal, t.unit,
                    );
                }
            }
        }
    }

    /// `true` when every op preserves real amplitude vectors for any
    /// parameter binding, so [`CompiledCircuit::run`] evolves an `f64`
    /// scratch state instead of the complex one (half the flops and memory
    /// traffic). Hardware-efficient `RealAmplitudes`-family ansatz circuits
    /// — Ry rotations plus CX/CZ/SWAP entanglers — always qualify.
    pub fn runs_real(&self) -> bool {
        self.real_run
    }

    /// Real twin of [`CompiledCircuit::apply_op`]: one lowered op on an
    /// `f64` amplitude slice. Only called on plans where
    /// [`CompiledCircuit::runs_real`] holds, which excludes the complex op
    /// kinds by construction.
    fn apply_op_real(&self, op: &PlanOp, amps: &mut [f64]) {
        match *op {
            PlanOp::OneQReal { qubit, ref m } => {
                kernels::apply_1q_real_f64(amps, m, 1usize << qubit)
            }
            PlanOp::Cx { control, target } => {
                kernels::apply_cx(amps, 1usize << control, 1usize << target)
            }
            PlanOp::Cz { a, b } => kernels::apply_cz(amps, 1usize << a, 1usize << b),
            PlanOp::Swap { a, b } => kernels::apply_swap(amps, 1usize << a, 1usize << b),
            PlanOp::Super { idx } => {
                let sup = &self.supers[idx];
                let q = &sup.qubits;
                if sup.k() == 2 {
                    kernels::apply_super2_f64(amps, &sup.m[..16], 1usize << q[0], 1usize << q[1]);
                } else {
                    kernels::apply_super3_f64(
                        amps,
                        &sup.m[..64],
                        1usize << q[0],
                        1usize << q[1],
                        1usize << q[2],
                    );
                }
            }
            PlanOp::Table { idx } => {
                let t = &self.tables[idx];
                if let Some(shift) = t.contig_shift {
                    kernels::apply_table_contig_f64(
                        amps, shift, &t.src, &t.phase, t.diagonal, t.unit,
                    );
                } else {
                    kernels::apply_table_f64(
                        amps, &t.bits, &t.offs, &t.src, &t.phase, t.diagonal, t.unit,
                    );
                }
            }
            PlanOp::OneQ { .. } | PlanOp::Rzz { .. } => {
                unreachable!("complex op in a real-run plan")
            }
        }
    }

    /// Borrows the per-thread real-state scratch sized for this plan, runs
    /// `f` on it (initialized to `|0...0>`), and writes the evolved real
    /// amplitudes back into `sv`.
    fn run_real_with<R>(
        &self,
        sv: &mut StateVector,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> Result<R, GateError> {
        if !self.bound {
            return Err(GateError::UnboundParameter);
        }
        assert_eq!(
            sv.n_qubits(),
            self.n_qubits,
            "plan width must match state width"
        );
        Ok(REAL_STATE.with(|cell| {
            let mut r = cell.borrow_mut();
            let dim = 1usize << self.n_qubits;
            r.clear();
            r.resize(dim, 0.0);
            r[0] = 1.0;
            let out = f(&mut r);
            for (a, &x) in sv.amps_mut().iter_mut().zip(r.iter()) {
                *a = Complex64::new(x, 0.0);
            }
            out
        }))
    }

    /// Resets `sv` to `|0...0>` and applies the plan — the zero-allocation
    /// equivalent of [`StateVector::from_circuit`] on a reused buffer.
    ///
    /// Plans where [`CompiledCircuit::runs_real`] holds take the
    /// real-amplitude fast path; [`CompiledCircuit::apply`], which must
    /// accept arbitrary (complex) starting states, never does.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if the plan has unbound slots.
    pub fn run(&self, sv: &mut StateVector) -> Result<(), GateError> {
        if self.real_run && self.n_qubits >= REAL_RUN_MIN_QUBITS {
            return self.run_real_with(sv, |r| {
                for op in &self.ops {
                    self.apply_op_real(op, r);
                }
            });
        }
        sv.reset();
        self.apply(sv)
    }

    /// [`CompiledCircuit::run`] followed by
    /// [`CompiledObservable::expectation`], fused so real-run plans compute
    /// the energy **on the `f64` state** before the complex write-back —
    /// half the expectation sweep's memory traffic. The returned value is
    /// bitwise identical to the two-call sequence: every dropped product
    /// has an exactly-zero imaginary factor, and adding `±0.0` to the
    /// accumulator lanes (which never hold `-0.0`) cannot change their
    /// bits. `sv` still holds the evolved state afterwards.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if the plan has unbound slots.
    ///
    /// # Panics
    ///
    /// Panics on plan/state/observable width mismatch.
    pub fn run_expectation(
        &self,
        sv: &mut StateVector,
        obs: &CompiledObservable,
    ) -> Result<f64, GateError> {
        assert_eq!(obs.n_qubits(), self.n_qubits, "observable width");
        if self.real_run && self.n_qubits >= REAL_RUN_MIN_QUBITS {
            return self.run_real_with(sv, |r| {
                for op in &self.ops {
                    self.apply_op_real(op, r);
                }
                obs.expectation_real(r)
            });
        }
        sv.reset();
        self.apply(sv)?;
        Ok(obs.expectation(sv))
    }

    /// Runs the plan on a freshly allocated zero state.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if the plan has unbound slots.
    pub fn state(&self) -> Result<StateVector, GateError> {
        let mut sv = StateVector::new(self.n_qubits);
        self.run(&mut sv)?;
        Ok(sv)
    }
}

/// Diagonal-weight tables are only materialized up to this width (beyond it
/// the table would rival the state vector itself in memory; the fused sweep
/// then falls back to recomputing signs per index, still in one pass).
const DIAG_TABLE_MAX_QUBITS: usize = 16;

/// One off-diagonal (X/Y-carrying) term of a compiled observable.
#[derive(Debug, Clone, Copy)]
struct OffDiagTerm {
    /// `2 * coeff * sign(i^y)` — the `i^y` global phase and the Hermitian
    /// pair doubling, hoisted out of the sweep entirely.
    prefactor: f64,
    /// `true` when the term has an odd number of Y factors (the pair sum
    /// then lives in the imaginary part).
    use_im: bool,
    x_mask: usize,
    z_mask: usize,
    /// Lowest set bit of `x_mask`: enumerating indices with this bit clear
    /// visits each `(c, c ^ x_mask)` pair exactly once.
    pair_bit: usize,
}

/// A [`PauliSum`] compiled into a fused expectation kernel.
///
/// Diagonal terms (Z/I-only, including the identity offset) are folded into
/// a single per-basis weight table evaluated in **one** probability sweep;
/// each off-diagonal term sweeps only half the state (Hermitian pairing)
/// with its `i^y` phase and sign masks precomputed. Replaces the legacy
/// one-full-sweep-per-term kernel kept in [`crate::statevector::reference`].
///
/// # Examples
///
/// ```
/// use qismet_qsim::{Circuit, CompiledObservable, PauliSum, StateVector};
///
/// let h = PauliSum::from_labels(&[(1.0, "XIX"), (1.0, "ZZI")]).unwrap();
/// let obs = CompiledObservable::compile(&h);
/// let mut c = Circuit::new(3);
/// c.ry(0.4, 0).cx(0, 1).ry(1.1, 2);
/// let sv = StateVector::from_circuit(&c).unwrap();
/// assert!((obs.expectation(&sv) - sv.expectation(&h)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledObservable {
    n_qubits: usize,
    n_terms: usize,
    /// `(coeff, z_mask)` of diagonal terms; used directly when the weight
    /// table is too wide to materialize.
    diag: Vec<(f64, usize)>,
    /// Per-basis-index diagonal weight `w[c] = sum_j c_j (-1)^{|c & z_j|}`.
    diag_table: Option<Vec<f64>>,
    offdiag: Vec<OffDiagTerm>,
}

impl CompiledObservable {
    /// Compiles the fused kernel for `h`.
    pub fn compile(h: &PauliSum) -> Self {
        let mut diag = Vec::new();
        let mut offdiag = Vec::new();
        for (c, s) in h.terms() {
            let x = s.x_mask() as usize;
            let z = s.z_mask() as usize;
            if x == 0 {
                diag.push((*c, z));
            } else {
                let y = s.y_count();
                // i^y, folded with the Hermitian pair structure: even y keeps
                // the real part (sign -1 for y % 4 == 2), odd y keeps the
                // imaginary part (sign -1 for y % 4 == 1).
                let sign = match y % 4 {
                    0 | 3 => 1.0,
                    _ => -1.0,
                };
                offdiag.push(OffDiagTerm {
                    prefactor: 2.0 * c * sign,
                    use_im: y % 2 == 1,
                    x_mask: x,
                    z_mask: z,
                    pair_bit: x & x.wrapping_neg(),
                });
            }
        }
        let diag_table = if !diag.is_empty() && h.n_qubits() <= DIAG_TABLE_MAX_QUBITS {
            let dim = 1usize << h.n_qubits();
            let mut w = vec![0.0f64; dim];
            for (c, wc) in w.iter_mut().enumerate() {
                for &(coeff, z) in &diag {
                    *wc += if (c & z).count_ones() % 2 == 0 {
                        coeff
                    } else {
                        -coeff
                    };
                }
            }
            Some(w)
        } else {
            None
        };
        CompiledObservable {
            n_qubits: h.n_qubits(),
            n_terms: h.terms().len(),
            diag,
            diag_table,
            offdiag,
        }
    }

    /// Observable width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of source Hamiltonian terms.
    pub fn n_terms(&self) -> usize {
        self.n_terms
    }

    /// Number of diagonal (Z/I-only) terms fused into the probability sweep.
    pub fn n_diagonal_terms(&self) -> usize {
        self.diag.len()
    }

    /// Diagonal contribution of one cache-block of amplitudes starting at
    /// global index `start`.
    fn diag_block(&self, amps: &[Complex64], start: usize) -> f64 {
        let mut acc = 0.0;
        if let Some(w) = &self.diag_table {
            // Four independent accumulator lanes break the FP-add latency
            // chain (the sweep is otherwise serialized on one add per
            // amplitude). The lane partition is fixed by index, so every
            // sweep adds identical partials in identical order.
            let ws = &w[start..start + amps.len()];
            let mut lanes = [0.0f64; 4];
            let mut ac = amps.chunks_exact(4);
            let mut wc = ws.chunks_exact(4);
            for (a4, w4) in (&mut ac).zip(&mut wc) {
                for k in 0..4 {
                    lanes[k] += a4[k].norm_sqr() * w4[k];
                }
            }
            for (a, wv) in ac.remainder().iter().zip(wc.remainder()) {
                lanes[0] += a.norm_sqr() * wv;
            }
            acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        } else {
            for (i, a) in amps.iter().enumerate() {
                let c = start + i;
                let p = a.norm_sqr();
                for &(coeff, z) in &self.diag {
                    acc += if (c & z).count_ones().is_multiple_of(2) {
                        coeff * p
                    } else {
                        -coeff * p
                    };
                }
            }
        }
        acc
    }

    /// One off-diagonal term over the pair-index block `[p0, p1)`.
    ///
    /// Pair index `p` enumerates the Hermitian pairs `(c, c ^ x_mask)`
    /// exactly once by inserting a zero at the term's lowest X bit:
    /// `c = (p & (b-1)) | ((p & !(b-1)) << 1)` — the same visit order as a
    /// flat sweep skipping indices with that bit set.
    fn offdiag_block(t: &OffDiagTerm, amps: &[Complex64], p0: usize, p1: usize) -> f64 {
        let low = t.pair_bit - 1;
        // Four independent accumulator lanes (round-robin over pair
        // indices) break the FP-add latency chain; the lane partition is
        // fixed, so the sum is deterministic.
        let mut lanes = [0.0f64; 4];
        if t.z_mask == 0 && !t.use_im {
            // Pure-X term (no Y, no Z): every pair contributes with the
            // same sign, and only the real part of conj(a_d) * a_c is
            // needed — a two-multiply inner loop.
            if t.pair_bit >= 8 {
                // Within a run of pair indices sharing their high bits, both
                // pair members advance linearly (`c0 + i` and
                // `(c0 ^ x_mask) + i`), so the sweep walks two contiguous
                // slices and the loads pack.
                let mut p = p0;
                while p < p1 {
                    let c0 = (p & low) | ((p & !low) << 1);
                    let run = (t.pair_bit - (p & low)).min(p1 - p);
                    let a = &amps[c0..c0 + run];
                    let d = &amps[c0 ^ t.x_mask..][..run];
                    let mut ac = a.chunks_exact(4);
                    let mut dc = d.chunks_exact(4);
                    for (a4, d4) in (&mut ac).zip(&mut dc) {
                        for k in 0..4 {
                            lanes[k] += d4[k].re * a4[k].re + d4[k].im * a4[k].im;
                        }
                    }
                    for (av, dv) in ac.remainder().iter().zip(dc.remainder()) {
                        lanes[0] += dv.re * av.re + dv.im * av.im;
                    }
                    p += run;
                }
            } else {
                let mut p = p0;
                while p + 4 <= p1 {
                    for (k, lane) in lanes.iter_mut().enumerate() {
                        let c = ((p + k) & low) | (((p + k) & !low) << 1);
                        let d = amps[c ^ t.x_mask];
                        let a = amps[c];
                        *lane += d.re * a.re + d.im * a.im;
                    }
                    p += 4;
                }
                while p < p1 {
                    let c = (p & low) | ((p & !low) << 1);
                    let d = amps[c ^ t.x_mask];
                    let a = amps[c];
                    lanes[0] += d.re * a.re + d.im * a.im;
                    p += 1;
                }
            }
        } else {
            let term = |p: usize| -> f64 {
                let c = (p & low) | ((p & !low) << 1);
                let v = amps[c ^ t.x_mask].conj() * amps[c];
                let m = if t.use_im { v.im } else { v.re };
                if (c & t.z_mask).count_ones().is_multiple_of(2) {
                    m
                } else {
                    -m
                }
            };
            let mut p = p0;
            while p + 4 <= p1 {
                for (k, lane) in lanes.iter_mut().enumerate() {
                    *lane += term(p + k);
                }
                p += 4;
            }
            while p < p1 {
                lanes[0] += term(p);
                p += 1;
            }
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// Real twin of [`CompiledObservable::diag_block`] on an `f64` state.
    fn diag_block_real(&self, amps: &[f64], start: usize) -> f64 {
        let mut acc = 0.0;
        if let Some(w) = &self.diag_table {
            let ws = &w[start..start + amps.len()];
            let mut lanes = [0.0f64; 4];
            let mut ac = amps.chunks_exact(4);
            let mut wc = ws.chunks_exact(4);
            for (a4, w4) in (&mut ac).zip(&mut wc) {
                for k in 0..4 {
                    lanes[k] += (a4[k] * a4[k]) * w4[k];
                }
            }
            for (a, wv) in ac.remainder().iter().zip(wc.remainder()) {
                lanes[0] += (a * a) * wv;
            }
            acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        } else {
            for (i, a) in amps.iter().enumerate() {
                let c = start + i;
                let p = a * a;
                for &(coeff, z) in &self.diag {
                    acc += if (c & z).count_ones().is_multiple_of(2) {
                        coeff * p
                    } else {
                        -coeff * p
                    };
                }
            }
        }
        acc
    }

    /// Real twin of [`CompiledObservable::offdiag_block`] on an `f64`
    /// state. Terms with an odd Y count (`use_im`) have purely imaginary
    /// matrix elements, so they contribute exactly zero on a real state.
    fn offdiag_block_real(t: &OffDiagTerm, amps: &[f64], p0: usize, p1: usize) -> f64 {
        if t.use_im {
            return 0.0;
        }
        let low = t.pair_bit - 1;
        let mut lanes = [0.0f64; 4];
        if t.z_mask == 0 {
            if t.pair_bit >= 8 {
                let mut p = p0;
                while p < p1 {
                    let c0 = (p & low) | ((p & !low) << 1);
                    let run = (t.pair_bit - (p & low)).min(p1 - p);
                    let a = &amps[c0..c0 + run];
                    let d = &amps[c0 ^ t.x_mask..][..run];
                    let mut ac = a.chunks_exact(4);
                    let mut dc = d.chunks_exact(4);
                    for (a4, d4) in (&mut ac).zip(&mut dc) {
                        for k in 0..4 {
                            lanes[k] += d4[k] * a4[k];
                        }
                    }
                    for (av, dv) in ac.remainder().iter().zip(dc.remainder()) {
                        lanes[0] += dv * av;
                    }
                    p += run;
                }
            } else {
                let mut p = p0;
                while p + 4 <= p1 {
                    for (k, lane) in lanes.iter_mut().enumerate() {
                        let c = ((p + k) & low) | (((p + k) & !low) << 1);
                        *lane += amps[c ^ t.x_mask] * amps[c];
                    }
                    p += 4;
                }
                while p < p1 {
                    let c = (p & low) | ((p & !low) << 1);
                    lanes[0] += amps[c ^ t.x_mask] * amps[c];
                    p += 1;
                }
            }
        } else {
            let term = |p: usize| -> f64 {
                let c = (p & low) | ((p & !low) << 1);
                let m = amps[c ^ t.x_mask] * amps[c];
                if (c & t.z_mask).count_ones().is_multiple_of(2) {
                    m
                } else {
                    -m
                }
            };
            let mut p = p0;
            while p + 4 <= p1 {
                for (k, lane) in lanes.iter_mut().enumerate() {
                    *lane += term(p + k);
                }
                p += 4;
            }
            while p < p1 {
                lanes[0] += term(p);
                p += 1;
            }
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// The fused expectation on a **real** amplitude vector (the
    /// real-run scratch of [`CompiledCircuit::run_expectation`]). Same
    /// block structure and lane partition as
    /// [`CompiledObservable::expectation`], so the result is bitwise
    /// identical to running the complex kernels over the written-back
    /// state (every dropped product has an exactly-zero factor).
    fn expectation_real(&self, amps: &[f64]) -> f64 {
        assert_eq!(amps.len(), 1usize << self.n_qubits, "observable width");
        let mut total = 0.0;
        if !self.diag.is_empty() {
            let mut acc = 0.0;
            for (bi, chunk) in amps.chunks(kernels::BLOCK).enumerate() {
                acc += self.diag_block_real(chunk, bi * kernels::BLOCK);
            }
            total += acc;
        }
        let n_pairs = amps.len() >> 1;
        for t in &self.offdiag {
            let mut acc = 0.0;
            let mut p0 = 0usize;
            while p0 < n_pairs {
                let p1 = (p0 + kernels::BLOCK).min(n_pairs);
                acc += Self::offdiag_block_real(t, amps, p0, p1);
                p0 = p1;
            }
            total += t.prefactor * acc;
        }
        total
    }

    /// The fused expectation `<psi| H |psi>`; agrees with the legacy
    /// per-term kernel to `<= 1e-12`.
    ///
    /// All sweeps run in cache-sized blocks whose partial sums are combined
    /// in block order; that fixed summation order is what the real-run path
    /// (`expectation_real`) reproduces bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn expectation(&self, sv: &StateVector) -> f64 {
        assert_eq!(sv.n_qubits(), self.n_qubits, "observable width");
        let amps = sv.amplitudes();
        let mut total = 0.0;
        if !self.diag.is_empty() {
            let mut acc = 0.0;
            for (bi, chunk) in amps.chunks(kernels::BLOCK).enumerate() {
                acc += self.diag_block(chunk, bi * kernels::BLOCK);
            }
            total += acc;
        }
        let n_pairs = amps.len() >> 1;
        for t in &self.offdiag {
            let mut acc = 0.0;
            let mut p0 = 0usize;
            while p0 < n_pairs {
                let p1 = (p0 + kernels::BLOCK).min(n_pairs);
                acc += Self::offdiag_block(t, amps, p0, p1);
                p0 = p1;
            }
            total += t.prefactor * acc;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pauli::PauliString;
    use crate::statevector::reference;
    use qismet_mathkit::rng_from_seed;
    use rand::Rng;

    const TOL: f64 = 1e-12;

    fn random_circuit(n: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut rng = rng_from_seed(seed);
        for layer in 0..4 {
            for q in 0..n {
                c.ry(rng.gen::<f64>() * std::f64::consts::TAU, q);
                c.rz(rng.gen::<f64>() * std::f64::consts::TAU, q);
                if layer == 1 {
                    c.h(q);
                }
            }
            for q in 0..n.saturating_sub(1) {
                match (layer + q) % 3 {
                    0 => {
                        c.cx(q, q + 1);
                    }
                    1 => {
                        c.cz(q, q + 1);
                    }
                    _ => {
                        c.rzz(rng.gen::<f64>() - 0.5, q, q + 1);
                    }
                }
            }
        }
        c
    }

    #[test]
    fn compiled_state_matches_interpreted() {
        for n in [1usize, 2, 4, 5] {
            let c = random_circuit(n, 7 + n as u64);
            let direct = StateVector::from_circuit(&c).unwrap();
            let plan = CompiledCircuit::compile(&c);
            let compiled = plan.state().unwrap();
            for (a, b) in direct.amplitudes().iter().zip(compiled.amplitudes()) {
                assert!(a.approx_eq(*b, TOL), "{n}q: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fusion_shrinks_single_qubit_runs() {
        let mut c = Circuit::new(2);
        c.h(0).rz(0.3, 0).ry(0.4, 0).cx(0, 1).h(1).s(1);
        let plan = CompiledCircuit::compile(&c);
        // Everything collapses into one 2-qubit superop: the h/rz/ry run
        // seeds it, the cx extends it, and the trailing h/s on qubit 1
        // (fresh in the superop) are absorbed for free.
        assert_eq!(plan.source_len(), 6);
        assert_eq!(plan.len(), 1);
        let direct = StateVector::from_circuit(&c).unwrap();
        let compiled = plan.state().unwrap();
        assert!(compiled.fidelity(&direct) > 1.0 - TOL);
    }

    #[test]
    fn fusion_respects_two_qubit_barriers() {
        // s(0) ... cx(0,1) ... s(0): the two S gates must NOT merge into a
        // single-qubit product across the entangler. S S |+> would differ
        // from S CX S |+>0. The superop absorbs all four gates in circuit
        // order, which preserves the barrier.
        let mut c = Circuit::new(2);
        c.h(0).s(0).cx(0, 1).s(0);
        let direct = StateVector::from_circuit(&c).unwrap();
        let plan = CompiledCircuit::compile(&c);
        let compiled = plan.state().unwrap();
        assert!(compiled.fidelity(&direct) > 1.0 - TOL);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn ghz_chain_lowers_to_superop_plus_ladder() {
        let n = 8;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        let plan = CompiledCircuit::compile(&c);
        // h + the first two CXs fill a 3-qubit superop; the remaining pure
        // CX chain (5 gates over 6 wires) becomes one permutation table.
        assert_eq!(plan.len(), 2);
        let direct = StateVector::from_circuit(&c).unwrap();
        let compiled = plan.state().unwrap();
        for (a, b) in direct.amplitudes().iter().zip(compiled.amplitudes()) {
            assert!(a.approx_eq(*b, TOL), "{a} vs {b}");
        }
    }

    #[test]
    fn free_rzz_ladder_rebinds() {
        let mut c = Circuit::new(3);
        c.rzz(Param::Free(0), 0, 1)
            .rzz(Param::Free(1), 1, 2)
            .cx(0, 2);
        let mut plan = CompiledCircuit::compile(&c);
        assert_eq!(plan.len(), 1);
        plan.rebind(&[0.4, -1.1]).unwrap();
        // Exercise on a dense state: prefix rotations run first, then the
        // rebound ladder plan.
        let mut prefix = Circuit::new(3);
        for q in 0..3 {
            prefix.ry(0.3 + q as f64, q).rz(1.1 - q as f64, q);
        }
        let mut sv = StateVector::from_circuit(&prefix).unwrap();
        plan.apply(&mut sv).unwrap();

        let mut full = prefix.clone();
        full.rzz(0.4, 0, 1).rzz(-1.1, 1, 2).cx(0, 2);
        let direct = StateVector::from_circuit(&full).unwrap();
        for (a, b) in direct.amplitudes().iter().zip(sv.amplitudes()) {
            assert!(a.approx_eq(*b, TOL), "{a} vs {b}");
        }
    }

    #[test]
    fn rebind_equals_fresh_compile() {
        let mut c = Circuit::new(3);
        c.ry(Param::Free(0), 0)
            .rz(Param::Free(1), 0)
            .cx(0, 1)
            .ry(Param::Free(2), 1)
            .rzz(Param::Free(3), 1, 2)
            .ry(0.25, 2);
        let p1 = [0.3, -0.9, 1.4, 0.6];
        let p2 = [2.2, 0.1, -0.5, 1.9];

        let mut plan = CompiledCircuit::compile(&c);
        assert!(!plan.is_bound());
        plan.rebind(&p1).unwrap();
        plan.rebind(&p2).unwrap();
        plan.rebind(&p1).unwrap();
        let rebound = plan.state().unwrap();

        let mut fresh = CompiledCircuit::compile(&c);
        fresh.rebind(&p1).unwrap();
        let once = fresh.state().unwrap();
        // Identical arithmetic => bitwise identical states.
        assert_eq!(rebound.amplitudes(), once.amplitudes());
    }

    #[test]
    fn unbound_plan_errors() {
        let mut c = Circuit::new(1);
        c.ry(Param::Free(0), 0);
        let plan = CompiledCircuit::compile(&c);
        assert_eq!(plan.state().unwrap_err(), GateError::UnboundParameter);
        let mut plan = CompiledCircuit::compile(&c);
        assert_eq!(plan.rebind(&[]).unwrap_err(), GateError::UnboundParameter);
    }

    #[test]
    fn template_matches_structure_not_angles() {
        let a = random_circuit(3, 1);
        let b = random_circuit(3, 2); // same structure, different angles
        let plan = CompiledCircuit::compile_template(&a);
        assert!(plan.matches_structure(&a));
        assert!(plan.matches_structure(&b));
        let mut different = Circuit::new(3);
        different.h(0);
        assert!(!plan.matches_structure(&different));
    }

    #[test]
    fn template_rebinds_from_extracted_angles() {
        let a = random_circuit(4, 3);
        let b = random_circuit(4, 4);
        let mut plan = CompiledCircuit::compile_template(&a);
        let mut angles = Vec::new();
        for target in [&a, &b] {
            CompiledCircuit::extract_angles(target, &mut angles).unwrap();
            plan.rebind(&angles).unwrap();
            let got = plan.state().unwrap();
            let want = StateVector::from_circuit(target).unwrap();
            assert!(got.fidelity(&want) > 1.0 - TOL);
        }
    }

    #[test]
    fn extract_angles_rejects_unbound() {
        let mut c = Circuit::new(1);
        c.ry(Param::Free(0), 0);
        let mut out = vec![1.0, 2.0];
        assert_eq!(
            CompiledCircuit::extract_angles(&c, &mut out).unwrap_err(),
            GateError::UnboundParameter
        );
    }

    #[test]
    fn compiled_observable_matches_reference_kernel() {
        let labels = [
            "ZZII", "IZZI", "XIII", "IXII", "YYII", "XYZI", "IIII", "ZIZI", "XXXX", "YZIX",
        ];
        let pairs: Vec<(f64, &str)> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                (
                    0.3 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 },
                    *l,
                )
            })
            .collect();
        let h = PauliSum::from_labels(&pairs).unwrap();
        let obs = CompiledObservable::compile(&h);
        assert_eq!(obs.n_terms(), labels.len());
        for seed in 0..6 {
            let sv = StateVector::from_circuit(&random_circuit(4, 40 + seed)).unwrap();
            let want = reference::expectation(&sv, &h);
            let got = obs.expectation(&sv);
            assert!((want - got).abs() < TOL, "seed {seed}: {want} vs {got}");
        }
    }

    #[test]
    fn diagonal_only_observable_uses_single_sweep() {
        let h = PauliSum::from_labels(&[(0.5, "ZZ"), (-0.25, "IZ"), (1.5, "II")]).unwrap();
        let obs = CompiledObservable::compile(&h);
        assert_eq!(obs.n_diagonal_terms(), 3);
        let sv = StateVector::from_circuit(&random_circuit(2, 9)).unwrap();
        assert!((obs.expectation(&sv) - reference::expectation(&sv, &h)).abs() < TOL);
    }

    #[test]
    fn wide_observable_falls_back_without_table() {
        // Build the same small observable, but verify the fallback branch by
        // compiling against a hand-made CompiledObservable with the table
        // stripped.
        let h = PauliSum::from_labels(&[(0.7, "ZIZ"), (-0.2, "IZI"), (0.4, "XIX")]).unwrap();
        let mut obs = CompiledObservable::compile(&h);
        let sv = StateVector::from_circuit(&random_circuit(3, 11)).unwrap();
        let with_table = obs.expectation(&sv);
        obs.diag_table = None;
        let without_table = obs.expectation(&sv);
        assert!((with_table - without_table).abs() < TOL);
        assert!((with_table - reference::expectation(&sv, &h)).abs() < TOL);
    }

    #[test]
    fn bell_pair_expectations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c).unwrap();
        for (label, want) in [("ZZ", 1.0), ("XX", 1.0), ("YY", -1.0), ("ZI", 0.0)] {
            let h = PauliSum::from_labels(&[(1.0, label)]).unwrap();
            let got = CompiledObservable::compile(&h).expectation(&sv);
            assert!((got - want).abs() < TOL, "{label}: {got} vs {want}");
        }
        // Single off-diagonal string via PauliString-style compile.
        let p = PauliString::from_label("XY").unwrap();
        let mut h = PauliSum::zero(2);
        h.add_term(1.0, p);
        let got = CompiledObservable::compile(&h).expectation(&sv);
        assert!(got.abs() < TOL);
    }
}

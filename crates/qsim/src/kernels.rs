//! Cache-blocked statevector kernels over raw amplitude slices.
//!
//! Every kernel here is a free function over an amplitude slice rather than
//! a method on [`crate::StateVector`]. The ops a real-amplitude plan uses
//! (the real 2x2 butterfly, CX/CZ/SWAP and the ladder tables) are written
//! once, generic over the private [`Amp`] trait: the same body runs on
//! `Complex64` states and, in the real-amplitude run mode, on `f64` states.
//! [`Amp`] carries only what the two element types differ in, so each
//! monomorphized body does exactly the float operations its element type
//! needs, in one fixed order. The complex-only kernels (the general 2x2
//! unitary, RZZ phases) and the probability reductions stay on
//! `Complex64`.
//!
//! The hot loops are written as `chunks_exact_mut` + `split_at_mut` sweeps
//! over fixed-shape blocks with no per-amplitude bounds checks or index
//! arithmetic, the form the autovectorizer turns into packed SIMD on the
//! interleaved `[re, im, re, im, ...]` layout.
//!
//! The arithmetic of each kernel (operation order, grouping) matches the
//! pre-refactor `StateVector` methods exactly, so results are bit-identical
//! to the historical implementations pinned by the regression tests.

use core::cell::RefCell;
use core::ops::{Add, Neg};
use qismet_mathkit::Complex64;

/// Amplitudes per reduction block. Reductions (probability norms, CDF
/// accumulation, expectation partial sums) are computed block-by-block,
/// which fixes the floating-point summation order. States of up to `BLOCK`
/// amplitudes (14 qubits) are a single block, which keeps their sums
/// bit-identical to the historical straight loop.
pub(crate) const BLOCK: usize = 1 << 14;

/// A stack-allocated 2x2 complex matrix (row-major).
pub(crate) type Mat2 = [[Complex64; 2]; 2];

/// An amplitude element the generic kernels and expectation sweeps run on:
/// `Complex64` for general states, `f64` for the real-amplitude run mode
/// (half the flops and half the memory traffic). Each method is one
/// element's share of a kernel; on `f64` it drops the products whose
/// imaginary factor is exactly zero.
pub(crate) trait Amp: Copy + Add<Output = Self> + Neg<Output = Self> {
    /// The zero amplitude.
    const ZERO: Self;
    /// The type has no imaginary part: a pair product's imaginary part (an
    /// odd-Y Pauli term) is exactly zero, and [`apply_1q_real`] takes its
    /// unrolled narrow-stride bodies.
    const REAL: bool;
    /// `self * k` for a real `k`.
    fn scale(self, k: f64) -> Self;
    /// `ph * self` for a ladder-table phase; real-run plans only carry
    /// `+/-1` phases, so `f64` uses `ph.re`.
    fn mul_phase(self, ph: Complex64) -> Self;
    /// `|self|^2`.
    fn norm_sqr(self) -> f64;
    /// `re(conj(d) * a)`.
    fn pair_re(d: &Self, a: &Self) -> f64;
    /// `im(conj(d) * a)`.
    fn pair_im(d: &Self, a: &Self) -> f64;
    /// Runs `f` on this thread's gather scratch for
    /// [`apply_table_contig`]: one orbit region, grown on demand and reused
    /// across ops and calls. Thread-local so concurrent campaign workers
    /// need no shared mutable state; generic statics do not exist, so each
    /// element type owns its own.
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
    /// The slice as complex amplitudes, for the complex-only ops (general
    /// 2x2 unitaries, RZZ), which a real-run plan never contains.
    fn complex_mut(amps: &mut [Self]) -> &mut [Complex64];
}

impl Amp for Complex64 {
    const ZERO: Self = Complex64::ZERO;
    const REAL: bool = false;

    #[inline(always)]
    fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    #[inline(always)]
    fn mul_phase(self, ph: Complex64) -> Self {
        ph * self
    }

    #[inline(always)]
    fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Bit for bit equal to `(d.conj() * *a).re`, which computes
    /// `d.re * a.re - (-d.im) * a.im`: IEEE 754 defines `x - (-y)` as
    /// `x + y`.
    #[inline(always)]
    fn pair_re(d: &Self, a: &Self) -> f64 {
        d.re * a.re + d.im * a.im
    }

    #[inline(always)]
    fn pair_im(d: &Self, a: &Self) -> f64 {
        (d.conj() * *a).im
    }

    #[inline(always)]
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
    }

    #[inline(always)]
    fn complex_mut(amps: &mut [Self]) -> &mut [Complex64] {
        amps
    }
}

impl Amp for f64 {
    const ZERO: Self = 0.0;
    const REAL: bool = true;

    #[inline(always)]
    fn scale(self, k: f64) -> Self {
        self * k
    }

    #[inline(always)]
    fn mul_phase(self, ph: Complex64) -> Self {
        ph.re * self
    }

    #[inline(always)]
    fn norm_sqr(self) -> f64 {
        self * self
    }

    #[inline(always)]
    fn pair_re(d: &Self, a: &Self) -> f64 {
        d * a
    }

    #[inline(always)]
    fn pair_im(_: &Self, _: &Self) -> f64 {
        0.0
    }

    #[inline(always)]
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
    }

    fn complex_mut(_: &mut [Self]) -> &mut [Complex64] {
        unreachable!("complex op in a real-run plan")
    }
}

/// Applies an arbitrary 2x2 unitary with target-bit value `stride` to a
/// slice (`slice.len()` must be a multiple of `2 * stride`).
pub(crate) fn apply_1q(amps: &mut [Complex64], u: &Mat2, stride: usize) {
    debug_assert!(amps.len().is_multiple_of(stride << 1));
    let [[u00, u01], [u10, u11]] = *u;
    for chunk in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = chunk.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let a0 = *a;
            let a1 = *b;
            *a = u00 * a0 + u01 * a1;
            *b = u10 * a0 + u11 * a1;
        }
    }
}

/// Applies a **real** 2x2 matrix with target-bit value `stride`: half the
/// multiplies of the complex butterfly on a complex state, and the whole
/// gate on a real one.
///
/// On `f64` states, strides 1 and 2 interleave the butterfly pairs too
/// tightly for the split-halves loop to vectorize, so they get unrolled
/// shuffle-friendly bodies over 8-amplitude chunks; wider strides vectorize
/// as two linear streams. A complex amplitude already fills a vector
/// register, and the unrolled bodies ran slower on complex states, so
/// those keep the split-halves loop at every stride. All three forms do the
/// same per-amplitude arithmetic.
pub(crate) fn apply_1q_real<A: Amp>(amps: &mut [A], m: &[[f64; 2]; 2], stride: usize) {
    debug_assert!(amps.len().is_multiple_of(stride << 1));
    let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
    let bf = |a: A, b: A| (a.scale(m00) + b.scale(m01), a.scale(m10) + b.scale(m11));
    if A::REAL && stride == 1 && amps.len() >= 8 {
        for ch in amps.chunks_exact_mut(8) {
            let [(t0, u0), (t1, u1), (t2, u2), (t3, u3)] =
                [0, 2, 4, 6].map(|i| bf(ch[i], ch[i + 1]));
            ch.copy_from_slice(&[t0, u0, t1, u1, t2, u2, t3, u3]);
        }
        return;
    }
    if A::REAL && stride == 2 && amps.len() >= 8 {
        for ch in amps.chunks_exact_mut(8) {
            let [(t0, u0), (t1, u1), (t2, u2), (t3, u3)] =
                [0, 1, 4, 5].map(|i| bf(ch[i], ch[i + 2]));
            ch.copy_from_slice(&[t0, t1, u0, u1, t2, t3, u2, u3]);
        }
        return;
    }
    for chunk in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = chunk.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            (*a, *b) = bf(*a, *b);
        }
    }
}

/// Visits every index of `amps` with both `lo_bit` and `hi_bit` clear
/// (`lo_bit < hi_bit`, both bit values): the canonical member of each
/// 4-amplitude orbit of a two-qubit gate. `amps.len()` must be a multiple of
/// `2 * hi_bit`.
#[inline(always)]
fn for_each_two_qubit_base<T>(
    amps: &mut [T],
    lo_bit: usize,
    hi_bit: usize,
    mut f: impl FnMut(&mut [T], usize),
) {
    debug_assert!(lo_bit < hi_bit && amps.len().is_multiple_of(hi_bit << 1));
    let dim = amps.len();
    let mut outer = 0usize;
    while outer < dim {
        let mut mid = outer;
        let outer_end = outer + hi_bit;
        while mid < outer_end {
            for idx in mid..mid + lo_bit {
                f(amps, idx);
            }
            mid += lo_bit << 1;
        }
        outer += hi_bit << 1;
    }
}

/// CX with control/target bit values `cbit`/`tbit`. Element-generic: the
/// real-amplitude run mode applies the same kernel to `f64` states.
pub(crate) fn apply_cx<T>(amps: &mut [T], cbit: usize, tbit: usize) {
    let (lo, hi) = (cbit.min(tbit), cbit.max(tbit));
    for_each_two_qubit_base(amps, lo, hi, |amps, idx| {
        amps.swap(idx | cbit, idx | cbit | tbit);
    });
}

/// CZ with operand bit values `abit`/`bbit` (element-generic, see
/// [`apply_cx`]).
pub(crate) fn apply_cz<T: Copy + core::ops::Neg<Output = T>>(
    amps: &mut [T],
    abit: usize,
    bbit: usize,
) {
    let (lo, hi) = (abit.min(bbit), abit.max(bbit));
    for_each_two_qubit_base(amps, lo, hi, |amps, idx| {
        let i11 = idx | abit | bbit;
        amps[i11] = -amps[i11];
    });
}

/// SWAP with operand bit values `abit`/`bbit` (element-generic, see
/// [`apply_cx`]).
pub(crate) fn apply_swap<T>(amps: &mut [T], abit: usize, bbit: usize) {
    let (lo, hi) = (abit.min(bbit), abit.max(bbit));
    for_each_two_qubit_base(amps, lo, hi, |amps, idx| {
        amps.swap(idx | abit, idx | bbit);
    });
}

/// RZZ with precomputed diagonal phases (`minus` on equal bits, `plus` on
/// differing bits) and operand bit values `abit`/`bbit`.
pub(crate) fn apply_rzz_phases(
    amps: &mut [Complex64],
    minus: Complex64,
    plus: Complex64,
    abit: usize,
    bbit: usize,
) {
    let (lo, hi) = (abit.min(bbit), abit.max(bbit));
    for_each_two_qubit_base(amps, lo, hi, |amps, idx| {
        amps[idx] *= minus;
        amps[idx | abit] *= plus;
        amps[idx | bbit] *= plus;
        amps[idx | abit | bbit] *= minus;
    });
}

/// Expands orbit number `o` into a base index by inserting a zero at each
/// support bit (ascending bit values in `bits`).
#[inline(always)]
fn expand_orbit(mut o: usize, bits: &[usize]) -> usize {
    for &b in bits {
        o = (o & (b - 1)) | ((o & !(b - 1)) << 1);
    }
    o
}

/// Applies a precomputed index-permutation + phase table (a lowered
/// CX/CZ/SWAP/RZZ ladder) in one sweep.
///
/// The table maps local configuration `c` (over `bits`, ascending bit
/// values, `s = bits.len() <= 8`) to `phase[l] * |l>` where `l = pi(c)`:
/// `offs[l]` is the amplitude offset of local index `l`, `src[l] = pi^-1(l)`
/// and `phase[l]` the output phase. `diagonal` marks identity permutations
/// (in-place phase sweep, no gather) and `unit` marks all-ones phases (pure
/// permutation, no multiplies).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_table<A: Amp>(
    amps: &mut [A],
    bits: &[usize],
    offs: &[usize],
    src: &[u8],
    phase: &[Complex64],
    diagonal: bool,
    unit: bool,
) {
    let s = bits.len();
    let size = 1usize << s;
    debug_assert!(offs.len() == size && src.len() == size && phase.len() == size);
    debug_assert!(amps.len().is_multiple_of(bits[s - 1] << 1));
    let n_orbits = amps.len() >> s;
    let mut buf = [A::ZERO; 256];
    for o in 0..n_orbits {
        let base = expand_orbit(o, bits);
        if diagonal {
            for l in 0..size {
                let i = base + offs[l];
                amps[i] = amps[i].mul_phase(phase[l]);
            }
        } else if unit {
            for l in 0..size {
                buf[l] = amps[base + offs[src[l] as usize]];
            }
            for l in 0..size {
                amps[base + offs[l]] = buf[l];
            }
        } else {
            for l in 0..size {
                buf[l] = amps[base + offs[src[l] as usize]].mul_phase(phase[l]);
            }
            for l in 0..size {
                amps[base + offs[l]] = buf[l];
            }
        }
    }
}

/// [`apply_table`] specialized for tables whose support is a contiguous
/// qubit run `[shift, shift + s)`. Local config `l` then sits at amplitude
/// offset `l << shift`, every orbit is one contiguous `2^(shift+s)`-amplitude
/// region, and the permutation moves `2^shift`-amplitude **blocks** —
/// straight `copy_from_slice`s (or packed phase-multiplies) instead of the
/// per-amplitude `offs` gather. Linear-entanglement ladders, the dominant
/// ansatz entangler shape, always lower to this form.
pub(crate) fn apply_table_contig<A: Amp>(
    amps: &mut [A],
    shift: usize,
    src: &[u8],
    phase: &[Complex64],
    diagonal: bool,
    unit: bool,
) {
    let size = src.len();
    let region = size << shift;
    debug_assert!(amps.len().is_multiple_of(region));
    if diagonal {
        for chunk in amps.chunks_exact_mut(region) {
            for (blk, &ph) in chunk.chunks_exact_mut(1 << shift).zip(phase.iter()) {
                for a in blk {
                    *a = a.mul_phase(ph);
                }
            }
        }
        return;
    }
    A::with_scratch(|scratch| {
        scratch.resize(region, A::ZERO);
        for chunk in amps.chunks_exact_mut(region) {
            scratch.copy_from_slice(chunk);
            if shift == 0 {
                // Blocks are single amplitudes: plain permuted copy.
                if unit {
                    for (l, a) in chunk.iter_mut().enumerate() {
                        *a = scratch[src[l] as usize];
                    }
                } else {
                    for (l, a) in chunk.iter_mut().enumerate() {
                        *a = scratch[src[l] as usize].mul_phase(phase[l]);
                    }
                }
                continue;
            }
            for (l, blk) in chunk.chunks_exact_mut(1 << shift).enumerate() {
                let sblk = &scratch[(src[l] as usize) << shift..][..blk.len()];
                if unit {
                    blk.copy_from_slice(sblk);
                } else {
                    let ph = phase[l];
                    for (d, &s) in blk.iter_mut().zip(sblk.iter()) {
                        *d = s.mul_phase(ph);
                    }
                }
            }
        }
    });
}

/// Writes `|amp|^2` for one amplitude block into `out` (chunked map the
/// autovectorizer turns into packed multiplies).
pub(crate) fn write_probabilities(amps: &[Complex64], out: &mut [f64]) {
    debug_assert_eq!(amps.len(), out.len());
    for (p, a) in out.iter_mut().zip(amps.iter()) {
        *p = a.re * a.re + a.im * a.im;
    }
}

/// Fills `cdf` with the running prefix sum of `|amp|^2` and returns the
/// total. The squared norms are computed block-by-block through
/// [`write_probabilities`]; the prefix accumulation itself adds them in
/// index order, so the CDF is bit-identical to the historical
/// one-amplitude-at-a-time loop.
pub(crate) fn cdf_fill(amps: &[Complex64], cdf: &mut Vec<f64>) -> f64 {
    cdf.clear();
    cdf.reserve(amps.len());
    let mut block = [0.0f64; 256];
    let mut acc = 0.0f64;
    for chunk in amps.chunks(block.len()) {
        let probs = &mut block[..chunk.len()];
        write_probabilities(chunk, probs);
        for &p in probs.iter() {
            acc += p;
            cdf.push(acc);
        }
    }
    acc
}

/// Sum of `|amp|^2` over one block (same add order as the historical
/// straight loop within the block).
pub(crate) fn norm_sqr_block(amps: &[Complex64]) -> f64 {
    let mut acc = 0.0f64;
    for a in amps {
        acc += a.re * a.re + a.im * a.im;
    }
    acc
}

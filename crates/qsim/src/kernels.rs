//! Cache-blocked statevector kernels over raw amplitude slices.
//!
//! Every kernel here is a free function over `&mut [Complex64]` (or
//! `&[Complex64]` for reductions) rather than a method on
//! [`crate::StateVector`], so the real-amplitude run mode can reuse the
//! element-generic kernels on `f64` states. The hot loops are written as
//! `chunks_exact_mut` + `split_at_mut` sweeps over fixed-shape blocks with
//! no per-amplitude bounds checks or index arithmetic, the form the
//! autovectorizer turns into packed SIMD on the interleaved
//! `[re, im, re, im, ...]` layout.
//!
//! The arithmetic of each kernel (operation order, grouping) matches the
//! pre-refactor `StateVector` methods exactly, so results are bit-identical
//! to the historical implementations pinned by the regression tests.

use qismet_mathkit::Complex64;

/// Amplitudes per reduction block. Reductions (probability norms, CDF
/// accumulation, expectation partial sums) are computed block-by-block,
/// which fixes the floating-point summation order. States of up to `BLOCK`
/// amplitudes (14 qubits) are a single block, which keeps their sums
/// bit-identical to the historical straight loop.
pub(crate) const BLOCK: usize = 1 << 14;

/// A stack-allocated 2x2 complex matrix (row-major).
pub(crate) type Mat2 = [[Complex64; 2]; 2];

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

/// Applies a **real** 2x2 unitary (half the multiplies of the complex
/// butterfly) with target-bit value `stride`.
pub(crate) fn apply_1q_real(amps: &mut [Complex64], m: &[[f64; 2]; 2], stride: usize) {
    debug_assert!(amps.len().is_multiple_of(stride << 1));
    let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
    for chunk in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = chunk.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let a0 = *a;
            let a1 = *b;
            *a = Complex64::new(m00 * a0.re + m01 * a1.re, m00 * a0.im + m01 * a1.im);
            *b = Complex64::new(m10 * a0.re + m11 * a1.re, m10 * a0.im + m11 * a1.im);
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

/// Applies a dense 4x4 superoperator matrix `m` (row-major over the local
/// basis `|b1 b0>`) on support bit values `b0 < b1`. When `real` is set only
/// the real parts of `m` are used (exact for superops fused purely from
/// real gates, at half the multiplies).
pub(crate) fn apply_super2(
    amps: &mut [Complex64],
    m: &[Complex64],
    b0: usize,
    b1: usize,
    real: bool,
) {
    debug_assert!(m.len() >= 16 && b0 < b1 && amps.len().is_multiple_of(b1 << 1));
    let dim = amps.len();
    let mut outer = 0usize;
    while outer < dim {
        let mut mid = outer;
        let outer_end = outer + b1;
        while mid < outer_end {
            for base in mid..mid + b0 {
                let idx = [base, base | b0, base | b1, base | b0 | b1];
                let v = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
                if real {
                    for (r, &i) in idx.iter().enumerate() {
                        let row = &m[r * 4..r * 4 + 4];
                        let mut re = 0.0f64;
                        let mut im = 0.0f64;
                        for c in 0..4 {
                            re += row[c].re * v[c].re;
                            im += row[c].re * v[c].im;
                        }
                        amps[i] = Complex64::new(re, im);
                    }
                } else {
                    for (r, &i) in idx.iter().enumerate() {
                        let row = &m[r * 4..r * 4 + 4];
                        let mut acc = Complex64::ZERO;
                        for c in 0..4 {
                            acc += row[c] * v[c];
                        }
                        amps[i] = acc;
                    }
                }
            }
            mid += b0 << 1;
        }
        outer += b1 << 1;
    }
}

/// Applies a dense 8x8 superoperator matrix `m` (row-major over the local
/// basis `|b2 b1 b0>`) on support bit values `b0 < b1 < b2`; see
/// [`apply_super2`].
pub(crate) fn apply_super3(
    amps: &mut [Complex64],
    m: &[Complex64],
    b0: usize,
    b1: usize,
    b2: usize,
    real: bool,
) {
    debug_assert!(m.len() >= 64 && b0 < b1 && b1 < b2 && amps.len().is_multiple_of(b2 << 1));
    let dim = amps.len();
    let mut top = 0usize;
    while top < dim {
        let mut outer = top;
        let top_end = top + b2;
        while outer < top_end {
            let mut mid = outer;
            let outer_end = outer + b1;
            while mid < outer_end {
                for base in mid..mid + b0 {
                    let idx = [
                        base,
                        base | b0,
                        base | b1,
                        base | b0 | b1,
                        base | b2,
                        base | b0 | b2,
                        base | b1 | b2,
                        base | b0 | b1 | b2,
                    ];
                    let mut v = [Complex64::ZERO; 8];
                    for (slot, &i) in v.iter_mut().zip(idx.iter()) {
                        *slot = amps[i];
                    }
                    if real {
                        for (r, &i) in idx.iter().enumerate() {
                            let row = &m[r * 8..r * 8 + 8];
                            let mut re = 0.0f64;
                            let mut im = 0.0f64;
                            for c in 0..8 {
                                re += row[c].re * v[c].re;
                                im += row[c].re * v[c].im;
                            }
                            amps[i] = Complex64::new(re, im);
                        }
                    } else {
                        for (r, &i) in idx.iter().enumerate() {
                            let row = &m[r * 8..r * 8 + 8];
                            let mut acc = Complex64::ZERO;
                            for c in 0..8 {
                                acc += row[c] * v[c];
                            }
                            amps[i] = acc;
                        }
                    }
                }
                mid += b0 << 1;
            }
            outer += b1 << 1;
        }
        top += b2 << 1;
    }
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
/// values, `s = bits.len() <= 6`) to `phase[l] * |l>` where `l = pi(c)`:
/// `offs[l]` is the amplitude offset of local index `l`, `src[l] = pi^-1(l)`
/// and `phase[l]` the output phase. `diagonal` marks identity permutations
/// (in-place phase sweep, no gather) and `unit` marks all-ones phases (pure
/// permutation, no multiplies).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_table(
    amps: &mut [Complex64],
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
    let mut buf = [Complex64::ZERO; 256];
    for o in 0..n_orbits {
        let base = expand_orbit(o, bits);
        if diagonal {
            for l in 0..size {
                amps[base + offs[l]] *= phase[l];
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
                buf[l] = phase[l] * amps[base + offs[src[l] as usize]];
            }
            for l in 0..size {
                amps[base + offs[l]] = buf[l];
            }
        }
    }
}

thread_local! {
    /// Per-thread gather scratch for [`apply_table_contig`]: one orbit
    /// region (`2^(shift + s)` amplitudes), grown on demand and reused
    /// across ops and calls. Thread-local so concurrent campaign workers
    /// need no shared mutable state.
    static TABLE_SCRATCH: core::cell::RefCell<Vec<Complex64>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// [`apply_table`] specialized for tables whose support is a contiguous
/// qubit run `[shift, shift + s)`. Local config `l` then sits at amplitude
/// offset `l << shift`, every orbit is one contiguous `2^(shift+s)`-amplitude
/// region, and the permutation moves `2^shift`-amplitude **blocks** —
/// straight `copy_from_slice`s (or packed phase-multiplies) instead of the
/// per-amplitude `offs` gather. Linear-entanglement ladders, the dominant
/// ansatz entangler shape, always lower to this form.
pub(crate) fn apply_table_contig(
    amps: &mut [Complex64],
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
                    *a *= ph;
                }
            }
        }
        return;
    }
    TABLE_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.resize(region, Complex64::ZERO);
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
                        *a = phase[l] * scratch[src[l] as usize];
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
                        *d = ph * s;
                    }
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Real-amplitude (`f64`) kernels.
//
// Plans whose every op preserves real amplitude vectors (real 1q segments,
// CX/CZ/SWAP, real superops, RZZ-free ladder tables) evolve an `f64` state
// instead of a `Complex64` one: half the flops and half the memory traffic,
// with the same sweep structure as the complex kernels above. CX and SWAP
// reuse the generic kernels; the arithmetic kernels get real twins below.
// ---------------------------------------------------------------------------

/// Real twin of [`apply_1q_real`]: the 2x2 real butterfly on an `f64` state.
///
/// Strides 1 and 2 interleave the butterfly pairs too tightly for the
/// split-halves loop to vectorize, so they get unrolled shuffle-friendly
/// bodies over 8-amplitude chunks; wider strides vectorize as two linear
/// streams.
pub(crate) fn apply_1q_real_f64(amps: &mut [f64], m: &[[f64; 2]; 2], stride: usize) {
    debug_assert!(amps.len().is_multiple_of(stride << 1));
    let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
    if stride == 1 && amps.len() >= 8 {
        for ch in amps.chunks_exact_mut(8) {
            let (a0, a1, a2, a3) = (ch[0], ch[2], ch[4], ch[6]);
            let (b0, b1, b2, b3) = (ch[1], ch[3], ch[5], ch[7]);
            ch[0] = m00 * a0 + m01 * b0;
            ch[1] = m10 * a0 + m11 * b0;
            ch[2] = m00 * a1 + m01 * b1;
            ch[3] = m10 * a1 + m11 * b1;
            ch[4] = m00 * a2 + m01 * b2;
            ch[5] = m10 * a2 + m11 * b2;
            ch[6] = m00 * a3 + m01 * b3;
            ch[7] = m10 * a3 + m11 * b3;
        }
        return;
    }
    if stride == 2 && amps.len() >= 8 {
        for ch in amps.chunks_exact_mut(8) {
            let (a0, a1, a2, a3) = (ch[0], ch[1], ch[4], ch[5]);
            let (b0, b1, b2, b3) = (ch[2], ch[3], ch[6], ch[7]);
            ch[0] = m00 * a0 + m01 * b0;
            ch[1] = m00 * a1 + m01 * b1;
            ch[2] = m10 * a0 + m11 * b0;
            ch[3] = m10 * a1 + m11 * b1;
            ch[4] = m00 * a2 + m01 * b2;
            ch[5] = m00 * a3 + m01 * b3;
            ch[6] = m10 * a2 + m11 * b2;
            ch[7] = m10 * a3 + m11 * b3;
        }
        return;
    }
    for chunk in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = chunk.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let a0 = *a;
            let a1 = *b;
            *a = m00 * a0 + m01 * a1;
            *b = m10 * a0 + m11 * a1;
        }
    }
}

/// Real twin of [`apply_super2`]: dense 4x4 **real** superoperator (the
/// matrix is stored complex with exactly-zero imaginary parts) on an `f64`
/// state.
pub(crate) fn apply_super2_f64(amps: &mut [f64], m: &[Complex64], b0: usize, b1: usize) {
    debug_assert!(m.len() >= 16 && b0 < b1 && amps.len().is_multiple_of(b1 << 1));
    for_each_two_qubit_base(amps, b0, b1, |amps, base| {
        let idx = [base, base | b0, base | b1, base | b0 | b1];
        let v = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
        for (r, &i) in idx.iter().enumerate() {
            let row = &m[r * 4..r * 4 + 4];
            let mut acc = 0.0f64;
            for c in 0..4 {
                acc += row[c].re * v[c];
            }
            amps[i] = acc;
        }
    });
}

/// Real twin of [`apply_super3`]: dense 8x8 **real** superoperator on an
/// `f64` state.
pub(crate) fn apply_super3_f64(amps: &mut [f64], m: &[Complex64], b0: usize, b1: usize, b2: usize) {
    debug_assert!(m.len() >= 64 && b0 < b1 && b1 < b2 && amps.len().is_multiple_of(b2 << 1));
    let dim = amps.len();
    let mut top = 0usize;
    while top < dim {
        let mut outer = top;
        let top_end = top + b2;
        while outer < top_end {
            let mut mid = outer;
            let outer_end = outer + b1;
            while mid < outer_end {
                for base in mid..mid + b0 {
                    let idx = [
                        base,
                        base | b0,
                        base | b1,
                        base | b0 | b1,
                        base | b2,
                        base | b0 | b2,
                        base | b1 | b2,
                        base | b0 | b1 | b2,
                    ];
                    let mut v = [0.0f64; 8];
                    for (slot, &i) in v.iter_mut().zip(idx.iter()) {
                        *slot = amps[i];
                    }
                    for (r, &i) in idx.iter().enumerate() {
                        let row = &m[r * 8..r * 8 + 8];
                        let mut acc = 0.0f64;
                        for c in 0..8 {
                            acc += row[c].re * v[c];
                        }
                        amps[i] = acc;
                    }
                }
                mid += b0 << 1;
            }
            outer += b1 << 1;
        }
        top += b2 << 1;
    }
}

/// Real twin of [`apply_table`]: RZZ-free ladder tables have exactly-real
/// (`+/-1`) phases, so the gather runs on an `f64` state with `phase[l].re`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_table_f64(
    amps: &mut [f64],
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
    let mut buf = [0.0f64; 256];
    for o in 0..n_orbits {
        let base = expand_orbit(o, bits);
        if diagonal {
            for l in 0..size {
                amps[base + offs[l]] *= phase[l].re;
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
                buf[l] = phase[l].re * amps[base + offs[src[l] as usize]];
            }
            for l in 0..size {
                amps[base + offs[l]] = buf[l];
            }
        }
    }
}

thread_local! {
    /// Per-thread gather scratch for [`apply_table_contig_f64`] (see
    /// [`TABLE_SCRATCH`]).
    static TABLE_SCRATCH_F64: core::cell::RefCell<Vec<f64>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// Real twin of [`apply_table_contig`]: contiguous-support block
/// permutation on an `f64` state.
pub(crate) fn apply_table_contig_f64(
    amps: &mut [f64],
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
            for (blk, ph) in chunk.chunks_exact_mut(1 << shift).zip(phase.iter()) {
                for a in blk {
                    *a *= ph.re;
                }
            }
        }
        return;
    }
    TABLE_SCRATCH_F64.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.resize(region, 0.0);
        for chunk in amps.chunks_exact_mut(region) {
            scratch.copy_from_slice(chunk);
            if shift == 0 {
                if unit {
                    for (l, a) in chunk.iter_mut().enumerate() {
                        *a = scratch[src[l] as usize];
                    }
                } else {
                    for (l, a) in chunk.iter_mut().enumerate() {
                        *a = phase[l].re * scratch[src[l] as usize];
                    }
                }
                continue;
            }
            for (l, blk) in chunk.chunks_exact_mut(1 << shift).enumerate() {
                let sblk = &scratch[(src[l] as usize) << shift..][..blk.len()];
                if unit {
                    blk.copy_from_slice(sblk);
                } else {
                    let ph = phase[l].re;
                    for (d, &s) in blk.iter_mut().zip(sblk.iter()) {
                        *d = ph * s;
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

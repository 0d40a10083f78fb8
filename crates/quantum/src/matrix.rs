//! Small dense complex matrices and a Hermitian eigensolver.
//!
//! The simulator works with 2×2 and 4×4 unitaries, 2ⁿ×2ⁿ density matrices
//! and the 4×4 Hermitian matrices of two-qubit tomography. A simple
//! row-major dense matrix plus a complex Jacobi eigensolver covers all of
//! it without external dependencies.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use crate::complex::C64;

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use eqasm_quantum::{C64, CMatrix};
///
/// let id = CMatrix::identity(2);
/// let x = CMatrix::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert_eq!(&x * &x, id);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or the input is
    /// empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a square matrix from a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a perfect square.
    pub fn from_flat(data: Vec<C64>) -> Self {
        let n = (data.len() as f64).sqrt().round() as usize;
        assert_eq!(n * n, data.len(), "flat data must be square");
        CMatrix {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read-only view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// The conjugate transpose `A†`.
    pub fn dagger(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// The trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert_eq!(self.rows, self.cols, "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// The Kronecker product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, s: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Returns `true` if `self` and `other` agree entry-wise within
    /// `eps`.
    pub fn approx_eq(&self, other: &CMatrix, eps: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// Returns `true` if the square matrix is unitary within `eps`.
    pub fn is_unitary(&self, eps: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        (&self.dagger() * self).approx_eq(&CMatrix::identity(self.rows), eps)
    }

    /// Returns `true` if the square matrix is Hermitian within `eps`.
    pub fn is_hermitian(&self, eps: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.approx_eq(&self.dagger(), eps)
    }

    /// Returns `true` if `self ≈ e^{iφ} · other` for some global phase φ.
    pub fn approx_eq_up_to_phase(&self, other: &CMatrix, eps: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find the largest-magnitude entry of `other` to fix the phase.
        let (idx, _) = other
            .data
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.norm_sqr().total_cmp(&b.norm_sqr()))
            .expect("matrix is non-empty");
        if other.data[idx].norm_sqr() < eps * eps {
            return self.approx_eq(other, eps);
        }
        let phase = self.data[idx] / other.data[idx];
        if (phase.abs() - 1.0).abs() > eps {
            return false;
        }
        self.approx_eq(&other.scale(phase), eps)
    }

    /// Eigendecomposition of a Hermitian matrix by the complex Jacobi
    /// (two-sided rotation) method.
    ///
    /// Returns `(eigenvalues, eigenvectors)` where column `k` of the
    /// returned matrix is the eigenvector of `eigenvalues[k]`.
    /// Eigenvalues are sorted in descending order.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square. Accuracy is best for
    /// matrices that are Hermitian to near machine precision; the
    /// Hermitian part is used.
    pub fn eigh(&self) -> (Vec<f64>, CMatrix) {
        assert_eq!(self.rows, self.cols, "eigh of a non-square matrix");
        let n = self.rows;
        // Work on the Hermitian part to be robust to rounding.
        let mut a = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = (self[(i, j)] + self[(j, i)].conj()).scale(0.5);
            }
        }
        let mut v = CMatrix::identity(n);

        for _sweep in 0..100 {
            // Largest off-diagonal magnitude.
            let mut off = 0.0f64;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        off = off.max(a[(i, j)].abs());
                    }
                }
            }
            if off < 1e-13 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-15 {
                        continue;
                    }
                    // Unitary 2x2 rotation diagonalising the (p,q) block
                    // of the Hermitian matrix:
                    //   [ app   apq ]
                    //   [ apq*  aqq ]
                    let app = a[(p, p)].re;
                    let aqq = a[(q, q)].re;
                    let phi = apq.im.atan2(apq.re); // apq = |apq| e^{i phi}
                    let m = apq.abs();
                    let theta = 0.5 * (2.0 * m).atan2(app - aqq);
                    let c = theta.cos();
                    let s = theta.sin();
                    let e_iphi = C64::cis(phi);
                    // The rotation U is the identity outside the (p,q)
                    // block; inside it is
                    //   [  c            -s e^{iφ} ]
                    //   [  s e^{-iφ}     c        ]
                    // (columns p and q), which zeroes A[p][q] under
                    // A ← U† A U when tan 2θ = 2|A[p][q]| / (A[p][p] − A[q][q]).
                    // Right-multiply A·U:
                    for i in 0..n {
                        let aip = a[(i, p)];
                        let aiq = a[(i, q)];
                        a[(i, p)] = aip.scale(c) + aiq * e_iphi.conj().scale(s);
                        a[(i, q)] = aiq.scale(c) - aip * e_iphi.scale(s);
                    }
                    // Left-multiply U†·A:
                    for j in 0..n {
                        let apj = a[(p, j)];
                        let aqj = a[(q, j)];
                        a[(p, j)] = apj.scale(c) + aqj * e_iphi.scale(s);
                        a[(q, j)] = aqj.scale(c) - apj * e_iphi.conj().scale(s);
                    }
                    // Accumulate eigenvectors V ← V·U:
                    for i in 0..n {
                        let vip = v[(i, p)];
                        let viq = v[(i, q)];
                        v[(i, p)] = vip.scale(c) + viq * e_iphi.conj().scale(s);
                        v[(i, q)] = viq.scale(c) - vip * e_iphi.scale(s);
                    }
                }
            }
        }

        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[(i, i)].re, i)).collect();
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
        let eigenvalues: Vec<f64> = pairs.iter().map(|&(e, _)| e).collect();
        let mut vectors = CMatrix::zeros(n, n);
        for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
            for i in 0..n {
                vectors[(i, new_col)] = v[(i, old_col)];
            }
        }
        (eigenvalues, vectors)
    }
}

/// A 2×2 operator stored inline, row-major: `[m00, m01, m10, m11]`.
pub(crate) type Mat2 = [C64; 4];

/// The entries of a 2×2 [`CMatrix`].
pub(crate) fn mat2(m: &CMatrix) -> Mat2 {
    [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = C64;
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == C64::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = out[(i, j)];
                    out[(i, j)] = cur + a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ONE, C64::ZERO], &[C64::ZERO, C64::real(-1.0)]])
    }

    #[test]
    fn identity_multiplication() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        assert_eq!(&x * &id, x);
        assert_eq!(&id * &x, x);
    }

    #[test]
    fn x_squared_is_identity() {
        let x = pauli_x();
        assert!((&x * &x).approx_eq(&CMatrix::identity(2), 1e-15));
    }

    #[test]
    fn dagger_of_unitary() {
        let y = CMatrix::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]]);
        assert!(y.is_unitary(1e-15));
        assert!(y.is_hermitian(1e-15));
        assert!((&y.dagger() * &y).approx_eq(&CMatrix::identity(2), 1e-15));
    }

    #[test]
    fn trace_of_paulis_is_zero() {
        assert!(pauli_x().trace().approx_eq(C64::ZERO, 1e-15));
        assert!(pauli_z().trace().approx_eq(C64::ZERO, 1e-15));
        assert!(CMatrix::identity(4)
            .trace()
            .approx_eq(C64::real(4.0), 1e-15));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let z = pauli_z();
        let xz = x.kron(&z);
        assert_eq!(xz.rows(), 4);
        // (XZ)[0,2] = X[0,1] * Z[0,0] = 1
        assert_eq!(xz[(0, 2)], C64::ONE);
        assert_eq!(xz[(1, 3)], C64::real(-1.0));
        assert_eq!(xz[(0, 0)], C64::ZERO);
    }

    #[test]
    fn phase_insensitive_comparison() {
        let x = pauli_x();
        let phased = x.scale(C64::cis(1.234));
        assert!(!phased.approx_eq(&x, 1e-9));
        assert!(phased.approx_eq_up_to_phase(&x, 1e-9));
        assert!(!pauli_z().approx_eq_up_to_phase(&x, 1e-9));
    }

    #[test]
    fn eigh_pauli_z() {
        let (vals, vecs) = pauli_z().eigh();
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] + 1.0).abs() < 1e-10);
        // Eigenvector of +1 is |0>.
        assert!(vecs[(0, 0)].abs() > 0.999);
    }

    #[test]
    fn eigh_pauli_x() {
        let (vals, vecs) = pauli_x().eigh();
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] + 1.0).abs() < 1e-10);
        // Eigenvector of +1 is (|0>+|1>)/sqrt(2) up to phase.
        let v0 = vecs[(0, 0)].abs();
        let v1 = vecs[(1, 0)].abs();
        assert!((v0 - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v1 - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
    }

    #[test]
    fn eigh_hermitian_with_complex_offdiagonal() {
        // H = [[2, i], [-i, 2]] has eigenvalues 3 and 1.
        let h = CMatrix::from_rows(&[&[C64::real(2.0), C64::I], &[-C64::I, C64::real(2.0)]]);
        let (vals, vecs) = h.eigh();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // Check A v = λ v for the leading eigenvector.
        let n = 2;
        for k in 0..n {
            let mut av = C64::ZERO;
            for j in 0..n {
                av += h[(k, j)] * vecs[(j, 0)];
            }
            assert!(av.approx_eq(vecs[(k, 0)].scale(vals[0]), 1e-9));
        }
    }

    #[test]
    fn eigh_reconstruction() {
        // Random-ish 4x4 Hermitian matrix: A = B + B†.
        let mut b = CMatrix::zeros(4, 4);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        };
        for i in 0..4 {
            for j in 0..4 {
                b[(i, j)] = C64::new(next(), next());
            }
        }
        let a = &b + &b.dagger();
        let (vals, v) = a.eigh();
        // Reconstruct A = V diag(vals) V†.
        let mut d = CMatrix::zeros(4, 4);
        for i in 0..4 {
            d[(i, i)] = C64::real(vals[i]);
        }
        let rec = &(&v * &d) * &v.dagger();
        assert!(
            rec.approx_eq(&a, 1e-8),
            "reconstruction failed:\n{rec}\nvs\n{a}"
        );
    }

    #[test]
    fn from_flat_square() {
        let m = CMatrix::from_flat(vec![C64::ONE; 9]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn from_flat_rejects_non_square() {
        let _ = CMatrix::from_flat(vec![C64::ONE; 8]);
    }
}

//! Column-major dense matrices with MATLAB resize semantics.

use crate::{RuntimeError, RuntimeResult};
use std::sync::{Arc, OnceLock};

/// Arrays above this element count are never oversized (paper §2.6.1:
/// "Large arrays are never oversized").
const OVERSIZE_LIMIT: usize = 1 << 20;

/// Per-matrix element-count ceiling (2²⁸ elements ≈ 2 GiB of doubles):
/// generous for every workload in the repo, small enough that a hostile
/// `zeros(n)` fails fast instead of aborting the process.
pub const NUMEL_LIMIT: usize = 1 << 28;

/// Validate a logical extent against `usize` overflow and
/// [`NUMEL_LIMIT`], returning the element count.
///
/// # Errors
///
/// [`RuntimeError::AllocLimit`] when `rows * cols` overflows or exceeds
/// [`NUMEL_LIMIT`].
pub fn checked_numel(rows: usize, cols: usize) -> RuntimeResult<usize> {
    match rows.checked_mul(cols) {
        Some(n) if n <= NUMEL_LIMIT => Ok(n),
        _ => Err(RuntimeError::AllocLimit {
            requested: format!("{rows}x{cols}"),
            limit: NUMEL_LIMIT,
        }),
    }
}

/// Counter of buffer snapshots forced by sharing: a mutation hit a
/// buffer with more than one owner and had to copy it first. Always
/// counted (the copy itself dwarfs the increment), so tests and benches
/// can assert copy elision without enabling profiling.
fn deep_copy_counter() -> &'static majic_trace::Counter {
    static C: OnceLock<&'static majic_trace::Counter> = OnceLock::new();
    C.get_or_init(|| majic_trace::counter("runtime.matrix.deep_copy"))
}

/// Counter of mutations that proved the buffer uniquely owned and wrote
/// in place. Per-element hot, so callers only pay the increment under
/// [`majic_trace::vm_profile_enabled`].
fn inplace_store_counter() -> &'static majic_trace::Counter {
    static C: OnceLock<&'static majic_trace::Counter> = OnceLock::new();
    C.get_or_init(|| majic_trace::counter("runtime.matrix.inplace_store"))
}

/// A column-major matrix with an explicit leading dimension.
///
/// The logical extent is `rows × cols`; the allocation holds
/// `lda × alloc_cols` elements with `lda ≥ rows`. Keeping slack between
/// logical and allocated extents implements the paper's *oversizing*
/// optimization: growing an array within its allocation only bumps the
/// logical extent, avoiding the re-layout that makes repeated MATLAB
/// resizes "tremendously expensive".
///
/// The buffer is `Arc`-shared: cloning a matrix (and therefore binding
/// `x = y`, passing arguments, returning results) is O(1). Every
/// mutation funnels through the private `data_mut`, which writes in place
/// when the buffer is uniquely owned and snapshots it first when shared
/// — observable MATLAB value semantics at copy-on-write cost. The two
/// outcomes are counted as `runtime.matrix.deep_copy` and
/// `runtime.matrix.inplace_store`.
#[derive(Clone, Debug)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    lda: usize,
    data: Arc<Vec<T>>,
}

impl<T: Clone + Default + PartialEq> Matrix<T> {
    /// A `rows × cols` matrix of default elements (zeros).
    ///
    /// # Panics
    ///
    /// Panics if the extent overflows or exceeds [`NUMEL_LIMIT`] — use
    /// [`Matrix::try_zeros`] where the extent is program-controlled.
    pub fn zeros(rows: usize, cols: usize) -> Matrix<T> {
        Matrix::try_zeros(rows, cols).expect("matrix extent within the allocation ceiling")
    }

    /// A `rows × cols` matrix of default elements, with the extent
    /// validated first ([`checked_numel`]): the allocation either covers
    /// the full logical extent or fails as a catchable runtime error —
    /// a wrapped `rows * cols` can never under-allocate.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AllocLimit`] on overflow or ceiling excess.
    pub fn try_zeros(rows: usize, cols: usize) -> RuntimeResult<Matrix<T>> {
        let numel = checked_numel(rows, cols)?;
        if majic_trace::vm_profile_enabled() {
            majic_trace::counter("matrix.alloc").inc();
        }
        Ok(Matrix {
            rows,
            cols,
            lda: rows,
            data: Arc::new(vec![T::default(); numel]),
        })
    }

    /// A matrix from column-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` (the product computed
    /// without wrapping).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Matrix<T> {
        assert_eq!(
            rows.checked_mul(cols),
            Some(data.len()),
            "column-major data length"
        );
        Matrix {
            rows,
            cols,
            lda: rows,
            data: Arc::new(data),
        }
    }

    /// A `1 × 1` matrix.
    pub fn scalar(v: T) -> Matrix<T> {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// A matrix from row-major nested vectors (test convenience).
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Matrix<T> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = vec![T::default(); r * c];
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                data[j * r + i] = v.clone();
            }
        }
        Matrix::from_vec(r, c, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the allocation (`≥ rows`).
    pub fn lda(&self) -> usize {
        self.lda
    }

    /// Total logical element count.
    pub fn numel(&self) -> usize {
        self.rows * self.cols
    }

    /// Is the logical extent empty?
    pub fn is_empty(&self) -> bool {
        self.numel() == 0
    }

    /// Is this `1 × 1`?
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Is this a row or column vector (or scalar)?
    pub fn is_vector(&self) -> bool {
        self.rows == 1 || self.cols == 1
    }

    /// Element at 0-based `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of the logical extent.
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[c * self.lda + r].clone()
    }

    /// Element at 0-based column-major linear index.
    ///
    /// # Panics
    ///
    /// Panics if out of the logical extent.
    pub fn get_linear(&self, k: usize) -> T {
        assert!(k < self.numel(), "linear index out of range");
        self.get(k % self.rows, k / self.rows)
    }

    /// The uniqueness-aware mutation choke point: every write goes
    /// through here. A uniquely-owned buffer is handed out in place
    /// (`runtime.matrix.inplace_store` under profiling); a shared one is
    /// snapshotted first (`runtime.matrix.deep_copy`, always counted),
    /// so no other owner can observe the mutation.
    fn data_mut(&mut self) -> &mut Vec<T> {
        if Arc::get_mut(&mut self.data).is_none() {
            deep_copy_counter().inc();
            self.data = Arc::new((*self.data).clone());
        } else if majic_trace::vm_profile_enabled() {
            inplace_store_counter().inc();
        }
        Arc::get_mut(&mut self.data).expect("buffer uniquely owned after unsharing")
    }

    /// Is the buffer uniquely owned (a mutation would write in place)?
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Do `self` and `other` share one buffer? (Test observability for
    /// the CoW invariants; two logically-equal matrices may or may not
    /// share.)
    pub fn shares_buffer_with(&self, other: &Matrix<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Address of the backing allocation (test observability: unchanged
    /// across a store loop ⇔ no copy and no re-layout happened).
    pub fn data_ptr(&self) -> *const T {
        self.data.as_ptr()
    }

    /// A physically independent copy, whatever the sharing state — what
    /// every assignment paid before copy-on-write buffers (the
    /// `figure_copyelision` baseline).
    pub fn deep_clone(&self) -> Matrix<T> {
        deep_copy_counter().inc();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            lda: self.lda,
            data: Arc::new((*self.data).clone()),
        }
    }

    /// Overwrite element at 0-based `(r, c)` (copy-on-write).
    ///
    /// # Panics
    ///
    /// Panics if out of the logical extent.
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        let lda = self.lda;
        self.data_mut()[c * lda + r] = v;
    }

    /// Overwrite element at 0-based linear index (copy-on-write).
    ///
    /// # Panics
    ///
    /// Panics if out of the logical extent.
    pub fn set_linear(&mut self, k: usize, v: T) {
        assert!(k < self.numel(), "linear index out of range");
        let (r, c) = (k % self.rows, k / self.rows);
        self.set(r, c, v);
    }

    /// The first element (MATLAB scalar coercion).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn first(&self) -> T {
        assert!(!self.is_empty(), "empty matrix has no first element");
        self.data[0].clone()
    }

    /// Iterate elements in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.cols).flat_map(move |c| self.data[c * self.lda..c * self.lda + self.rows].iter())
    }

    /// Collect the logical contents into a contiguous column-major vector.
    pub fn to_contiguous(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }

    /// One column as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn col(&self, c: usize) -> &[T] {
        assert!(c < self.cols);
        &self.data[c * self.lda..c * self.lda + self.rows]
    }

    /// The logical contents as one contiguous column-major slice, when
    /// the allocation has no row slack (`lda == rows`): columns then sit
    /// back-to-back at the front of the buffer, so the first `numel`
    /// elements are exactly the logical contents. `None` when oversizing
    /// slack forces per-column iteration — the parallel kernels in
    /// [`crate::par`] bypass to the sequential path in that case.
    pub fn as_contiguous_slice(&self) -> Option<&[T]> {
        let n = self.numel();
        if self.lda == self.rows && self.data.len() >= n {
            Some(&self.data[..n])
        } else {
            None
        }
    }

    /// Element read without the logical-extent check.
    ///
    /// # Safety
    ///
    /// `r < self.rows()` and `c < self.cols()` must hold; compiled code
    /// may only emit this access when type inference proved the bounds
    /// (paper §2.4, subscript check removal).
    #[inline]
    pub unsafe fn get_unchecked(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        // SAFETY: caller guarantees the logical bounds, and the
        // allocation always covers the logical extent.
        unsafe { self.data.get_unchecked(c * self.lda + r).clone() }
    }

    /// Element write without the logical-extent check (still
    /// copy-on-write).
    ///
    /// # Safety
    ///
    /// `r < self.rows()` and `c < self.cols()` must hold.
    #[inline]
    pub unsafe fn set_unchecked(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        let lda = self.lda;
        let data = self.data_mut();
        // SAFETY: caller guarantees the logical bounds.
        unsafe {
            *data.get_unchecked_mut(c * lda + r) = v;
        }
    }

    /// Map every element.
    pub fn map<U: Clone + Default + PartialEq>(&self, mut f: impl FnMut(&T) -> U) -> Matrix<U> {
        let data = self.iter().map(&mut f).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Zip two equal-shape matrices elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (callers check first and raise a proper
    /// runtime error).
    pub fn zip<U: Clone + Default + PartialEq, V: Clone + Default + PartialEq>(
        &self,
        other: &Matrix<U>,
        mut f: impl FnMut(&T, &U) -> V,
    ) -> Matrix<V> {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .iter()
            .zip(other.iter())
            .map(|(a, b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Transpose (copies).
    pub fn transpose(&self) -> Matrix<T> {
        let mut data = vec![T::default(); self.numel()];
        for c in 0..self.cols {
            for r in 0..self.rows {
                data[r * self.cols + c] = self.get(r, c);
            }
        }
        Matrix::from_vec(self.cols, self.rows, data)
    }

    /// Grow the logical extent to at least `(new_rows, new_cols)`,
    /// zero-filling new cells.
    ///
    /// # Panics
    ///
    /// Panics if the target extent overflows or exceeds [`NUMEL_LIMIT`]
    /// — use [`Matrix::try_grow`] where the extent is program-controlled
    /// (e.g. growth driven by a user subscript).
    pub fn grow(&mut self, new_rows: usize, new_cols: usize, oversize: bool) {
        self.try_grow(new_rows, new_cols, oversize)
            .expect("growth within the allocation ceiling");
    }

    /// Grow the logical extent to at least `(new_rows, new_cols)`,
    /// zero-filling new cells, after validating the extent against
    /// [`checked_numel`].
    ///
    /// With `oversize` set, a re-layout allocates ~10% slack in each grown
    /// dimension so that subsequent growth stays within the allocation
    /// (paper §2.6.1). Oversizing is skipped for large arrays. Growth
    /// within the existing allocation never copies.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AllocLimit`] when the target logical extent
    /// overflows or exceeds the ceiling (the matrix is left unchanged).
    pub fn try_grow(
        &mut self,
        new_rows: usize,
        new_cols: usize,
        oversize: bool,
    ) -> RuntimeResult<()> {
        let new_rows = new_rows.max(self.rows);
        let new_cols = new_cols.max(self.cols);
        checked_numel(new_rows, new_cols)?;
        if new_rows == self.rows && new_cols == self.cols {
            return Ok(());
        }
        let alloc_cols = self.data.len().checked_div(self.lda).unwrap_or(0);
        if majic_trace::vm_profile_enabled() {
            majic_trace::counter("matrix.grow").inc();
        }
        if new_rows <= self.lda && new_cols <= alloc_cols {
            // Fits: bump the logical extent. Cells inside the allocation
            // start zeroed and are re-zeroed on shrink-free growth paths,
            // so no fill is needed.
            self.rows = new_rows;
            self.cols = new_cols;
            return Ok(());
        }
        // Re-layout required.
        if majic_trace::vm_profile_enabled() {
            majic_trace::counter("matrix.relayout").inc();
        }
        let big = new_rows.saturating_mul(new_cols) > OVERSIZE_LIMIT;
        let headroom = |n: usize, grew: bool| {
            if oversize && !big && grew {
                n + n / 10 + 1
            } else {
                n
            }
        };
        let mut new_lda = headroom(new_rows, new_rows > self.rows).max(self.lda);
        let mut new_alloc_cols = headroom(new_cols, new_cols > self.cols).max(alloc_cols);
        if new_lda.checked_mul(new_alloc_cols).is_none() {
            // Headroom overflowed the address space: fall back to the
            // exact (already validated) extent.
            new_lda = new_rows.max(self.lda);
            new_alloc_cols = new_cols.max(alloc_cols);
        }
        let mut data = vec![T::default(); new_lda * new_alloc_cols];
        for c in 0..self.cols {
            for r in 0..self.rows {
                data[c * new_lda + r] = self.data[c * self.lda + r].clone();
            }
        }
        self.data = Arc::new(data);
        self.lda = new_lda;
        self.rows = new_rows;
        self.cols = new_cols;
        Ok(())
    }

    /// A `new_rows × new_cols` view sharing this buffer, when the
    /// element count matches and the buffer is contiguous (`lda ==
    /// rows`, no column slack). `None` otherwise — the caller falls
    /// back to a copying reshape. Makes `A(:)` O(1) under CoW.
    pub fn reshaped(&self, new_rows: usize, new_cols: usize) -> Option<Matrix<T>> {
        let contiguous = self.lda == self.rows && self.data.len() == self.numel();
        if contiguous && new_rows.checked_mul(new_cols) == Some(self.numel()) {
            Some(Matrix {
                rows: new_rows,
                cols: new_cols,
                lda: new_rows,
                data: Arc::clone(&self.data),
            })
        } else {
            None
        }
    }

    /// Does the allocation have slack beyond the logical extent?
    /// (Observable effect of oversizing; used by tests and benches.)
    pub fn has_slack(&self) -> bool {
        self.lda > self.rows || self.data.len() > self.lda * self.cols
    }
}

impl<T: Clone + Default + PartialEq> PartialEq for Matrix<T> {
    /// Logical-content equality: allocation slack is invisible.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_zeros_rejects_overflowing_and_oversized_extents() {
        // rows * cols wrapping usize must never produce a small buffer
        // behind a huge logical extent.
        assert!(matches!(
            Matrix::<f64>::try_zeros(usize::MAX, 2),
            Err(RuntimeError::AllocLimit { .. })
        ));
        // Beyond the ceiling but without overflow: same error.
        assert!(matches!(
            Matrix::<f64>::try_zeros(NUMEL_LIMIT, 2),
            Err(RuntimeError::AllocLimit { .. })
        ));
        // Within the ceiling: fine.
        assert!(Matrix::<f64>::try_zeros(4, 4).is_ok());
    }

    #[test]
    fn try_grow_rejects_oversized_extents() {
        let mut m: Matrix<f64> = Matrix::zeros(2, 2);
        assert!(matches!(
            m.try_grow(usize::MAX, 2, true),
            Err(RuntimeError::AllocLimit { .. })
        ));
        // The failed growth must leave the matrix untouched.
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert!(m.try_grow(3, 3, false).is_ok());
        assert_eq!((m.rows(), m.cols()), (3, 3));
    }

    #[test]
    fn contiguous_slice_requires_no_row_slack() {
        let m = Matrix::from_rows(vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(m.as_contiguous_slice(), Some(&[1.0, 2.0, 3.0, 4.0][..]));
        // Column slack beyond the logical extent is fine: the logical
        // prefix is still contiguous.
        let mut c: Matrix<f64> = Matrix::zeros(2, 1);
        c.grow(2, 2, true);
        assert!(c.as_contiguous_slice().is_some());
        // Row slack (lda > rows) interleaves padding between columns.
        let mut s: Matrix<f64> = Matrix::zeros(2, 2);
        s.grow(3, 2, true);
        assert!(s.as_contiguous_slice().is_none());
    }

    #[test]
    fn checked_numel_boundaries() {
        assert_eq!(checked_numel(0, 0).unwrap(), 0);
        assert_eq!(checked_numel(1, NUMEL_LIMIT).unwrap(), NUMEL_LIMIT);
        assert!(checked_numel(1, NUMEL_LIMIT + 1).is_err());
        assert!(checked_numel(usize::MAX, usize::MAX).is_err());
    }

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        // Column-major linear indexing.
        assert_eq!(m.get_linear(1), 3.0);
        assert_eq!(m.get_linear(2), 2.0);
    }

    #[test]
    fn copy_on_write() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        let mut b = a.clone();
        assert!(b.shares_buffer_with(&a));
        assert!(!a.is_unique());
        b.set(0, 0, 9.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(b.get(0, 0), 9.0);
        // The store unshared b; both sides are unique again.
        assert!(!b.shares_buffer_with(&a));
        assert!(a.is_unique() && b.is_unique());
    }

    #[test]
    fn unique_buffer_is_never_copied_on_store() {
        let mut m: Matrix<f64> = Matrix::zeros(8, 8);
        let p = m.data_ptr();
        for k in 0..m.numel() {
            m.set_linear(k, k as f64);
        }
        // Same allocation throughout: every store went in place.
        assert_eq!(m.data_ptr(), p);
        assert!(m.is_unique());
    }

    #[test]
    fn deep_clone_is_physically_independent() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        let b = a.deep_clone();
        assert_eq!(a, b);
        assert!(!b.shares_buffer_with(&a));
        assert!(a.is_unique() && b.is_unique());
    }

    #[test]
    fn shared_in_allocation_growth_never_mutates_the_buffer() {
        // x and y share one oversized buffer; growing x within the
        // allocation must neither re-layout nor touch shared cells.
        let mut x: Matrix<f64> = Matrix::zeros(10, 1);
        x.grow(11, 1, true);
        assert!(x.has_slack());
        let y = x.clone();
        let p = x.data_ptr();
        x.grow(12, 1, true);
        // Still the shared allocation: growth only bumped x's extent.
        assert!(x.shares_buffer_with(&y));
        assert_eq!(x.data_ptr(), p);
        assert_eq!(y.rows(), 11);
        // The first store into the grown region snapshots for x only.
        x.set(11, 0, 7.0);
        assert!(!x.shares_buffer_with(&y));
        assert_eq!(y.data_ptr(), p);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reshaped_shares_contiguous_buffers() {
        let m = Matrix::from_rows(vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
        let v = m.reshaped(4, 1).expect("contiguous");
        assert!(v.shares_buffer_with(&m));
        assert_eq!(v.to_contiguous(), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(m.reshaped(3, 1).is_none(), "element count must match");
        // Slack from oversizing breaks contiguity: no shared view.
        let mut s: Matrix<f64> = Matrix::zeros(2, 2);
        s.grow(3, 2, true);
        assert!(s.reshaped(6, 1).is_none());
    }

    #[test]
    fn oversize_headroom_applies_at_exactly_the_limit() {
        // numel == OVERSIZE_LIMIT is not "large": headroom still applies
        // ("large arrays are never oversized" is strictly above).
        let mut m: Matrix<f64> = Matrix::zeros(1, 1);
        m.grow(1, OVERSIZE_LIMIT, true);
        assert_eq!((m.rows(), m.cols()), (1, OVERSIZE_LIMIT));
        assert!(m.has_slack());
        // Growth within the headroom stays in the allocation.
        let p = m.data_ptr();
        m.grow(1, OVERSIZE_LIMIT + 1, true);
        assert_eq!(m.data_ptr(), p);
    }

    #[test]
    fn oversize_headroom_is_skipped_one_above_the_limit() {
        let mut m: Matrix<f64> = Matrix::zeros(1, 1);
        m.grow(1, OVERSIZE_LIMIT + 1, true);
        assert_eq!((m.rows(), m.cols()), (1, OVERSIZE_LIMIT + 1));
        assert!(!m.has_slack(), "large arrays are never oversized");
    }

    #[test]
    fn grow_zero_fills() {
        let mut m = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        m.grow(2, 3, false);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn oversized_growth_avoids_relayout() {
        let mut m: Matrix<f64> = Matrix::zeros(10, 1);
        m.grow(11, 1, true);
        assert!(m.has_slack());
        let lda_after_first = m.lda();
        // Growing within the slack must not re-layout.
        m.grow(12, 1, true);
        assert_eq!(m.lda(), lda_after_first);
    }

    #[test]
    fn unoversized_growth_relayouts_every_time() {
        let mut m: Matrix<f64> = Matrix::zeros(10, 1);
        m.grow(11, 1, false);
        assert_eq!(m.lda(), 11);
        m.grow(12, 1, false);
        assert_eq!(m.lda(), 12);
    }

    #[test]
    fn equality_ignores_slack() {
        let mut a: Matrix<f64> = Matrix::zeros(2, 2);
        let mut b: Matrix<f64> = Matrix::zeros(1, 1);
        b.grow(2, 2, true);
        a.set(1, 1, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn transpose() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn growth_preserves_contents_across_relayout() {
        let mut m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.grow(5, 5, true);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(4, 4), 0.0);
    }

    #[test]
    fn iter_respects_lda() {
        let mut m = Matrix::from_rows(vec![vec![1.0], vec![2.0]]);
        m.grow(3, 1, true); // introduces lda slack
        m.grow(3, 2, true);
        let v = m.to_contiguous();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 0.0);
    }
}

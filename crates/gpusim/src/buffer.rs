//! Global device memory with the paper's staggered multiple double layout.
//!
//! A vector of `n` multiple doubles with `m` limb planes is stored as `m`
//! contiguous arrays of `n` doubles — "an array `U = [U1, U2, ..., Um]` of
//! `m` matrices, where `U1` holds the most significant doubles and `Um`
//! the least significant doubles" (paper, end of Algorithm 1). Complex
//! scalars add the imaginary planes after the real ones.
//!
//! Buffers are written through `&self` so that blocks of one kernel launch
//! can execute on parallel host threads, mirroring CUDA semantics: blocks
//! of a launch must write disjoint elements (this is upheld by every
//! kernel in this workspace and spot-checked by the sequential/parallel
//! equivalence tests).
//!
//! Accesses are plain loads and stores: no traffic is counted here. A
//! launch's global memory bytes come from its analytic
//! [`KernelCost`](crate::KernelCost), the same for functional and
//! model-only runs.

use core::cell::UnsafeCell;

use multidouble::MdScalar;

/// One f64 cell that can be shared across block threads.
#[repr(transparent)]
struct Cell64(UnsafeCell<f64>);

// Safety: access discipline is the CUDA contract — concurrent writes to the
// same element within one launch are forbidden by kernel construction.
unsafe impl Sync for Cell64 {}

/// A device buffer of `len` scalars stored as `S::PLANES` limb planes.
pub struct DeviceBuf<S: MdScalar> {
    /// plane-major storage: `planes[p][i]` is plane `p` of element `i`.
    data: Vec<Cell64>,
    len: usize,
    _marker: core::marker::PhantomData<S>,
}

impl<S: MdScalar> DeviceBuf<S> {
    /// Allocate a zeroed buffer of `len` scalars.
    pub fn zeroed(len: usize) -> Self {
        let mut data = Vec::with_capacity(len * S::PLANES);
        data.resize_with(len * S::PLANES, || Cell64(UnsafeCell::new(0.0)));
        DeviceBuf {
            data,
            len,
            _marker: core::marker::PhantomData,
        }
    }

    /// An empty placeholder used in model-only simulations (holds no
    /// storage; any access panics).
    pub fn unmaterialized(len: usize) -> Self {
        DeviceBuf {
            data: Vec::new(),
            len,
            _marker: core::marker::PhantomData,
        }
    }

    /// Whether the buffer holds real storage.
    pub fn is_materialized(&self) -> bool {
        !self.data.is_empty() || self.len == 0
    }

    /// Number of scalars.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn plane_idx(&self, plane: usize, i: usize) -> usize {
        plane * self.len + i
    }

    /// Read scalar `i`, gathering all limb planes.
    #[inline]
    pub fn get(&self, i: usize) -> S {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        let mut planes = [0.0f64; 16];
        for p in 0..S::PLANES {
            // Safety: in-bounds; concurrent reads are fine.
            planes[p] = unsafe { *self.data[self.plane_idx(p, i)].0.get() };
        }
        S::from_planes(&planes[..S::PLANES])
    }

    /// Write scalar `i`, scattering all limb planes.
    #[inline]
    pub fn set(&self, i: usize, v: S) {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        for p in 0..S::PLANES {
            // Safety: in-bounds; disjoint-write contract per launch.
            unsafe {
                *self.data[self.plane_idx(p, i)].0.get() = v.plane(p);
            }
        }
    }

    /// Host-to-device copy.
    pub fn upload(&self, host: &[S]) {
        assert_eq!(host.len(), self.len, "upload size mismatch");
        for (i, v) in host.iter().enumerate() {
            self.set(i, *v);
        }
    }

    /// Device-to-host copy.
    pub fn download(&self) -> Vec<S> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Raw view of one limb plane (for layout tests).
    pub fn plane_snapshot(&self, plane: usize) -> Vec<f64> {
        assert!(plane < S::PLANES);
        (0..self.len)
            // Safety: plane_idx is in bounds (plane asserted above, i < len)
            // and no kernel is running while a layout test snapshots.
            .map(|i| unsafe { *self.data[self.plane_idx(plane, i)].0.get() })
            .collect()
    }
}

/// A device matrix in **column-major** order (LAPACK convention: a column
/// of a tile is contiguous, which is what the Householder kernels walk).
pub struct DeviceMat<S: MdScalar> {
    /// Backing buffer of `rows * cols` scalars.
    pub buf: DeviceBuf<S>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl<S: MdScalar> DeviceMat<S> {
    /// Allocate a zeroed matrix.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        DeviceMat {
            buf: DeviceBuf::zeroed(rows * cols),
            rows,
            cols,
        }
    }

    /// Model-only placeholder.
    pub fn unmaterialized(rows: usize, cols: usize) -> Self {
        DeviceMat {
            buf: DeviceBuf::unmaterialized(rows * cols),
            rows,
            cols,
        }
    }

    /// Linear index of `(r, c)`.
    #[inline(always)]
    pub fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        c * self.rows + r
    }

    /// Read element `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> S {
        self.buf.get(self.idx(r, c))
    }

    /// Write element `(r, c)`.
    #[inline(always)]
    pub fn set(&self, r: usize, c: usize, v: S) {
        self.buf.set(self.idx(r, c), v)
    }

    /// Upload from a column-major host slice.
    pub fn upload_col_major(&self, host: &[S]) {
        self.buf.upload(host);
    }

    /// Download to a column-major vector.
    pub fn download_col_major(&self) -> Vec<S> {
        self.buf.download()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd, Qd};

    #[test]
    fn staggered_layout_is_plane_major() {
        let buf = DeviceBuf::<Dd>::zeroed(3);
        buf.set(0, Dd::from_parts(1.0, 1e-20));
        buf.set(1, Dd::from_parts(2.0, 2e-20));
        buf.set(2, Dd::from_parts(3.0, 3e-20));
        // plane 0 holds all the most significant doubles, contiguously
        assert_eq!(buf.plane_snapshot(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(buf.plane_snapshot(1), vec![1e-20, 2e-20, 3e-20]);
    }

    #[test]
    fn complex_planes_real_then_imag() {
        let buf = DeviceBuf::<Complex<Dd>>::zeroed(2);
        let z = Complex::new(Dd::from_f64(1.5), Dd::from_f64(-2.5));
        buf.set(1, z);
        assert_eq!(buf.plane_snapshot(0), vec![0.0, 1.5]); // re hi
        assert_eq!(buf.plane_snapshot(2), vec![0.0, -2.5]); // im hi
        assert_eq!(buf.get(1), z);
    }

    #[test]
    fn upload_download_roundtrip() {
        let host = vec![Qd::from_f64(1.0), Qd::PI, Qd::from_f64(-3.25)];
        let buf = DeviceBuf::<Qd>::zeroed(3);
        buf.upload(&host);
        assert_eq!(buf.download(), host);
    }

    #[test]
    fn matrix_is_column_major() {
        let m = DeviceMat::<f64>::zeroed(2, 3);
        m.set(0, 0, 1.0);
        m.set(1, 0, 2.0);
        m.set(0, 1, 3.0);
        assert_eq!(m.buf.plane_snapshot(0), vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "upload size mismatch")]
    fn upload_size_checked() {
        let buf = DeviceBuf::<f64>::zeroed(2);
        buf.upload(&[1.0]);
    }
}

//! Dense row-major `f32` tensor.
//!
//! This is the plain (non-differentiable) numeric workhorse. The autograd
//! layer in [`crate::graph`] stores `Tensor`s as node payloads and gradient
//! buffers; all numeric kernels here are pure functions so they can be tested
//! against hand-computed values and reused by both forward and backward
//! passes.

use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values with rank 0..=2.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Build a tensor from a shape and a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != shape.len()`.
    pub fn new(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "tensor data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// A scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::new(Shape::Scalar, vec![v])
    }

    /// A vector tensor from a slice.
    pub fn vector(values: &[f32]) -> Self {
        Tensor::new(Shape::Vector(values.len()), values.to_vec())
    }

    /// A matrix tensor from a flat row-major slice.
    pub fn matrix(rows: usize, cols: usize, values: &[f32]) -> Self {
        Tensor::new(Shape::Matrix(rows, cols), values.to_vec())
    }

    /// A matrix built from nested row slices (test convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::from_rows");
            data.extend_from_slice(row);
        }
        Tensor::new(Shape::Matrix(r, c), data)
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// All-one tensor of the given shape.
    pub fn ones(shape: Shape) -> Self {
        Tensor {
            shape,
            data: vec![1.0; shape.len()],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: Shape, v: f32) -> Self {
        Tensor {
            shape,
            data: vec![v; shape.len()],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(Shape::Matrix(n, n));
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rows when viewed as a matrix.
    pub fn rows(&self) -> usize {
        self.shape.rows()
    }

    /// Columns when viewed as a matrix.
    pub fn cols(&self) -> usize {
        self.shape.cols()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single value of a scalar tensor.
    ///
    /// # Panics
    /// Panics when the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.shape,
            Shape::Scalar,
            "item() called on non-scalar tensor of shape {}",
            self.shape
        );
        self.data[0]
    }

    /// Element at `(row, col)` in the matrix view.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        let c = self.cols();
        debug_assert!(row < self.rows() && col < c, "index out of bounds");
        self.data[row * c + col]
    }

    /// Set element at `(row, col)` in the matrix view.
    pub fn set(&mut self, row: usize, col: usize, v: f32) {
        let c = self.cols();
        debug_assert!(row < self.rows() && col < c, "index out of bounds");
        self.data[row * c + col] = v;
    }

    /// Borrow one row of the matrix view.
    pub fn row(&self, row: usize) -> &[f32] {
        let c = self.cols();
        &self.data[row * c..(row + 1) * c]
    }

    /// Mutably borrow one row of the matrix view.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[row * c..(row + 1) * c]
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    pub fn reshape(mut self, shape: Shape) -> Self {
        assert_eq!(
            self.len(),
            shape.len(),
            "reshape from {} to {shape} changes element count",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Apply a function to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combine two same-shape tensors elementwise.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, rhs.shape,
            "elementwise op on mismatched shapes {} vs {}",
            self.shape, rhs.shape
        );
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += alpha * rhs` (axpy). Shapes must match.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(
            self.shape, rhs.shape,
            "axpy on mismatched shapes {} vs {}",
            self.shape, rhs.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm of the buffer.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// True when every element is finite (no NaN/∞) — used by training-loop
    /// sanity assertions.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Fill with zeros in place, keeping the allocation.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        match self.shape {
            Shape::Scalar => write!(f, "{}", self.data[0]),
            Shape::Vector(_) => write!(f, "{:?}", self.data),
            Shape::Matrix(r, _) => {
                writeln!(f, "[")?;
                for i in 0..r {
                    writeln!(f, "  {:?},", self.row(i))?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn new_rejects_wrong_length() {
        Tensor::new(Shape::Matrix(2, 2), vec![1.0; 3]);
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
        assert_eq!(Tensor::vector(&[1.0, 2.0]).shape(), Shape::Vector(2));
        let m = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.at(1, 0), 3.0);
        assert_eq!(Tensor::ones(Shape::Vector(3)).sum(), 3.0);
        assert_eq!(Tensor::full(Shape::Matrix(2, 2), 0.5).sum(), 2.0);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(0, 0), 1.0);
        assert_eq!(i.at(1, 2), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn row_access_and_set() {
        let mut m = Tensor::zeros(Shape::Matrix(2, 3));
        m.set(1, 2, 9.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 9.0]);
        m.row_mut(0)[1] = 4.0;
        assert_eq!(m.at(0, 1), 4.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let v = Tensor::vector(&[1.0, 2.0, 3.0, 4.0]);
        let m = v.reshape(Shape::Matrix(2, 2));
        assert_eq!(m.at(1, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_size_change() {
        Tensor::vector(&[1.0, 2.0]).reshape(Shape::Matrix(2, 2));
    }

    #[test]
    fn map_zip_axpy() {
        let a = Tensor::vector(&[1.0, -2.0]);
        let b = Tensor::vector(&[3.0, 4.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).as_slice(), &[3.0, -8.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[7.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::vector(&[1.0, 2.0, 3.0]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.sq_norm(), 14.0);
    }

    #[test]
    fn finiteness_check() {
        assert!(Tensor::vector(&[1.0, 2.0]).all_finite());
        assert!(!Tensor::vector(&[1.0, f32::NAN]).all_finite());
        assert!(!Tensor::vector(&[f32::INFINITY]).all_finite());
    }

    #[test]
    fn zero_in_place() {
        let mut t = Tensor::ones(Shape::Vector(4));
        t.zero_();
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn empty_tensor_mean_is_zero() {
        assert_eq!(Tensor::zeros(Shape::Vector(0)).mean(), 0.0);
    }
}

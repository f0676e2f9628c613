use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Error, Serialize, Value};

use crate::{Shape, ShapeError};

/// An owned, row-major `f32` n-dimensional array.
///
/// `Tensor` is the single numeric container shared by the float network
/// ([`mp-nn`]), the binarised network's training path, and the dataset
/// generators. It deliberately stays simple: owned storage, row-major
/// layout, and checked shape arithmetic, trading a copy here and there for
/// an API that cannot alias or dangle.
///
/// # Example
///
/// ```
/// use mp_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let t = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
/// assert_eq!(t.len(), 12);
/// let u = t.map(|x| x + 1.0);
/// assert!(u.iter().all(|&x| x == 1.0));
/// # Ok(())
/// # }
/// ```
///
/// [`mp-nn`]: https://example.com/multiprec
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// Rebuilds a tensor through [`Tensor::from_vec`], so a payload whose
/// `data` length disagrees with its `shape` is an error instead of a
/// tensor that kernels would index out of bounds.
impl<'de> Deserialize<'de> for Tensor {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let shape = Shape::from_value(value.get_field("shape")?)?;
        let data = Vec::<f32>::from_value(value.get_field("data")?)?;
        Tensor::from_vec(shape, data).map_err(Error::custom)
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::filled(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn filled(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Wraps a data vector in a tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not match the shape's
    /// element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let shape = shape.into();
        let Some(len) = shape
            .dims()
            .iter()
            .try_fold(1usize, |len, &d| len.checked_mul(d))
        else {
            return Err(ShapeError::new(
                "from_vec",
                format!("shape {shape} holds more than usize::MAX elements"),
            ));
        };
        if len != data.len() {
            return Err(ShapeError::new(
                "from_vec",
                format!(
                    "shape {shape} holds {len} elements but {} were provided",
                    data.len()
                ),
            ));
        }
        Ok(Self { shape, data })
    }

    /// Builds a tensor by evaluating `f` at each linear index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(&mut f).collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, index: &[usize]) -> Result<f32, ShapeError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank mismatch or out-of-bounds coordinates.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), ShapeError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutably iterates over elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, ShapeError> {
        let shape = shape.into();
        self.shape.check_same_len(&shape, "reshape")?;
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Consuming variant of [`reshape`](Self::reshape) that avoids a copy.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when element counts differ.
    pub fn into_reshaped(self, shape: impl Into<Shape>) -> Result<Tensor, ShapeError> {
        let shape = shape.into();
        self.shape.check_same_len(&shape, "into_reshaped")?;
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when shapes differ.
    pub fn zip_with(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(
                "zip_with",
                format!("shapes {} and {} differ", self.shape, other.shape),
            ));
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Adds `scale * other` into `self` (the BLAS `axpy` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(
                "axpy",
                format!("shapes {} and {} differ", self.shape, other.shape),
            ));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale(&mut self, scale: f32) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element, or `None` for an empty tensor.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Minimum element, or `None` for an empty tensor.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Index of the maximum element (first on ties), or `None` when the
    /// tensor is empty or every element is NaN.
    ///
    /// NaN elements are ignored rather than poisoning the comparison; see
    /// [`nan_aware_argmax`].
    pub fn argmax(&self) -> Option<usize> {
        nan_aware_argmax(&self.data)
    }

    /// Extracts image `n` from an NCHW batch as a `[1, C, H, W]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank-4 or `n` is out of
    /// bounds.
    pub fn batch_item(&self, n: usize) -> Result<Tensor, ShapeError> {
        if self.shape.rank() != 4 {
            return Err(ShapeError::new(
                "batch_item",
                format!("expected rank-4 NCHW tensor, got {}", self.shape),
            ));
        }
        let (nn, c, h, w) = (
            self.shape.dim(0),
            self.shape.dim(1),
            self.shape.dim(2),
            self.shape.dim(3),
        );
        if n >= nn {
            return Err(ShapeError::new(
                "batch_item",
                format!("image {n} out of bounds for batch of {nn}"),
            ));
        }
        let stride = c * h * w;
        let data = self.data[n * stride..(n + 1) * stride].to_vec();
        Tensor::from_vec(Shape::nchw(1, c, h, w), data)
    }

    /// Row `r` of a rank-2 tensor as a vector tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank-2 or `r` is out of
    /// bounds.
    pub fn row(&self, r: usize) -> Result<Tensor, ShapeError> {
        if self.shape.rank() != 2 {
            return Err(ShapeError::new(
                "row",
                format!("expected matrix, got {}", self.shape),
            ));
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        if r >= rows {
            return Err(ShapeError::new(
                "row",
                format!("row {r} out of bounds for {rows} rows"),
            ));
        }
        Tensor::from_vec(
            Shape::vector(cols),
            self.data[r * cols..(r + 1) * cols].to_vec(),
        )
    }

    /// Stacks rank-4 `[1, C, H, W]` tensors into an `[N, C, H, W]` batch.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `items` is empty or the shapes disagree.
    pub fn stack_batch(items: &[Tensor]) -> Result<Tensor, ShapeError> {
        let first = items
            .first()
            .ok_or_else(|| ShapeError::new("stack_batch", "no tensors provided"))?;
        if first.shape.rank() != 4 || first.shape.dim(0) != 1 {
            return Err(ShapeError::new(
                "stack_batch",
                format!("expected [1,C,H,W] items, got {}", first.shape),
            ));
        }
        let mut data = Vec::with_capacity(first.len() * items.len());
        for item in items {
            if item.shape != first.shape {
                return Err(ShapeError::new(
                    "stack_batch",
                    format!("item shape {} differs from {}", item.shape, first.shape),
                ));
            }
            data.extend_from_slice(&item.data);
        }
        Tensor::from_vec(
            Shape::nchw(
                items.len(),
                first.shape.dim(1),
                first.shape.dim(2),
                first.shape.dim(3),
            ),
            data,
        )
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "[{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ; use [`Tensor::zip_with`] for a checked
    /// variant.
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
            .expect("tensor add: shape mismatch")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ; use [`Tensor::zip_with`] for a checked
    /// variant.
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
            .expect("tensor sub: shape mismatch")
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    /// In-place elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ; use [`Tensor::axpy`] for a checked variant.
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs)
            .expect("tensor add_assign: shape mismatch");
    }
}

/// Index of the largest finite-or-comparable value in `values`, skipping
/// NaN entries; first index wins ties. Returns `None` when the slice is
/// empty or all-NaN.
///
/// This is the single argmax used for classification everywhere in the
/// workspace (`Tensor::argmax`, `Network::argmax_rows`, the pipeline's
///// BNN score stage): a NaN score must never be silently reported as
/// "class 0", it must be skipped — and an all-NaN row must surface as an
/// explicit `None` the caller turns into an error.
pub fn nan_aware_argmax(values: &[f32]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &x) in values.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some(b) if values[b] >= x => {}
            _ => best = Some(i),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deserialize_checks_the_data_length_and_round_trips() {
        // Used to deserialize Ok and panic inside the GEMM kernel.
        let forged = r#"{"shape":{"dims":[2,2]},"data":[1.0]}"#;
        assert!(serde_json::from_str::<Tensor>(forged).is_err());
        let overflow = r#"{"shape":{"dims":[4294967296,4294967296]},"data":[]}"#;
        assert!(serde_json::from_str::<Tensor>(overflow).is_err());
        let t = Tensor::from_fn([2, 3], |i| i as f32 - 2.5);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(
            json,
            r#"{"shape":{"dims":[2,3]},"data":[-2.5,-1.5,-0.5,0.5,1.5,2.5]}"#
        );
        assert_eq!(serde_json::from_str::<Tensor>(&json).unwrap(), t);
    }

    #[test]
    fn constructors_fill_correctly() {
        assert!(Tensor::zeros([2, 2]).iter().all(|&x| x == 0.0));
        assert!(Tensor::ones([2, 2]).iter().all(|&x| x == 1.0));
        assert!(Tensor::filled([3], 2.5).iter().all(|&x| x == 2.5));
        let f = Tensor::from_fn([4], |i| i as f32);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![0.0; 4]).is_ok());
        assert!(Tensor::from_vec([2, 2], vec![0.0; 3]).is_err());
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape([4, 2]).is_err());
        let owned = t.into_reshaped([6]).unwrap();
        assert_eq!(owned.shape().dims(), &[6]);
    }

    #[test]
    fn map_and_zip_behave_elementwise() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([3], vec![10.0, 20.0, 30.0]).unwrap();
        assert_eq!(a.map(|x| x * 2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(
            a.zip_with(&b, |x, y| y - x).unwrap().as_slice(),
            &[9.0, 18.0, 27.0]
        );
        let c = Tensor::zeros([4]);
        assert!(a.zip_with(&c, |x, _| x).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones([2]);
        let g = Tensor::from_vec([2], vec![2.0, 4.0]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 5.0, 0.0]).unwrap();
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), Some(5.0));
        assert_eq!(t.min(), Some(-2.0));
        assert_eq!(t.argmax(), Some(2));
        let e = Tensor::zeros([0]);
        assert_eq!(e.argmax(), None);
        assert_eq!(e.mean(), 0.0);
    }

    #[test]
    fn argmax_takes_first_on_ties() {
        let t = Tensor::from_vec([3], vec![1.0, 1.0, 0.0]).unwrap();
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn argmax_skips_nan_instead_of_defaulting_to_zero() {
        assert_eq!(nan_aware_argmax(&[f32::NAN, 1.0, 2.0]), Some(2));
        assert_eq!(nan_aware_argmax(&[1.0, f32::NAN, 0.5]), Some(0));
        assert_eq!(nan_aware_argmax(&[f32::NAN, f32::NAN]), None);
        assert_eq!(nan_aware_argmax(&[]), None);
        assert_eq!(
            nan_aware_argmax(&[f32::NEG_INFINITY, f32::INFINITY]),
            Some(1)
        );
        let t = Tensor::from_vec([3], vec![f32::NAN, 0.1, 0.9]).unwrap();
        assert_eq!(t.argmax(), Some(2));
    }

    #[test]
    fn batch_item_extracts_images() {
        let t = Tensor::from_fn(Shape::nchw(2, 1, 2, 2), |i| i as f32);
        let img1 = t.batch_item(1).unwrap();
        assert_eq!(img1.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
        assert!(t.batch_item(2).is_err());
        assert!(Tensor::zeros([4]).batch_item(0).is_err());
    }

    #[test]
    fn stack_batch_inverts_batch_item() {
        let t = Tensor::from_fn(Shape::nchw(3, 2, 1, 1), |i| i as f32);
        let items: Vec<Tensor> = (0..3).map(|n| t.batch_item(n).unwrap()).collect();
        let restacked = Tensor::stack_batch(&items).unwrap();
        assert_eq!(restacked, t);
        assert!(Tensor::stack_batch(&[]).is_err());
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        assert_eq!(t.row(1).unwrap().as_slice(), &[3.0, 4.0, 5.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn operators_match_zip() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec([2], vec![3.0, 5.0]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros([2, 2]);
        assert!(!t.to_string().is_empty());
        let long = Tensor::zeros([16]);
        assert!(long.to_string().contains('…'));
    }
}

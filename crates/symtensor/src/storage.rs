//! Packed storage for dense symmetric tensors (Section III-A of the paper).
//!
//! A [`SymTensor`] stores one value per index class, in lexicographic order
//! of index representations, so a symmetric tensor in `R^[m,n]` occupies
//! `C(m+n-1, m)` scalars — a factor of about `m!` less than the `n^m`
//! entries of the full array — with no per-entry index metadata.

use crate::error::{Error, Result};
use crate::index::{IndexClass, IndexClassIter};
use crate::multinomial::{num_unique_entries, MAX_ORDER};
use crate::scalar::Scalar;
use rand::Rng;
use serde::{Deserialize, Serialize, Value};

/// A dense symmetric tensor in `R^[m,n]` in packed (unique-entry) storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SymTensor<S> {
    m: usize,
    n: usize,
    values: Vec<S>,
}

impl<S: Serialize> Serialize for SymTensor<S> {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("m", Value::UInt(self.m as u64)),
            ("n", Value::UInt(self.n as u64)),
            ("values", self.values.to_value()),
        ])
    }
}

impl<'de, S> Deserialize<'de> for SymTensor<S>
where
    S: for<'a> Deserialize<'a> + Scalar,
{
    fn from_value(value: &'de Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("SymTensor: missing field '{name}'")))
        };
        let m = field("m")?
            .as_u64()
            .ok_or_else(|| serde::Error::custom("SymTensor: 'm' must be an integer"))?
            as usize;
        let n = field("n")?
            .as_u64()
            .ok_or_else(|| serde::Error::custom("SymTensor: 'n' must be an integer"))?
            as usize;
        let values = Vec::<S>::from_value(field("values")?)?;
        SymTensor::from_values(m, n, values)
            .map_err(|e| serde::Error::custom(format!("SymTensor: {e}")))
    }
}

impl<S: Scalar> SymTensor<S> {
    /// Validate `(m, n)` and compute the packed length.
    fn checked_len(m: usize, n: usize) -> Result<usize> {
        if !(1..=MAX_ORDER).contains(&m) {
            return Err(Error::OrderOutOfRange(m));
        }
        if n < 1 {
            return Err(Error::DimensionOutOfRange(n));
        }
        Ok(num_unique_entries(m, n) as usize)
    }

    /// The zero tensor of order `m` and dimension `n`.
    ///
    /// A shape with `m` in `1..=20` and `n >= 1` is a debug-checked
    /// precondition; release builds yield an empty value buffer for
    /// invalid shapes.
    pub fn zeros(m: usize, n: usize) -> Self {
        let len = Self::checked_len(m, n).unwrap_or_else(|e| {
            debug_assert!(false, "invalid tensor shape: {e}");
            0
        });
        Self {
            m,
            n,
            values: vec![S::ZERO; len],
        }
    }

    /// Build a tensor from packed values in lexicographic index-class order.
    pub fn from_values(m: usize, n: usize, values: Vec<S>) -> Result<Self> {
        let len = Self::checked_len(m, n)?;
        if values.len() != len {
            return Err(Error::ValueLengthMismatch {
                expected: len,
                actual: values.len(),
            });
        }
        Ok(Self { m, n, values })
    }

    /// Build a tensor by evaluating `f` on every index class, in order.
    ///
    /// A shape with `m` in `1..=20` and `n >= 1` is a debug-checked
    /// precondition; release builds yield an empty value buffer for
    /// invalid shapes.
    pub fn from_fn(m: usize, n: usize, mut f: impl FnMut(&IndexClass) -> S) -> Self {
        let len = Self::checked_len(m, n).unwrap_or_else(|e| {
            debug_assert!(false, "invalid tensor shape: {e}");
            0
        });
        let mut values = Vec::with_capacity(len);
        for class in IndexClassIter::new(m, n) {
            values.push(f(&class));
        }
        Self { m, n, values }
    }

    /// A random symmetric tensor with unique entries drawn i.i.d. uniformly
    /// from `[-1, 1]` (the paper's choice for synthetic experiments).
    ///
    /// A shape with `m` in `1..=20` and `n >= 1` is a debug-checked
    /// precondition; release builds yield an empty value buffer for
    /// invalid shapes.
    pub fn random<R: Rng + ?Sized>(m: usize, n: usize, rng: &mut R) -> Self {
        let len = Self::checked_len(m, n).unwrap_or_else(|e| {
            debug_assert!(false, "invalid tensor shape: {e}");
            0
        });
        let values = (0..len)
            .map(|_| S::from_f64(rng.gen_range(-1.0..=1.0)))
            .collect();
        Self { m, n, values }
    }

    /// Tensor order `m` (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.m
    }

    /// A borrowed, zero-copy view of this tensor.
    #[inline]
    pub fn view(&self) -> SymTensorRef<'_, S> {
        SymTensorRef {
            m: self.m,
            n: self.n,
            values: &self.values,
        }
    }

    /// Tensor dimension `n` (extent of every mode).
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored unique entries, `C(m+n-1, m)`.
    #[inline]
    pub fn num_unique(&self) -> usize {
        self.values.len()
    }

    /// Total number of entries of the full array, `n^m`.
    #[inline]
    pub fn num_total(&self) -> u64 {
        (self.n as u64).pow(self.m as u32)
    }

    /// The packed values, in lexicographic index-class order.
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Mutable access to the packed values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [S] {
        &mut self.values
    }

    /// Consume the tensor, returning the packed value vector.
    pub fn into_values(self) -> Vec<S> {
        self.values
    }

    /// Value of the entry at packed position `rank` (lexicographic order).
    #[inline]
    pub fn value_at_rank(&self, rank: usize) -> S {
        self.values[rank]
    }

    /// Value of the entry for a given index class.
    pub fn value_at_class(&self, class: &IndexClass) -> S {
        debug_assert_eq!(class.order(), self.m);
        debug_assert_eq!(class.dim(), self.n);
        self.values[class.rank() as usize]
    }

    /// Value at an arbitrary tensor index (any permutation); the index is
    /// canonicalized by sorting.
    pub fn get(&self, tensor_index: &[usize]) -> Result<S> {
        let rank = self.rank_of(tensor_index)?;
        Ok(self.values[rank])
    }

    /// Set the value of the whole index class containing `tensor_index`.
    pub fn set(&mut self, tensor_index: &[usize], value: S) -> Result<()> {
        let rank = self.rank_of(tensor_index)?;
        self.values[rank] = value;
        Ok(())
    }

    fn rank_of(&self, tensor_index: &[usize]) -> Result<usize> {
        rank_of(self.m, self.n, tensor_index)
    }

    /// Iterate over `(class, value)` pairs in lexicographic order.
    pub fn iter_classes(&self) -> impl Iterator<Item = (IndexClass, S)> + '_ {
        IndexClassIter::new(self.m, self.n).zip(self.values.iter().copied())
    }

    /// Frobenius norm of the *full* symmetric tensor; see
    /// [`SymTensorRef::frobenius_norm`].
    pub fn frobenius_norm(&self) -> S {
        self.view().frobenius_norm()
    }

    /// Scale every entry by `c` in place.
    pub fn scale(&mut self, c: S) {
        for v in &mut self.values {
            *v *= c;
        }
    }

    /// Elementwise sum of two tensors of identical shape.
    pub fn add(&self, other: &Self) -> Result<Self> {
        if self.m != other.m || self.n != other.n {
            return Err(Error::ValueLengthMismatch {
                expected: self.values.len(),
                actual: other.values.len(),
            });
        }
        let values = self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Ok(Self {
            m: self.m,
            n: self.n,
            values,
        })
    }

    /// Elementwise difference `self − other` of two tensors of identical
    /// shape.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        if self.m != other.m || self.n != other.n {
            return Err(Error::ValueLengthMismatch {
                expected: self.values.len(),
                actual: other.values.len(),
            });
        }
        let values = self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Ok(Self {
            m: self.m,
            n: self.n,
            values,
        })
    }

    /// Frobenius inner product `⟨A, B⟩ = Σ a_{i₁…i_m} b_{i₁…i_m}` of the
    /// *full* tensors: each packed product is weighted by the size of its
    /// index class, so `inner_product(A, A) == frobenius_norm(A)²`.
    pub fn inner_product(&self, other: &Self) -> Result<S> {
        if self.m != other.m || self.n != other.n {
            return Err(Error::ValueLengthMismatch {
                expected: self.values.len(),
                actual: other.values.len(),
            });
        }
        let mut acc = S::ZERO;
        for (class, (a, b)) in
            IndexClassIter::new(self.m, self.n).zip(self.values.iter().zip(other.values.iter()))
        {
            acc += S::from_u64(class.occurrences()) * *a * *b;
        }
        Ok(acc)
    }

    /// Maximum absolute difference between packed values of two tensors of
    /// identical shape.
    pub fn max_abs_diff(&self, other: &Self) -> Result<S> {
        if self.m != other.m || self.n != other.n {
            return Err(Error::ValueLengthMismatch {
                expected: self.values.len(),
                actual: other.values.len(),
            });
        }
        let mut worst = S::ZERO;
        for (&a, &b) in self.values.iter().zip(other.values.iter()) {
            worst = worst.max((a - b).abs());
        }
        Ok(worst)
    }

    /// Convert each stored value to `f64` (reference-precision copies).
    pub fn to_f64(&self) -> SymTensor<f64> {
        SymTensor {
            m: self.m,
            n: self.n,
            values: self.values.iter().map(|v| v.to_f64()).collect(),
        }
    }

    /// Convert each stored value to `f32` (the precision the paper uses on
    /// the GPU).
    pub fn to_f32(&self) -> SymTensor<f32> {
        SymTensor {
            m: self.m,
            n: self.n,
            values: self.values.iter().map(|v| v.to_f64() as f32).collect(),
        }
    }

    /// The identity-like diagonal tensor: `a_{i…i} = 1`, all other classes 0.
    /// For `m = 2` this is the identity matrix.
    pub fn diagonal_ones(m: usize, n: usize) -> Self {
        Self::from_fn(m, n, |class| {
            let idx = class.indices();
            if idx.iter().all(|&i| i == idx[0]) {
                S::ONE
            } else {
                S::ZERO
            }
        })
    }

    /// The symmetric outer power `v ⊗ v ⊗ … ⊗ v` (m copies) of a vector,
    /// which is a rank-one symmetric tensor with `A x^m = (v·x)^m`.
    pub fn rank_one(m: usize, v: &[S]) -> Self {
        let n = v.len();
        Self::from_fn(m, n, |class| {
            let mut prod = S::ONE;
            for &i in class.indices() {
                prod *= v[i];
            }
            prod
        })
    }
}

/// Canonical packed rank of an arbitrary tensor index for shape `(m, n)`.
fn rank_of(m: usize, n: usize, tensor_index: &[usize]) -> Result<usize> {
    if tensor_index.len() != m {
        return Err(Error::IndexLengthMismatch {
            expected: m,
            actual: tensor_index.len(),
        });
    }
    if let Some(&bad) = tensor_index.iter().find(|&&i| i >= n) {
        return Err(Error::IndexOutOfBounds { index: bad, n });
    }
    let class = IndexClass::from_tensor_index(tensor_index.to_vec(), n);
    Ok(class.rank() as usize)
}

/// A borrowed view of a packed symmetric tensor: shape metadata plus a
/// slice of unique entries that may live anywhere — inside an owned
/// [`SymTensor`], or inside the contiguous arena of a
/// [`crate::TensorBatch`]. `Copy`, so it is passed by value everywhere the
/// kernels need a tensor without requiring an owned allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymTensorRef<'a, S> {
    m: usize,
    n: usize,
    values: &'a [S],
}

impl<'a, S: Scalar> SymTensorRef<'a, S> {
    /// Build a view over packed values in lexicographic index-class order,
    /// validating the shape and the buffer length.
    pub fn from_values(m: usize, n: usize, values: &'a [S]) -> Result<Self> {
        let len = SymTensor::<S>::checked_len(m, n)?;
        if values.len() != len {
            return Err(Error::ValueLengthMismatch {
                expected: len,
                actual: values.len(),
            });
        }
        Ok(Self { m, n, values })
    }

    /// Build a view from parts already known to be consistent.
    #[inline]
    pub(crate) fn from_raw(m: usize, n: usize, values: &'a [S]) -> Self {
        debug_assert_eq!(
            SymTensor::<S>::checked_len(m, n).ok(),
            Some(values.len()),
            "inconsistent view shape"
        );
        Self { m, n, values }
    }

    /// Tensor order `m` (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.m
    }

    /// Tensor dimension `n` (extent of every mode).
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored unique entries, `C(m+n-1, m)`.
    #[inline]
    pub fn num_unique(&self) -> usize {
        self.values.len()
    }

    /// The packed values, in lexicographic index-class order.
    #[inline]
    pub fn values(&self) -> &'a [S] {
        self.values
    }

    /// Value of the entry at packed position `rank` (lexicographic order).
    #[inline]
    pub fn value_at_rank(&self, rank: usize) -> S {
        self.values[rank]
    }

    /// Value of the entry for a given index class.
    pub fn value_at_class(&self, class: &IndexClass) -> S {
        debug_assert_eq!(class.order(), self.m);
        debug_assert_eq!(class.dim(), self.n);
        self.values[class.rank() as usize]
    }

    /// Value at an arbitrary tensor index (any permutation); the index is
    /// canonicalized by sorting.
    pub fn get(&self, tensor_index: &[usize]) -> Result<S> {
        let rank = rank_of(self.m, self.n, tensor_index)?;
        Ok(self.values[rank])
    }

    /// Iterate over `(class, value)` pairs in lexicographic order.
    pub fn iter_classes(&self) -> impl Iterator<Item = (IndexClass, S)> + 'a {
        IndexClassIter::new(self.m, self.n).zip(self.values.iter().copied())
    }

    /// Frobenius norm of the *full* symmetric tensor: each unique value is
    /// weighted by the size of its index class.
    ///
    /// Walks the classes in the lexicographic order of
    /// [`iter_classes`](Self::iter_classes), advancing one [`IndexClass`] in
    /// place, so the whole walk makes a single allocation.
    pub fn frobenius_norm(&self) -> S {
        let mut acc = S::ZERO;
        let mut class = IndexClass::first(self.m, self.n);
        for &v in self.values {
            acc += S::from_u64(class.occurrences()) * v * v;
            class.advance();
        }
        acc.sqrt()
    }

    /// Copy the viewed entries into an owned [`SymTensor`].
    pub fn to_owned(&self) -> SymTensor<S> {
        SymTensor {
            m: self.m,
            n: self.n,
            values: self.values.to_vec(),
        }
    }
}

impl<'a, S: Scalar> From<&'a SymTensor<S>> for SymTensorRef<'a, S> {
    fn from(t: &'a SymTensor<S>) -> Self {
        t.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn view_round_trips_and_reads_like_the_tensor() {
        let mut rng = StdRng::seed_from_u64(91);
        let t = SymTensor::<f64>::random(4, 3, &mut rng);
        let v = t.view();
        assert_eq!(v.order(), 4);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.num_unique(), 15);
        assert_eq!(v.values(), t.values());
        assert_eq!(v.value_at_rank(3), t.value_at_rank(3));
        assert_eq!(v.get(&[2, 0, 1, 0]).unwrap(), t.get(&[2, 0, 1, 0]).unwrap());
        assert_eq!(v.frobenius_norm(), t.frobenius_norm());
        assert_eq!(v.to_owned(), t);
    }

    #[test]
    fn view_from_values_validates() {
        let buf = vec![0.0f64; 15];
        assert!(SymTensorRef::from_values(4, 3, &buf).is_ok());
        assert!(matches!(
            SymTensorRef::from_values(4, 3, &buf[..14]),
            Err(Error::ValueLengthMismatch {
                expected: 15,
                actual: 14
            })
        ));
        assert!(SymTensorRef::from_values(0, 3, &buf).is_err());
    }

    #[test]
    fn zeros_has_expected_unique_count() {
        let t = SymTensor::<f64>::zeros(4, 3);
        assert_eq!(t.num_unique(), 15);
        assert_eq!(t.num_total(), 81);
        assert!(t.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_values_validates_length() {
        assert!(SymTensor::<f64>::from_values(4, 3, vec![0.0; 15]).is_ok());
        let err = SymTensor::<f64>::from_values(4, 3, vec![0.0; 14]).unwrap_err();
        assert_eq!(
            err,
            Error::ValueLengthMismatch {
                expected: 15,
                actual: 14
            }
        );
    }

    #[test]
    fn shape_validation() {
        assert!(matches!(
            SymTensor::<f64>::from_values(0, 3, vec![]),
            Err(Error::OrderOutOfRange(0))
        ));
        assert!(matches!(
            SymTensor::<f64>::from_values(21, 3, vec![]),
            Err(Error::OrderOutOfRange(21))
        ));
        assert!(matches!(
            SymTensor::<f64>::from_values(3, 0, vec![]),
            Err(Error::DimensionOutOfRange(0))
        ));
    }

    #[test]
    fn get_is_permutation_invariant() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = SymTensor::<f64>::random(3, 3, &mut rng);
        let a = t.get(&[0, 1, 2]).unwrap();
        for perm in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(t.get(&perm).unwrap(), a);
        }
    }

    #[test]
    fn set_updates_whole_class() {
        let mut t = SymTensor::<f64>::zeros(3, 2);
        t.set(&[1, 0, 0], 5.0).unwrap();
        assert_eq!(t.get(&[0, 0, 1]).unwrap(), 5.0);
        assert_eq!(t.get(&[0, 1, 0]).unwrap(), 5.0);
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn get_rejects_bad_indices() {
        let t = SymTensor::<f64>::zeros(3, 2);
        assert!(matches!(
            t.get(&[0, 1]),
            Err(Error::IndexLengthMismatch { .. })
        ));
        assert!(matches!(
            t.get(&[0, 1, 2]),
            Err(Error::IndexOutOfBounds { index: 2, n: 2 })
        ));
    }

    #[test]
    fn from_fn_visits_classes_in_order() {
        let t = SymTensor::<f64>::from_fn(3, 4, |c| c.rank() as f64);
        for (i, &v) in t.values().iter().enumerate() {
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn random_values_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = SymTensor::<f32>::random(4, 3, &mut rng);
        assert!(t.values().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert_eq!(t.num_unique(), 15);
    }

    #[test]
    fn frobenius_norm_of_identity_matrix() {
        // Identity n x n has Frobenius norm sqrt(n).
        let t = SymTensor::<f64>::diagonal_ones(2, 4);
        assert!((t.frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn frobenius_norm_counts_occurrences() {
        // Tensor with a_{001} class = 1 (3 occurrences), everything else 0:
        // full Frobenius norm is sqrt(3).
        let mut t = SymTensor::<f64>::zeros(3, 2);
        t.set(&[0, 0, 1], 1.0).unwrap();
        assert!((t.frobenius_norm() - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn frobenius_norm_is_the_class_fold_bit_for_bit() {
        fn check<S: Scalar>(t: &SymTensor<S>) {
            let fold = t
                .iter_classes()
                .fold(S::ZERO, |acc, (class, v)| {
                    acc + S::from_u64(class.occurrences()) * v * v
                })
                .sqrt()
                .to_f64()
                .to_bits();
            assert_eq!(t.frobenius_norm().to_f64().to_bits(), fold);
            assert_eq!(t.view().frobenius_norm().to_f64().to_bits(), fold);
        }
        let mut rng = StdRng::seed_from_u64(29);
        for (m, n) in [(3, 3), (4, 3), (6, 3)] {
            let t = SymTensor::<f64>::random(m, n, &mut rng);
            check(&t);
            check(&t.to_f32());
        }
    }

    #[test]
    fn rank_one_evaluates_as_power_of_dot() {
        let v = [0.5f64, -1.0, 2.0];
        let t = SymTensor::rank_one(3, &v);
        // a_{ijk} = v_i v_j v_k: check a few entries.
        assert!((t.get(&[0, 1, 2]).unwrap() - -0.5 * 2.0).abs() < 1e-12);
        assert!((t.get(&[2, 2, 2]).unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn scale_and_add() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = SymTensor::<f64>::random(3, 3, &mut rng);
        let mut b = a.clone();
        b.scale(2.0);
        let sum = a.add(&a).unwrap();
        assert_eq!(sum.max_abs_diff(&b).unwrap(), 0.0);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = SymTensor::<f64>::zeros(3, 3);
        let b = SymTensor::<f64>::zeros(3, 4);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.inner_product(&b).is_err());
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn sub_inverts_add() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = SymTensor::<f64>::random(4, 3, &mut rng);
        let b = SymTensor::<f64>::random(4, 3, &mut rng);
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(back.max_abs_diff(&a).unwrap() < 1e-14);
    }

    #[test]
    fn inner_product_matches_frobenius_norm() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = SymTensor::<f64>::random(3, 4, &mut rng);
        let ip = a.inner_product(&a).unwrap();
        let fro = a.frobenius_norm();
        assert!((ip - fro * fro).abs() < 1e-12 * (1.0 + ip.abs()));
    }

    #[test]
    fn inner_product_matches_dense_expansion() {
        use crate::dense::DenseTensor;
        let mut rng = StdRng::seed_from_u64(23);
        let a = SymTensor::<f64>::random(3, 3, &mut rng);
        let b = SymTensor::<f64>::random(3, 3, &mut rng);
        let packed = a.inner_product(&b).unwrap();
        let da = DenseTensor::from_sym(&a);
        let db = DenseTensor::from_sym(&b);
        let dense: f64 = da
            .values()
            .iter()
            .zip(db.values())
            .map(|(p, q)| p * q)
            .sum();
        assert!((packed - dense).abs() < 1e-12 * (1.0 + dense.abs()));
    }

    #[test]
    fn precision_conversions() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = SymTensor::<f64>::random(4, 3, &mut rng);
        let t32 = t.to_f32();
        let back = t32.to_f64();
        assert!(t.max_abs_diff(&back).unwrap() < 1e-6);
    }

    #[test]
    fn serde_traits_are_implemented() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<SymTensor<f64>>();
        assert_serde::<SymTensor<f32>>();
    }

    #[test]
    fn serde_round_trips_through_json() {
        let mut rng = StdRng::seed_from_u64(19);
        let t = SymTensor::<f64>::random(3, 4, &mut rng);
        let json = serde::Serialize::to_value(&t).to_json();
        let parsed = serde::Value::parse_json(&json).unwrap();
        let back = <SymTensor<f64> as serde::Deserialize>::from_value(&parsed).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn serde_rejects_inconsistent_shape() {
        let v = serde::Value::object(vec![
            ("m", serde::Value::UInt(3)),
            ("n", serde::Value::UInt(2)),
            ("values", vec![0.0f64; 3].to_value()),
        ]);
        assert!(<SymTensor<f64> as serde::Deserialize>::from_value(&v).is_err());
    }

    #[test]
    fn iter_classes_pairs_ranks_with_values() {
        let t = SymTensor::<f64>::from_fn(3, 3, |c| c.rank() as f64 * 2.0);
        for (class, v) in t.iter_classes() {
            assert_eq!(v, class.rank() as f64 * 2.0);
        }
    }

    #[test]
    fn into_values_returns_packed_buffer() {
        let t = SymTensor::<f64>::from_fn(2, 2, |c| c.rank() as f64);
        assert_eq!(t.into_values(), vec![0.0, 1.0, 2.0]);
    }
}

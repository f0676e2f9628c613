//! Multi-plane bit packing: the `b`-bit generalisation of [`crate::bits`].
//!
//! A `b`-bit quantized value is stored as `b` signed binary planes:
//!
//! ```text
//! q = Σ_{p=0}^{b-1} 2^p · s_p,   s_p ∈ {−1, +1}
//! ```
//!
//! so the representable levels are exactly the **odd** integers in
//! `[−L, L]` with `L = 2^b − 1` — the integer image (scaled by `L`) of
//! the training-side [`QuantActivation`](crate::ste::QuantActivation)
//! level set. Each plane is an ordinary [`BitVec`], packed through the
//! offset-binary bridge `u = (q + L) / 2 ∈ [0, L]` (plane `p` holds bit
//! `p` of `u`; bit 1 ⟷ `s_p = +1`).
//!
//! The payoff is that a quantized dot product decomposes into
//! `a_bits · w_bits` XNOR–popcount dot products with power-of-two
//! weights:
//!
//! ```text
//! dot(a, w) = Σ_{i<a_bits} Σ_{k<w_bits} 2^{i+k} · xnor_dot(aᵢ, wₖ)
//! ```
//!
//! which is the shift-add datapath of MPIC-style multi-precision MAC
//! units. At `b = 1` a [`PlaneVec`] is a single [`BitVec`] with the
//! same bit convention, so the 1-bit corner of the quantized path is
//! bit-identical to the BNN fast path by construction.

use serde::{Deserialize, Error, Serialize, Value};

use crate::bits::{BitMatrix, BitVec};

/// Largest representable magnitude at `bits` width: `L = 2^bits − 1`.
///
/// # Panics
///
/// Panics if `bits` is 0 or above 32.
pub fn levels(bits: usize) -> i64 {
    assert!((1..=32).contains(&bits), "plane width {bits} out of range");
    (1i64 << bits) - 1
}

/// Quantizes a float in `[−1, 1]` (clamped) to the nearest `bits`-wide
/// level, returned as an **odd integer** in `[−L, L]`.
///
/// This is exactly `L ·`
/// [`QuantActivation::quantize`](crate::ste::QuantActivation::quantize):
/// both compute `round((clamp(x) + 1)/2 · L)` and map it back to the
/// symmetric range, so a float network quantized at training time and
/// this integer path see the same level set.
pub fn quantize_level(x: f32, bits: usize) -> i64 {
    let l = levels(bits);
    let unit = (x.clamp(-1.0, 1.0) + 1.0) / 2.0;
    2 * (unit * l as f32).round() as i64 - l
}

/// A `bits`-plane packed vector of odd integers in `[−L, L]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PlaneVec {
    planes: Vec<BitVec>,
    len: usize,
}

impl<'de> Deserialize<'de> for PlaneVec {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let planes = Vec::<BitVec>::from_value(value.get_field("planes")?)?;
        let len = usize::from_value(value.get_field("len")?)?;
        if planes.is_empty() || planes.len() > 32 {
            return Err(Error::custom(format!(
                "PlaneVec: {} planes outside 1..=32",
                planes.len()
            )));
        }
        if let Some(p) = planes.iter().position(|p| p.len() != len) {
            return Err(Error::custom(format!(
                "PlaneVec: plane {p} has {} bits, expected len = {len}",
                planes[p].len()
            )));
        }
        Ok(Self { planes, len })
    }
}

impl PlaneVec {
    /// Packs a slice of levels (odd integers in `[−L, L]`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is out of `1..=32` or any value is not a
    /// representable level at that width.
    pub fn from_levels(values: &[i64], bits: usize) -> Self {
        let l = levels(bits);
        let mut planes = vec![BitVec::zeros(values.len()); bits];
        for (i, &q) in values.iter().enumerate() {
            assert!(
                q.abs() <= l && q & 1 != 0,
                "{q} is not an odd integer in [-{l}, {l}]"
            );
            let u = ((q + l) / 2) as u64;
            for (p, plane) in planes.iter_mut().enumerate() {
                if u >> p & 1 == 1 {
                    plane.set(i, true);
                }
            }
        }
        Self {
            planes,
            len: values.len(),
        }
    }

    /// Quantizes floats with [`quantize_level`] and packs the result.
    pub fn from_floats(values: &[f32], bits: usize) -> Self {
        let q: Vec<i64> = values.iter().map(|&x| quantize_level(x, bits)).collect();
        Self::from_levels(&q, bits)
    }

    /// Unpacks back to levels.
    pub fn to_levels(&self) -> Vec<i64> {
        let l = levels(self.bits());
        (0..self.len)
            .map(|i| {
                let u: i64 = self
                    .planes
                    .iter()
                    .enumerate()
                    .map(|(p, plane)| i64::from(plane.get(i)) << p)
                    .sum();
                2 * u - l
            })
            .collect()
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Plane width in bits.
    pub fn bits(&self) -> usize {
        self.planes.len()
    }

    /// Plane `p` (significance `2^p`).
    pub fn plane(&self, p: usize) -> &BitVec {
        &self.planes[p]
    }

    /// Exact integer dot product via shift-add over plane pairs.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &PlaneVec) -> i64 {
        assert_eq!(self.len, other.len, "plane dot length mismatch");
        let mut acc = 0i64;
        for (i, a) in self.planes.iter().enumerate() {
            for (k, w) in other.planes.iter().enumerate() {
                acc += i64::from(a.xnor_dot(w)) << (i + k);
            }
        }
        acc
    }
}

/// A `bits`-plane packed matrix (`[rows, cols]`), one [`BitMatrix`] per
/// plane — the weight-memory layout of a multi-precision engine, where
/// each significance plane is a separate binary weight memory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PlaneMatrix {
    planes: Vec<BitMatrix>,
    cols: usize,
}

impl<'de> Deserialize<'de> for PlaneMatrix {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let planes = Vec::<BitMatrix>::from_value(value.get_field("planes")?)?;
        let cols = usize::from_value(value.get_field("cols")?)?;
        if planes.is_empty() || planes.len() > 32 {
            return Err(Error::custom(format!(
                "PlaneMatrix: {} planes outside 1..=32",
                planes.len()
            )));
        }
        let rows = planes[0].num_rows();
        if let Some(p) = planes
            .iter()
            .position(|m| m.num_rows() != rows || m.num_cols() != cols)
        {
            return Err(Error::custom(format!(
                "PlaneMatrix: plane {p} is {}×{}, expected {rows}×{cols}",
                planes[p].num_rows(),
                planes[p].num_cols()
            )));
        }
        Ok(Self { planes, cols })
    }
}

impl PlaneMatrix {
    /// Packs a row-major level matrix.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or any value is not a
    /// representable level.
    pub fn from_levels(rows: usize, cols: usize, values: &[i64], bits: usize) -> Self {
        assert_eq!(values.len(), rows * cols, "matrix size mismatch");
        let l = levels(bits);
        for &q in values {
            assert!(
                q.abs() <= l && q & 1 != 0,
                "{q} is not an odd integer in [-{l}, {l}]"
            );
        }
        // Plane `p` holds bit `p` of the level index `u = (q + L) / 2`.
        let planes = (0..bits)
            .map(|p| {
                BitMatrix::from_fn(rows, cols, |r, c| {
                    (values[r * cols + c] + l) >> (p + 1) & 1 == 1
                })
            })
            .collect();
        Self { planes, cols }
    }

    /// Quantizes floats with [`quantize_level`] and packs the result.
    pub fn from_floats(rows: usize, cols: usize, values: &[f32], bits: usize) -> Self {
        let q: Vec<i64> = values.iter().map(|&x| quantize_level(x, bits)).collect();
        Self::from_levels(rows, cols, &q, bits)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.planes[0].num_rows()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Plane width in bits.
    pub fn bits(&self) -> usize {
        self.planes.len()
    }

    /// Plane `p` (significance `2^p`).
    pub fn plane(&self, p: usize) -> &BitMatrix {
        &self.planes[p]
    }

    /// Total storage bits across planes (`rows · cols · bits`).
    pub fn weight_bits(&self) -> u64 {
        (self.num_rows() * self.cols * self.bits()) as u64
    }

    /// Matrix–vector product: one exact i64 accumulation per row,
    /// decomposed into `x.bits() · self.bits()` binary matvecs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_cols()`.
    pub fn matvec(&self, x: &PlaneVec) -> Vec<i64> {
        let mut out = Vec::new();
        self.matvec_into(x, &mut out);
        out
    }

    /// Like [`PlaneMatrix::matvec`], writing into a caller-owned
    /// accumulator (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_cols()`.
    pub fn matvec_into(&self, x: &PlaneVec, out: &mut Vec<i64>) {
        assert_eq!(x.len(), self.cols, "plane matvec length mismatch");
        out.clear();
        out.resize(self.num_rows(), 0);
        let mut scratch: Vec<i32> = Vec::with_capacity(self.num_rows());
        for (k, wm) in self.planes.iter().enumerate() {
            for (i, xv) in x.planes.iter().enumerate() {
                wm.xnor_matvec_into(xv, &mut scratch);
                let shift = i + k;
                for (acc, &partial) in out.iter_mut().zip(&scratch) {
                    *acc += i64::from(partial) << shift;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_set_is_odd_integers() {
        assert_eq!(levels(1), 1);
        assert_eq!(levels(2), 3);
        assert_eq!(levels(4), 15);
        assert_eq!(levels(8), 255);
        // Every representable level round-trips.
        for bits in [1usize, 2, 4, 8] {
            let l = levels(bits);
            let all: Vec<i64> = (-l..=l).step_by(2).collect();
            assert_eq!(all.len(), 1 << bits);
            let packed = PlaneVec::from_levels(&all, bits);
            assert_eq!(packed.to_levels(), all, "bits = {bits}");
        }
    }

    #[test]
    fn quantize_level_matches_scaled_quant_activation() {
        use crate::ste::QuantActivation;
        for bits in [1usize, 2, 4, 8] {
            let act = QuantActivation::new(bits).unwrap();
            let l = levels(bits) as f32;
            for i in -40..=40 {
                let x = i as f32 / 20.0;
                let from_float = act.quantize(x) * l;
                let from_int = quantize_level(x, bits) as f32;
                assert!(
                    (from_float - from_int).abs() < 1e-3,
                    "bits {bits}, x {x}: {from_float} vs {from_int}"
                );
            }
        }
    }

    #[test]
    fn one_bit_plane_is_the_bitvec_packing() {
        let signs = [1.0f32, -1.0, 1.0, 1.0, -1.0];
        let plane = PlaneVec::from_floats(&signs, 1);
        assert_eq!(plane.plane(0), &BitVec::from_signs(&signs));
        let other = PlaneVec::from_floats(&[-1.0, -1.0, 1.0, -1.0, 1.0], 1);
        assert_eq!(
            plane.dot(&other),
            i64::from(plane.plane(0).xnor_dot(other.plane(0)))
        );
    }

    #[test]
    fn plane_dot_equals_integer_reference() {
        for (a_bits, w_bits) in [(2usize, 2usize), (2, 8), (4, 4), (8, 2), (8, 8), (1, 4)] {
            let la = levels(a_bits);
            let lw = levels(w_bits);
            // Deterministic pseudo-random odd levels.
            let n = 130;
            let a: Vec<i64> = (0..n)
                .map(|i| {
                    let u = (i * 2654435761u64 as usize + 7) as i64 % (la + 1);
                    2 * u - la
                })
                .collect();
            let w: Vec<i64> = (0..n)
                .map(|i| {
                    let u = (i * 40503 + 11) as i64 % (lw + 1);
                    2 * u - lw
                })
                .collect();
            let reference: i64 = a.iter().zip(&w).map(|(&x, &y)| x * y).sum();
            let pa = PlaneVec::from_levels(&a, a_bits);
            let pw = PlaneVec::from_levels(&w, w_bits);
            assert_eq!(pa.dot(&pw), reference, "a_bits {a_bits}, w_bits {w_bits}");
        }
    }

    #[test]
    fn matvec_matches_rowwise_dot() {
        let rows = 3;
        let cols = 70;
        let w: Vec<i64> = (0..rows * cols)
            .map(|i| 2 * ((i * 37 + 5) as i64 % 16) - 15)
            .collect();
        let x: Vec<i64> = (0..cols).map(|i| 2 * ((i * 13) as i64 % 4) - 3).collect();
        let m = PlaneMatrix::from_levels(rows, cols, &w, 4);
        let v = PlaneVec::from_levels(&x, 2);
        let y = m.matvec(&v);
        for r in 0..rows {
            let expect: i64 = (0..cols).map(|c| w[r * cols + c] * x[c]).sum();
            assert_eq!(y[r], expect, "row {r}");
        }
        assert_eq!(m.weight_bits(), (rows * cols * 4) as u64);
    }

    #[test]
    fn matrix_planes_are_the_written_out_signs_and_round_trip() {
        for bits in [1usize, 2, 4, 8] {
            let l = levels(bits);
            for cols in [1usize, 63, 64, 65, 130] {
                let rows = 3;
                // Pseudo-random odd levels, both ends of the range included.
                let mut values: Vec<i64> = (0..rows * cols)
                    .map(|i| 2 * ((i * 2654435761 + 17) as i64 % (l + 1)) - l)
                    .collect();
                values[0] = -l;
                values[rows * cols - 1] = l;
                let m = PlaneMatrix::from_levels(rows, cols, &values, bits);
                assert_eq!(m.bits(), bits);
                for p in 0..bits {
                    let signs: Vec<f32> = values
                        .iter()
                        .map(|&q| {
                            if ((q + l) / 2) >> p & 1 == 1 {
                                1.0
                            } else {
                                -1.0
                            }
                        })
                        .collect();
                    let want = BitMatrix::from_signs(rows, cols, &signs);
                    assert_eq!(m.plane(p), &want, "bits {bits}, cols {cols}, plane {p}");
                }
                let back: Vec<i64> = (0..rows * cols)
                    .map(|i| {
                        let u: i64 = (0..bits)
                            .map(|p| i64::from(m.plane(p).row(i / cols).get(i % cols)) << p)
                            .sum();
                        2 * u - l
                    })
                    .collect();
                assert_eq!(back, values, "bits {bits}, cols {cols}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "2 is not an odd integer in [-3, 3]")]
    fn matrix_rejects_an_even_level() {
        PlaneMatrix::from_levels(1, 3, &[1, 2, 3], 2);
    }

    #[test]
    #[should_panic(expected = "5 is not an odd integer in [-3, 3]")]
    fn matrix_rejects_an_out_of_range_level() {
        PlaneMatrix::from_levels(1, 2, &[-3, 5], 2);
    }

    #[test]
    fn serde_round_trip() {
        let v = PlaneVec::from_floats(&[0.3, -0.9, 1.0, -0.1], 4);
        assert_eq!(PlaneVec::from_value(&v.to_value()).unwrap(), v);
        let m = PlaneMatrix::from_floats(2, 5, &[0.1f32; 10], 2);
        assert_eq!(PlaneMatrix::from_value(&m.to_value()).unwrap(), m);
    }

    #[test]
    fn deserialize_rejects_ragged_planes() {
        let v = PlaneVec::from_floats(&[0.5, -0.5, 0.0], 2);
        let mut value = v.to_value();
        if let Value::Map(entries) = &mut value {
            for (key, field) in entries.iter_mut() {
                if key == "len" {
                    *field = Value::UInt(4);
                }
            }
        }
        assert!(PlaneVec::from_value(&value).is_err());
    }
}

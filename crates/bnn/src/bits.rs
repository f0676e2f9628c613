//! Bit-packed ±1 vectors and matrices with XNOR–popcount arithmetic.
//!
//! A binarised value `+1` is stored as bit `1`, `−1` as bit `0`. The dot
//! product of two ±1 vectors of length `n` is then
//!
//! ```text
//! a·b = 2·popcount(XNOR(a, b)) − n
//! ```
//!
//! which is the arithmetic FINN's processing elements implement with
//! LUT-based XNOR gates and popcount trees. [`BitVec::xnor_dot`] is the
//! software equivalent, operating on 64-bit words.

use serde::{Deserialize, Error, Serialize, Value};

/// A bit-packed vector of ±1 values.
///
/// Invariant: bits at positions `len..` of the last word are always zero.
/// Constructors and [`BitVec::set`] maintain it, and deserialisation
/// rejects inputs that violate it, so [`BitVec::count_ones`] can sum
/// whole words without masking.
///
/// # Example
///
/// ```
/// use mp_bnn::bits::BitVec;
///
/// let a = BitVec::from_signs(&[1.0, -1.0, 1.0]);
/// let b = BitVec::from_signs(&[1.0, 1.0, -1.0]);
/// // (+1·+1) + (−1·+1) + (+1·−1) = −1
/// assert_eq!(a.xnor_dot(&b), -1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl<'de> Deserialize<'de> for BitVec {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let words = Vec::<u64>::from_value(value.get_field("words")?)?;
        let len = usize::from_value(value.get_field("len")?)?;
        if words.len() != len.div_ceil(64) {
            return Err(Error::custom(format!(
                "BitVec: {} storage words cannot hold exactly {len} bits",
                words.len()
            )));
        }
        let tail = len % 64;
        if tail > 0 {
            let last = *words.last().expect("tail > 0 implies at least one word");
            if last & !((1u64 << tail) - 1) != 0 {
                return Err(Error::custom(format!(
                    "BitVec: nonzero bits beyond len {len} in the tail word"
                )));
            }
        }
        Ok(Self { words, len })
    }
}

impl BitVec {
    /// Creates an all `−1` (all-zero-bit) vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Packs the signs of a float slice (`x >= 0` maps to `+1`).
    ///
    /// The `sign(0) = +1` convention follows BinaryNet.
    pub fn from_signs(values: &[f32]) -> Self {
        let mut v = Self::zeros(0);
        v.refill_with(values.len(), |i| values[i] >= 0.0);
        v
    }

    /// Packs a boolean slice (`true` maps to `+1`).
    pub fn from_bools(values: &[bool]) -> Self {
        let mut v = Self::zeros(0);
        v.refill_from_bools(values);
        v
    }

    /// Re-packs this vector from a boolean slice in place, reusing the
    /// word storage. Each 64-bit word is assembled in a register rather
    /// than with per-bit read–modify–write, so this is also the fast
    /// path behind [`BitVec::from_bools`].
    pub fn refill_from_bools(&mut self, values: &[bool]) {
        self.refill_with(values.len(), |i| values[i]);
    }

    /// Re-packs this vector in place to `len` bits, bit `i` being
    /// `bit(i)`, assembling each word in a register. Bits above `len`
    /// stay zero (the tail invariant).
    pub(crate) fn refill_with(&mut self, len: usize, bit: impl Fn(usize) -> bool) {
        self.len = len;
        self.words.clear();
        self.words.extend((0..len).step_by(64).map(|base| {
            let mut word = 0u64;
            for i in 0..(len - base).min(64) {
                word |= u64::from(bit(base + i)) << i;
            }
            word
        }));
    }

    /// Number of ±1 entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (`true` = `+1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds for {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` (`true` = `+1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds for {}", self.len);
        let word = &mut self.words[i / 64];
        if value {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }

    /// Unpacks into ±1 floats.
    pub fn to_signs(&self) -> Vec<f32> {
        (0..self.len)
            .map(|i| if self.get(i) { 1.0 } else { -1.0 })
            .collect()
    }

    /// Number of `+1` entries.
    pub fn count_ones(&self) -> u32 {
        // Trailing bits beyond `len` are maintained zero by `set`.
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// ±1 dot product via XNOR–popcount.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xnor_dot(&self, other: &BitVec) -> i32 {
        assert_eq!(self.len, other.len, "xnor_dot length mismatch");
        debug_assert!(
            self.tail_is_clear() && other.tail_is_clear(),
            "xnor_dot operand violates the tail-bit invariant"
        );
        xnor_dot_words(&self.words, &other.words, self.len)
    }

    /// Crate-internal view of the packed words (bits above `len` zero).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether the tail-bit invariant holds: every bit at position
    /// `len..` of the last word is zero. True by construction for every
    /// constructor and `Deserialize` path; the popcount kernels
    /// `debug_assert!` it so a future constructor that forgets the
    /// invariant fails loudly in tests instead of silently inflating
    /// full-word popcounts.
    pub(crate) fn tail_is_clear(&self) -> bool {
        let tail = self.len % 64;
        // tail > 0 implies len > 0 implies at least one storage word.
        tail == 0 || self.words[self.len / 64] & !((1u64 << tail) - 1) == 0
    }

    /// Popcount of the XNOR (number of agreeing positions).
    ///
    /// This is the raw quantity a FINN PE accumulates before its
    /// threshold comparison.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xnor_popcount(&self, other: &BitVec) -> u32 {
        let dot = self.xnor_dot(other);
        ((dot + self.len as i32) / 2) as u32
    }
}

/// A bit-packed matrix of ±1 values, one [`BitVec`] per row.
///
/// Used for binarised weight matrices (`[outputs, fan_in]`, matching the
/// FINN weight memory layout where each PE holds full rows).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    cols: usize,
}

impl<'de> Deserialize<'de> for BitMatrix {
    fn from_value(value: &Value) -> Result<Self, Error> {
        // Each row goes through BitVec's validating deserialiser (word
        // count + tail bits); this layer only needs to check that every
        // row is exactly `cols` wide. The previous derived impl skipped
        // that, so a forged payload could smuggle rows of the wrong
        // length past the boundary and panic later in `xnor_matvec`.
        let rows = Vec::<BitVec>::from_value(value.get_field("rows")?)?;
        let cols = usize::from_value(value.get_field("cols")?)?;
        if let Some((r, row)) = rows.iter().enumerate().find(|(_, row)| row.len() != cols) {
            return Err(Error::custom(format!(
                "BitMatrix: row {r} has {} bits, expected cols = {cols}",
                row.len()
            )));
        }
        Ok(Self { rows, cols })
    }
}

impl BitMatrix {
    /// Packs the signs of a row-major float matrix.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn from_signs(rows: usize, cols: usize, values: &[f32]) -> Self {
        assert_eq!(values.len(), rows * cols, "matrix size mismatch");
        Self::from_fn(rows, cols, |r, c| values[r * cols + c] >= 0.0)
    }

    /// Packs a `rows × cols` matrix whose entry `(r, c)` is `+1` where
    /// `bit(r, c)` holds, assembling each row word in a register.
    pub(crate) fn from_fn(rows: usize, cols: usize, bit: impl Fn(usize, usize) -> bool) -> Self {
        Self {
            rows: (0..rows)
                .map(|r| {
                    let mut row = BitVec::zeros(0);
                    row.refill_with(cols, |c| bit(r, c));
                    row
                })
                .collect(),
            cols,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.rows[r]
    }

    /// Matrix–vector product against a packed ±1 vector, one integer
    /// accumulation per row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_cols()`.
    pub fn xnor_matvec(&self, x: &BitVec) -> Vec<i32> {
        let mut out = Vec::new();
        self.xnor_matvec_into(x, &mut out);
        out
    }

    /// Like [`BitMatrix::xnor_matvec`], writing into a caller-owned
    /// accumulator (cleared first) so hot loops can reuse the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_cols()`.
    pub fn xnor_matvec_into(&self, x: &BitVec, out: &mut Vec<i32>) {
        out.clear();
        out.reserve(self.rows.len());
        self.xnor_matvec_for_each(x, |_, dot| out.push(dot));
    }

    /// Row-by-row XNOR matvec, invoking `f(row, dot)` for each row in
    /// ascending row order. Rows are processed four at a time through
    /// one fused four-row kernel, so each word of `x` is loaded once per four
    /// output rows instead of once per row — this is the software analogue
    /// of a FINN PE folding four output channels onto one SIMD lane. The
    /// callback style lets callers fuse the per-row threshold comparison
    /// directly into the accumulate loop instead of round-tripping an
    /// `i32` accumulator vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_cols()`.
    pub fn xnor_matvec_for_each(&self, x: &BitVec, mut f: impl FnMut(usize, i32)) {
        assert_eq!(x.len(), self.cols, "xnor_matvec length mismatch");
        debug_assert!(
            x.tail_is_clear() && self.rows.iter().all(BitVec::tail_is_clear),
            "xnor_matvec_for_each operand violates the tail-bit invariant"
        );
        let xw = x.words();
        let mut quads = self.rows.chunks_exact(4);
        let mut r = 0usize;
        for quad in &mut quads {
            let dots = xnor_dot_words_x4(
                [
                    quad[0].words(),
                    quad[1].words(),
                    quad[2].words(),
                    quad[3].words(),
                ],
                xw,
                self.cols,
            );
            for (lane, dot) in dots.into_iter().enumerate() {
                f(r + lane, dot);
            }
            r += 4;
        }
        for row in quads.remainder() {
            f(r, xnor_dot_words(row.words(), xw, self.cols));
            r += 1;
        }
    }

    /// Total storage bits (the quantity FINN places in on-chip memory).
    pub fn weight_bits(&self) -> u64 {
        (self.num_rows() * self.cols) as u64
    }
}

/// XNOR dot product over raw packed words: the shared kernel behind
/// [`BitVec::xnor_dot`] and the crate's word-level fast paths. Bits at
/// and above `len` in the last word are ignored via the tail mask, so
/// callers only need `len` valid bits per buffer.
///
/// The full-word loop runs four independent u64 lanes per iteration so
/// the popcounts pipeline instead of serialising on one accumulator.
/// Integer addition is associative, so the widened loop is bit-identical
/// to the scalar reference (pinned by `widened_dot_matches_scalar_reference`).
pub(crate) fn xnor_dot_words(a: &[u64], b: &[u64], len: usize) -> i32 {
    let full_words = len / 64;
    let (mut m0, mut m1, mut m2, mut m3) = (0u32, 0u32, 0u32, 0u32);
    let mut w = 0;
    while w + 4 <= full_words {
        m0 += (!(a[w] ^ b[w])).count_ones();
        m1 += (!(a[w + 1] ^ b[w + 1])).count_ones();
        m2 += (!(a[w + 2] ^ b[w + 2])).count_ones();
        m3 += (!(a[w + 3] ^ b[w + 3])).count_ones();
        w += 4;
    }
    let mut matches = m0 + m1 + m2 + m3;
    while w < full_words {
        matches += (!(a[w] ^ b[w])).count_ones();
        w += 1;
    }
    let tail = len % 64;
    if tail > 0 {
        let mask = (1u64 << tail) - 1;
        matches += ((!(a[full_words] ^ b[full_words])) & mask).count_ones();
    }
    2 * matches as i32 - len as i32
}

/// Four XNOR dot products sharing one traversal of `b`: each word of the
/// activation vector is loaded once and XNOR-popcounted against four
/// weight rows. This is the row-folded kernel behind
/// [`BitMatrix::xnor_matvec_for_each`] (the FC engines). All four `a`
/// slices must carry at least `len` valid bits with the tail-bit
/// invariant; results are bit-identical to four independent
/// [`xnor_dot_words`] calls.
pub(crate) fn xnor_dot_words_x4(a: [&[u64]; 4], b: &[u64], len: usize) -> [i32; 4] {
    let full_words = len / 64;
    let mut m = [0u32; 4];
    for w in 0..full_words {
        let x = b[w];
        m[0] += (!(a[0][w] ^ x)).count_ones();
        m[1] += (!(a[1][w] ^ x)).count_ones();
        m[2] += (!(a[2][w] ^ x)).count_ones();
        m[3] += (!(a[3][w] ^ x)).count_ones();
    }
    let tail = len % 64;
    if tail > 0 {
        let mask = (1u64 << tail) - 1;
        let x = b[full_words];
        m[0] += ((!(a[0][full_words] ^ x)) & mask).count_ones();
        m[1] += ((!(a[1][full_words] ^ x)) & mask).count_ones();
        m[2] += ((!(a[2][full_words] ^ x)) & mask).count_ones();
        m[3] += ((!(a[3][full_words] ^ x)) & mask).count_ones();
    }
    m.map(|matches| 2 * matches as i32 - len as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let signs = [1.0, -1.0, -1.0, 1.0, 1.0];
        let v = BitVec::from_signs(&signs);
        assert_eq!(v.to_signs(), signs);
        assert_eq!(v.len(), 5);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn sign_zero_is_positive() {
        let v = BitVec::from_signs(&[0.0]);
        assert!(v.get(0));
    }

    #[test]
    fn xnor_dot_matches_float_dot() {
        let a = [1.0f32, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0];
        let b = [-1.0f32, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0];
        let expect: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        let dot = BitVec::from_signs(&a).xnor_dot(&BitVec::from_signs(&b));
        assert_eq!(dot, expect as i32);
    }

    #[test]
    fn xnor_dot_spans_word_boundaries() {
        // 130 entries crosses two u64 words.
        let a: Vec<f32> = (0..130)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let b: Vec<f32> = (0..130)
            .map(|i| if i % 5 == 0 { 1.0 } else { -1.0 })
            .collect();
        let expect: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        let dot = BitVec::from_signs(&a).xnor_dot(&BitVec::from_signs(&b));
        assert_eq!(dot, expect as i32);
    }

    #[test]
    fn popcount_relation_holds() {
        let a = BitVec::from_signs(&[1.0, -1.0, 1.0, -1.0]);
        let b = BitVec::from_signs(&[1.0, 1.0, 1.0, -1.0]);
        let pc = a.xnor_popcount(&b);
        assert_eq!(2 * pc as i32 - 4, a.xnor_dot(&b));
        assert_eq!(pc, 3);
    }

    #[test]
    fn set_and_get() {
        let mut v = BitVec::zeros(70);
        v.set(69, true);
        assert!(v.get(69));
        assert!(!v.get(68));
        v.set(69, false);
        assert!(!v.get(69));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        let v = BitVec::zeros(3);
        let _ = v.get(3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_checked() {
        let _ = BitVec::zeros(3).xnor_dot(&BitVec::zeros(4));
    }

    #[test]
    fn matrix_matvec_matches_rowwise() {
        let w = [1.0f32, -1.0, 1.0, /* row 2 */ -1.0, -1.0, 1.0];
        let m = BitMatrix::from_signs(2, 3, &w);
        let x = BitVec::from_signs(&[1.0, 1.0, -1.0]);
        let y = m.xnor_matvec(&x);
        assert_eq!(y, vec![1 - 1 - 1, -1 - 1 - 1]);
        assert_eq!(m.weight_bits(), 6);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 3);
    }

    #[test]
    fn from_bools_matches_from_signs() {
        let bools = [true, false, true];
        let signs = [1.0, -1.0, 1.0];
        assert_eq!(BitVec::from_bools(&bools), BitVec::from_signs(&signs));
    }

    #[test]
    fn refill_from_bools_matches_fresh_pack_across_word_boundaries() {
        let mut v = BitVec::zeros(0);
        for n in [0usize, 1, 63, 64, 65, 130] {
            let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            v.refill_from_bools(&bools);
            assert_eq!(v, BitVec::from_bools(&bools), "n={n}");
            assert_eq!(v.len(), n);
        }
        // Shrinking reuse keeps the tail invariant: no stale high bits.
        v.refill_from_bools(&[true; 70]);
        v.refill_from_bools(&[true, false, true]);
        assert_eq!(v.count_ones(), 2);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn matvec_into_reuses_buffer() {
        let m = BitMatrix::from_signs(2, 3, &[1.0f32, -1.0, 1.0, -1.0, -1.0, 1.0]);
        let x = BitVec::from_signs(&[1.0, 1.0, -1.0]);
        let mut acc = vec![99i32; 7];
        m.xnor_matvec_into(&x, &mut acc);
        assert_eq!(acc, m.xnor_matvec(&x));
    }

    #[test]
    fn serde_round_trip_preserves_bits() {
        let signs: Vec<f32> = (0..70)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let v = BitVec::from_signs(&signs);
        let restored = BitVec::from_value(&v.to_value()).unwrap();
        assert_eq!(restored, v);
        assert_eq!(restored.count_ones(), v.count_ones());

        let m = BitMatrix::from_signs(2, 35, &[1.0f32; 70]);
        let restored = BitMatrix::from_value(&m.to_value()).unwrap();
        assert_eq!(restored, m);
    }

    #[test]
    fn deserialize_rejects_forged_tail_bits() {
        // len = 5 uses bits 0..5 of one word; a forged payload that sets a
        // higher bit would silently inflate count_ones and corrupt every
        // full-word xnor_dot, so it must be rejected at the boundary.
        let mut value = BitVec::from_signs(&[1.0, -1.0, 1.0, -1.0, 1.0]).to_value();
        if let Value::Map(entries) = &mut value {
            for (key, field) in entries.iter_mut() {
                if key == "words" {
                    *field = Value::Seq(vec![Value::UInt(0b101 | (1 << 63))]);
                }
            }
        } else {
            panic!("BitVec must serialise to an object");
        }
        let err = BitVec::from_value(&value).unwrap_err();
        assert!(err.to_string().contains("beyond len"), "{err}");
    }

    #[test]
    fn deserialize_rejects_wrong_word_count() {
        let mut value = BitVec::from_signs(&[1.0; 5]).to_value();
        if let Value::Map(entries) = &mut value {
            for (key, field) in entries.iter_mut() {
                if key == "words" {
                    *field = Value::Seq(vec![Value::UInt(31), Value::UInt(0)]);
                }
            }
        }
        assert!(BitVec::from_value(&value).is_err());
    }

    #[test]
    fn matrix_deserialize_rejects_row_width_mismatch() {
        // A 2×35 matrix whose declared cols is quietly edited to 40
        // would previously deserialise fine and panic only on the first
        // xnor_matvec. The manual impl rejects it at the boundary.
        let m = BitMatrix::from_signs(2, 35, &[1.0f32; 70]);
        let mut value = m.to_value();
        if let Value::Map(entries) = &mut value {
            for (key, field) in entries.iter_mut() {
                if key == "cols" {
                    *field = Value::UInt(40);
                }
            }
        } else {
            panic!("BitMatrix must serialise to an object");
        }
        let err = BitMatrix::from_value(&value).unwrap_err();
        assert!(err.to_string().contains("expected cols"), "{err}");
    }

    #[test]
    fn matrix_deserialize_rejects_forged_row_tail_bits() {
        // Row-level tail validation is delegated to BitVec::from_value;
        // pin that the composition actually rejects a forged row.
        let m = BitMatrix::from_signs(1, 5, &[1.0f32; 5]);
        let mut value = m.to_value();
        if let Value::Map(entries) = &mut value {
            for (key, field) in entries.iter_mut() {
                if key == "rows" {
                    let row = BitVec::from_signs(&[1.0; 5]).to_value();
                    let mut forged = row.clone();
                    if let Value::Map(row_entries) = &mut forged {
                        for (rk, rf) in row_entries.iter_mut() {
                            if rk == "words" {
                                *rf = Value::Seq(vec![Value::UInt(0b11111 | (1 << 40))]);
                            }
                        }
                    }
                    *field = Value::Seq(vec![forged]);
                }
            }
        }
        assert!(BitMatrix::from_value(&value).is_err());
    }

    #[test]
    fn tail_invariant_holds_for_all_constructors() {
        for n in [0usize, 1, 5, 63, 64, 65, 130] {
            assert!(BitVec::zeros(n).tail_is_clear(), "zeros({n})");
            let signs: Vec<f32> = (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            assert!(
                BitVec::from_signs(&signs).tail_is_clear(),
                "from_signs({n})"
            );
            let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            assert!(
                BitVec::from_bools(&bools).tail_is_clear(),
                "from_bools({n})"
            );
        }
    }

    /// Scalar reference kernel the widened loops are pinned against:
    /// the original single-accumulator word loop, kept verbatim.
    fn xnor_dot_words_reference(a: &[u64], b: &[u64], len: usize) -> i32 {
        let mut matches = 0u32;
        let full_words = len / 64;
        for w in 0..full_words {
            matches += (!(a[w] ^ b[w])).count_ones();
        }
        let tail = len % 64;
        if tail > 0 {
            let mask = (1u64 << tail) - 1;
            matches += ((!(a[full_words] ^ b[full_words])) & mask).count_ones();
        }
        2 * matches as i32 - len as i32
    }

    fn pseudo_random_bits(len: usize, seed: u64) -> BitVec {
        // splitmix64 stream — deterministic, no external RNG dep.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let bools: Vec<bool> = (0..len).map(|_| next() & 1 == 1).collect();
        BitVec::from_bools(&bools)
    }

    #[test]
    fn widened_dot_matches_scalar_reference() {
        // Lengths straddle the 4-word unroll boundary (256 bits) and the
        // word boundary, plus tails of every phase.
        for len in [
            0usize, 1, 63, 64, 65, 127, 128, 255, 256, 257, 300, 515, 1024,
        ] {
            let a = pseudo_random_bits(len, 0xA5A5 + len as u64);
            let b = pseudo_random_bits(len, 0x5A5A + len as u64);
            assert_eq!(
                xnor_dot_words(a.words(), b.words(), len),
                xnor_dot_words_reference(a.words(), b.words(), len),
                "len={len}"
            );
        }
    }

    #[test]
    fn x4_dot_matches_four_scalar_dots() {
        for len in [1usize, 64, 65, 130, 256, 257, 515] {
            let rows: Vec<BitVec> = (0..4)
                .map(|r| pseudo_random_bits(len, 0xC0FFEE + r as u64 * 97 + len as u64))
                .collect();
            let x = pseudo_random_bits(len, 0xBEEF + len as u64);
            let quad = xnor_dot_words_x4(
                [
                    rows[0].words(),
                    rows[1].words(),
                    rows[2].words(),
                    rows[3].words(),
                ],
                x.words(),
                len,
            );
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    quad[r],
                    xnor_dot_words_reference(row.words(), x.words(), len),
                    "len={len} lane={r}"
                );
            }
        }
    }

    #[test]
    fn matvec_for_each_visits_rows_in_order_and_matches_rowwise() {
        // Row counts cover 4-row quads plus every remainder phase.
        for (nrows, cols) in [
            (0usize, 5usize),
            (1, 70),
            (3, 130),
            (4, 33),
            (6, 64),
            (9, 257),
        ] {
            let values: Vec<f32> = (0..nrows * cols)
                .map(|i| if (i * 2654435761) % 7 < 3 { 1.0 } else { -1.0 })
                .collect();
            let m = BitMatrix::from_signs(nrows, cols, &values);
            let x = pseudo_random_bits(cols, 0xDEAD + cols as u64);
            let mut visited = Vec::new();
            m.xnor_matvec_for_each(&x, |r, dot| visited.push((r, dot)));
            let expect: Vec<(usize, i32)> =
                (0..nrows).map(|r| (r, m.row(r).xnor_dot(&x))).collect();
            assert_eq!(visited, expect, "nrows={nrows} cols={cols}");
        }
    }

    #[test]
    fn deserialize_accepts_exact_word_boundary() {
        // len = 128 fills both words completely: no tail to validate.
        let signs: Vec<f32> = (0..128)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let v = BitVec::from_signs(&signs);
        assert_eq!(BitVec::from_value(&v.to_value()).unwrap(), v);
    }
}

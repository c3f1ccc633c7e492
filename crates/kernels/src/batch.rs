//! Structure-of-arrays batches: contiguous raw words plus one format tag.
//!
//! The row-at-a-time datapath carried a `(raw, format)` pair per element
//! — 16 bytes each, half of them the same format tag repeated. A batch
//! stores the raw `i64` words contiguously (row-major) and the
//! `QFormat` once, so kernels stream 8-byte elements and validate the
//! format exactly once at the boundary.

use crate::KernelError;
use ldafp_fixedpoint::{Fx, InputScale, QFormat, RoundingMode};

/// A borrowed row-major SoA batch: `rows × features` raw words.
///
/// Words need not be pre-wrapped into the format's raw range — kernels
/// wrap on load, reproducing the hardware register semantics of
/// [`QFormat::from_raw`]. This is what lets the binary wire protocol's
/// quantized payload be classified **zero-copy**: the decoded `&[i64]`
/// is the batch.
#[derive(Debug, Clone, Copy)]
pub struct QBatch<'a> {
    format: QFormat,
    features: usize,
    rows: usize,
    words: &'a [i64],
}

impl<'a> QBatch<'a> {
    /// Borrows a flat row-major word buffer as a batch.
    ///
    /// # Errors
    ///
    /// [`KernelError::ShapeMismatch`] when `features` is zero;
    /// [`KernelError::TornRows`] when `words.len()` is not a whole number
    /// of rows.
    pub fn from_words(
        format: QFormat,
        features: usize,
        words: &'a [i64],
    ) -> Result<Self, KernelError> {
        if features == 0 {
            return Err(KernelError::ShapeMismatch {
                context: "features",
                expected: 1,
                got: 0,
            });
        }
        if !words.len().is_multiple_of(features) {
            return Err(KernelError::TornRows {
                features,
                full_rows: words.len() / features,
                trailing: words.len() % features,
            });
        }
        Ok(QBatch {
            format,
            features,
            rows: words.len() / features,
            words,
        })
    }

    /// The batch's fixed-point format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Features per row.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The flat row-major word buffer.
    pub fn words(&self) -> &'a [i64] {
        self.words
    }

    /// One row's words.
    ///
    /// # Panics
    ///
    /// When `r` is out of range.
    pub fn row(&self, r: usize) -> &'a [i64] {
        &self.words[r * self.features..(r + 1) * self.features]
    }
}

/// An owned SoA batch builder: rows are appended (from floats, or from
/// `Fx` slices) into one contiguous word buffer that is quantized
/// **once** at this boundary.
#[derive(Debug, Clone)]
pub struct QBatchBuf {
    format: QFormat,
    features: usize,
    /// Backing buffer; only `words[..len]` holds rows. It keeps its
    /// high-water length across [`Self::clear`], so a reused builder
    /// overwrites rows in place instead of zero-filling them first.
    words: Vec<i64>,
    len: usize,
}

impl QBatchBuf {
    /// An empty builder for `features`-wide rows.
    pub fn new(format: QFormat, features: usize) -> Self {
        QBatchBuf {
            format,
            features,
            words: Vec::new(),
            len: 0,
        }
    }

    /// Drops all rows, keeping the allocation — the per-batch reuse the
    /// serving engine's scratch depends on.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Rows currently held.
    pub fn rows(&self) -> usize {
        self.len / self.features.max(1)
    }

    /// Reserves capacity for `rows` additional rows.
    pub fn reserve_rows(&mut self, rows: usize) {
        let need = self.len + rows * self.features;
        self.words.reserve(need.saturating_sub(self.words.len()));
    }

    /// The next row's slot, growing the backing buffer only past its
    /// high-water length.
    fn next_row(&mut self) -> &mut [i64] {
        let end = self.len + self.features;
        if self.words.len() < end {
            self.words.resize(end, 0);
        }
        let row = &mut self.words[self.len..end];
        self.len = end;
        row
    }

    /// Quantizes one float row (saturating, the format's grid) and
    /// appends it, returning how many inputs fell outside the
    /// representable range and were saturated — the serving engine's
    /// `saturated_inputs` counter, attributed per row.
    ///
    /// # Errors
    ///
    /// [`KernelError::ShapeMismatch`] on a row of the wrong width.
    pub fn push_row_f64(&mut self, row: &[f64], mode: RoundingMode) -> Result<u64, KernelError> {
        self.push_row_scaled(row, InputScale::Identity, mode)
    }

    /// [`Self::push_row_f64`] of the row scaled by `scale`, in the same
    /// single pass: each input enters the grid as `(x·s)·2^F`, and the
    /// saturation count is taken after scaling.
    ///
    /// # Errors
    ///
    /// [`KernelError::ShapeMismatch`] on a row of the wrong width or a
    /// per-feature scale of the wrong length.
    pub fn push_row_scaled(
        &mut self,
        row: &[f64],
        scale: InputScale<'_>,
        mode: RoundingMode,
    ) -> Result<u64, KernelError> {
        if row.len() != self.features {
            return Err(KernelError::ShapeMismatch {
                context: "row length",
                expected: self.features,
                got: row.len(),
            });
        }
        if let InputScale::PerFeature(s) = scale {
            if s.len() != self.features {
                return Err(KernelError::ShapeMismatch {
                    context: "input scale",
                    expected: self.features,
                    got: s.len(),
                });
            }
        }
        let format = self.format;
        Ok(format.quantize_into(row, scale, mode, self.next_row()))
    }

    /// Appends an already-quantized row, checking each element's format.
    ///
    /// # Errors
    ///
    /// [`KernelError::ShapeMismatch`] on a row of the wrong width;
    /// [`KernelError::FormatMismatch`] when an element is on a different
    /// grid.
    pub fn push_row_fx(&mut self, row: &[Fx]) -> Result<(), KernelError> {
        if row.len() != self.features {
            return Err(KernelError::ShapeMismatch {
                context: "row length",
                expected: self.features,
                got: row.len(),
            });
        }
        for v in row {
            if v.format() != self.format {
                return Err(KernelError::FormatMismatch {
                    expected: (self.format.k(), self.format.f()),
                    got: (v.format().k(), v.format().f()),
                });
            }
        }
        for (word, v) in self.next_row().iter_mut().zip(row) {
            *word = v.raw();
        }
        Ok(())
    }

    /// Borrows the accumulated rows as a [`QBatch`].
    pub fn as_batch(&self) -> QBatch<'_> {
        QBatch {
            format: self.format,
            features: self.features,
            rows: self.rows(),
            words: &self.words[..self.len],
        }
    }
}

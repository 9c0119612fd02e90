//! u64 bitset masks over contiguous `f64` columns.
//!
//! The dynamic tree's split-mask kernel routes 64 query points through
//! its trees together. For each distinct split it needs the lanes whose
//! feature value falls at or below the split's threshold, as one u64 word
//! that every node testing that split intersects with the lanes still
//! reaching it.
//! [`fill_mask_le`] builds those words: bit `i % 64` of word `i / 64` is
//! the membership of point `i`.
//!
//! Two builders produce the same words. The scalar one
//! ([`fill_mask_le_into`]) is the reference and the fallback on every
//! target. On x86-64, `fill_mask_le_simd_into` does the comparisons two
//! lanes at a time with SSE2 packed compares. Both perform the same IEEE
//! `<=` per point, so their words are identical; the
//! `simd_mask_is_identical_to_scalar` unit test pins this, and keeps the
//! `cfg`-gated SSE2 code compiled and checked on every x86-64 test run.

/// Number of points packed into one mask word.
pub const WORD_BITS: usize = 64;

/// Packs the `value <= threshold` membership of a contiguous column into
/// mask words: bit `i % 64` of `words[i / 64]` is set iff
/// `values[i] <= threshold`. Trailing bits of the last word are zero.
///
/// `words` is cleared and refilled, keeping its allocation.
///
/// # Examples
///
/// ```
/// let mut words = Vec::new();
/// alic_stats::bitset::fill_mask_le(&[0.5, 2.0, 1.0], 1.0, &mut words);
/// assert_eq!(words, vec![0b101]);
/// ```
pub fn fill_mask_le(values: &[f64], threshold: f64, words: &mut Vec<u64>) {
    words.clear();
    words.resize(values.len().div_ceil(WORD_BITS), 0);
    fill_mask_le_into(values, threshold, words);
}

/// [`fill_mask_le`] writing into a pre-sized word slice, such as the
/// one-word buffer of a 64-lane block.
///
/// # Panics
///
/// Panics if `words.len() != values.len().div_ceil(64)`.
pub fn fill_mask_le_into(values: &[f64], threshold: f64, words: &mut [u64]) {
    assert_eq!(words.len(), values.len().div_ceil(WORD_BITS));
    let mut chunks = values.chunks_exact(WORD_BITS);
    let mut out = words.iter_mut();
    for chunk in chunks.by_ref() {
        let mut word = 0u64;
        for (bit, &value) in chunk.iter().enumerate() {
            word |= u64::from(value <= threshold) << bit;
        }
        *out.next().expect("words sized to values") = word;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = 0u64;
        for (bit, &value) in tail.iter().enumerate() {
            word |= u64::from(value <= threshold) << bit;
        }
        *out.next().expect("words sized to values") = word;
    }
}

/// [`fill_mask_le`] with the comparisons done two lanes at a time via SSE2
/// packed compares (`cmplepd` + `movmskpd`). SSE2 is part of the x86-64
/// baseline, so no runtime feature detection is needed.
///
/// The packed compare is the same IEEE `<=` as the scalar operator, so the
/// produced words are identical to [`fill_mask_le`]'s.
#[cfg(target_arch = "x86_64")]
pub fn fill_mask_le_simd(values: &[f64], threshold: f64, words: &mut Vec<u64>) {
    words.clear();
    words.resize(values.len().div_ceil(WORD_BITS), 0);
    fill_mask_le_simd_into(values, threshold, words);
}

/// [`fill_mask_le_simd`] writing into a pre-sized word slice.
///
/// # Panics
///
/// Panics if `words.len() != values.len().div_ceil(64)`.
#[cfg(target_arch = "x86_64")]
pub fn fill_mask_le_simd_into(values: &[f64], threshold: f64, words: &mut [u64]) {
    use core::arch::x86_64::{_mm_cmple_pd, _mm_loadu_pd, _mm_movemask_pd, _mm_set1_pd};

    assert_eq!(words.len(), values.len().div_ceil(WORD_BITS));
    // SAFETY: SSE2 is unconditionally available on x86_64, and every
    // `_mm_loadu_pd` reads two f64s that `chunks_exact` guarantees in
    // bounds; `loadu` has no alignment requirement.
    unsafe {
        let wide_threshold = _mm_set1_pd(threshold);
        let mut chunks = values.chunks_exact(WORD_BITS);
        let mut out = words.iter_mut();
        for chunk in chunks.by_ref() {
            let mut word = 0u64;
            let mut bit = 0;
            while bit < WORD_BITS {
                let lanes = _mm_loadu_pd(chunk.as_ptr().add(bit));
                let mask = _mm_movemask_pd(_mm_cmple_pd(lanes, wide_threshold)) as u64;
                word |= mask << bit;
                bit += 2;
            }
            *out.next().expect("words sized to values") = word;
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = 0u64;
            let mut bit = 0;
            while bit + 2 <= tail.len() {
                let lanes = _mm_loadu_pd(tail.as_ptr().add(bit));
                let mask = _mm_movemask_pd(_mm_cmple_pd(lanes, wide_threshold)) as u64;
                word |= mask << bit;
                bit += 2;
            }
            if bit < tail.len() {
                word |= u64::from(tail[bit] <= threshold) << bit;
            }
            *out.next().expect("words sized to values") = word;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_mask(values: &[f64], threshold: f64) -> Vec<u64> {
        let mut words = vec![0u64; values.len().div_ceil(WORD_BITS)];
        for (i, &v) in values.iter().enumerate() {
            if v <= threshold {
                words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
            }
        }
        words
    }

    fn column(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 + 11) % 101) as f64 / 17.0 - 2.5)
            .collect()
    }

    #[test]
    fn mask_matches_reference_across_lengths() {
        for n in [0, 1, 2, 63, 64, 65, 127, 128, 200] {
            let values = column(n);
            let threshold = 0.4;
            let mut words = Vec::new();
            fill_mask_le(&values, threshold, &mut words);
            assert_eq!(words, reference_mask(&values, threshold), "n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_mask_is_identical_to_scalar() {
        for n in [0, 1, 2, 3, 63, 64, 65, 66, 127, 128, 200] {
            let values = column(n);
            for threshold in [-3.0, -0.1, 0.4, 2.9, 10.0] {
                let mut scalar = Vec::new();
                let mut simd = Vec::new();
                fill_mask_le(&values, threshold, &mut scalar);
                fill_mask_le_simd(&values, threshold, &mut simd);
                assert_eq!(scalar, simd, "n={n} threshold={threshold}");
            }
        }
    }

    #[test]
    fn refilling_reuses_the_buffer() {
        let mut words = Vec::new();
        fill_mask_le(&column(130), 0.0, &mut words);
        assert_eq!(words.len(), 3);
        fill_mask_le(&column(10), 100.0, &mut words);
        assert_eq!(words.len(), 1);
        assert_eq!(words, vec![(1 << 10) - 1]);
    }
}

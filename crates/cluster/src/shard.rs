//! Order-preserving, exactly-once merging of per-spec results.
//!
//! Workers pull batches from a shared dispatch queue, so results arrive in
//! completion order, interleaved across workers. [`merge_indexed`] puts
//! them back into the order of the expected index list and checks that
//! every index produced exactly one result.

use std::fmt;

/// A merge failure: the collected parts do not cover exactly the expected
/// index set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// An expected index produced no result.
    Missing(usize),
    /// An index produced more than one result.
    Duplicate(usize),
    /// A result arrived for an index that was never expected.
    Unexpected(usize),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Missing(i) => write!(f, "no result for expected index {i}"),
            MergeError::Duplicate(i) => write!(f, "duplicate result for index {i}"),
            MergeError::Unexpected(i) => write!(f, "result for unexpected index {i}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges `(index, value)` parts into the order of `expected`, verifying
/// the parts cover exactly the expected index set.
///
/// # Errors
///
/// Returns a [`MergeError`] if any expected index is missing, duplicated,
/// or a part references an index not in `expected`.
pub fn merge_indexed<T>(expected: &[usize], parts: Vec<(usize, T)>) -> Result<Vec<T>, MergeError> {
    // Position of each expected index in the output.
    let mut position = std::collections::HashMap::with_capacity(expected.len());
    for (pos, &index) in expected.iter().enumerate() {
        if position.insert(index, pos).is_some() {
            return Err(MergeError::Duplicate(index));
        }
    }
    let mut slots: Vec<Option<T>> = expected.iter().map(|_| None).collect();
    for (index, value) in parts {
        let &pos = position.get(&index).ok_or(MergeError::Unexpected(index))?;
        if slots[pos].is_some() {
            return Err(MergeError::Duplicate(index));
        }
        slots[pos] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(pos, slot)| slot.ok_or(MergeError::Missing(expected[pos])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn merge_detects_every_failure_mode() {
        let expected = [2usize, 5, 9];
        assert_eq!(
            merge_indexed(&expected, vec![(5, "b"), (9, "c"), (2, "a")]).unwrap(),
            vec!["a", "b", "c"]
        );
        assert_eq!(
            merge_indexed(&expected, vec![(2, "a"), (5, "b")]).unwrap_err(),
            MergeError::Missing(9)
        );
        assert_eq!(
            merge_indexed(&expected, vec![(2, "a"), (2, "a2"), (5, "b"), (9, "c")]).unwrap_err(),
            MergeError::Duplicate(2)
        );
        assert_eq!(
            merge_indexed(&expected, vec![(2, "a"), (5, "b"), (9, "c"), (11, "d")]).unwrap_err(),
            MergeError::Unexpected(11)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Whatever order the parts arrive in, merging restores the order
        // of the expected index list.
        #[test]
        fn merge_restores_expected_order_from_any_interleaving(
            n in 0usize..80,
            salt in 0u64..u64::MAX,
        ) {
            // Distinct pseudo-random indices (what a resume's pending list
            // looks like: sparse, unordered-looking, unique).
            let mut indices: Vec<usize> = (0..n)
                .map(|i| (qismet_seedlike(salt, i as u64) % 10_000) as usize)
                .collect();
            indices.sort_unstable();
            indices.dedup();

            // Parts arrive in a salted pseudo-random completion order.
            let mut parts: Vec<(usize, usize)> =
                indices.iter().map(|&index| (index, index * 31)).collect();
            parts.sort_by_key(|&(index, _)| qismet_seedlike(!salt, index as u64));
            let merged = merge_indexed(&indices, parts).unwrap();
            let direct: Vec<usize> = indices.iter().map(|&i| i * 31).collect();
            prop_assert_eq!(merged, direct);
        }
    }

    /// SplitMix64-style scramble, local to the tests (no mathkit dep here).
    fn qismet_seedlike(parent: u64, stream: u64) -> u64 {
        let mut z = parent ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

//! Tuple types.
//!
//! §5 of the paper: "Each element in a relation consists of a 64-bit index
//! (`i`), a 64-bit join attribute (`ja`), and `n`-byte data." The algorithms
//! only inspect the index and the join attribute, so the hot-path [`Tuple`]
//! carries exactly those two columns; the payload contributes to every
//! byte count through [`crate::Schema`].

/// The 64-bit row index column.
pub type TupleIndex = u64;

/// The 64-bit join attribute column.
pub type JoinAttr = u64;

/// A relation element: 64-bit index + 64-bit join attribute. The `n`-byte
/// payload is tracked by size via [`crate::Schema`] (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Unique row identifier within its relation.
    pub index: TupleIndex,
    /// Equi-join key.
    pub join_attr: JoinAttr,
}

impl Tuple {
    /// Creates a tuple.
    #[must_use]
    pub fn new(index: TupleIndex, join_attr: JoinAttr) -> Self {
        Self { index, join_attr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_is_two_words() {
        // The hot-path tuple must stay exactly two 64-bit columns.
        assert_eq!(std::mem::size_of::<Tuple>(), 16);
    }
}

//! Position arithmetic for ring snapshots.
//!
//! Every hardware ring in this system (LBR, LCR) snapshots **most recent
//! first**: index 0 is the last record retired before the snapshot was
//! taken. Diagnosis layers speak in 1-based *positions* — position 1 is
//! the record closest to the failure, larger positions lie further back
//! in time (Table 6's "n-th latest entry"). This module is the single
//! home for that convention: decoding walks a snapshot with [`walk`], and
//! every later layer reads the positions the decoded entries carry.

/// Iterates a snapshot with 1-based positions, position 1 = most recent.
pub fn walk<T>(snapshot: &[T]) -> impl DoubleEndedIterator<Item = (usize, &T)> + ExactSizeIterator {
    snapshot.iter().enumerate().map(|(i, r)| (i + 1, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_yields_one_based_positions_most_recent_first() {
        let snap = vec!["newest", "middle", "oldest"];
        let walked: Vec<(usize, &&str)> = walk(&snap).collect();
        assert_eq!(walked[0], (1, &"newest"));
        assert_eq!(walked[2], (3, &"oldest"));
        assert_eq!(walk(&snap).len(), 3);
    }
}

//! Generator helpers over [`Rng64`]'s public draws.

use hqw_math::Rng64;

/// Derives an independent child generator: the child's seed is a fresh
/// 64-bit draw from the parent, so the parent stays deterministic.
pub fn split(rng: &mut Rng64) -> Rng64 {
    Rng64::new(rng.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = Rng64::new(23);
        let mut parent2 = Rng64::new(23);
        let mut c1 = split(&mut parent1);
        let mut c2 = split(&mut parent2);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Child and parent streams differ.
        let mut parent = Rng64::new(29);
        let mut child = split(&mut parent);
        let equal = (0..32)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(equal < 2);
    }
}

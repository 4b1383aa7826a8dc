//! A served crate for `ci/callers.py --self-test`.

pub mod gauge;

pub use gauge::Gauge;

/// Called by the root crate.
pub fn served_entry(x: u32) -> u32 {
    // A comment naming `kept_for_tests` is no caller.
    Gauge::new(x).read() + helper(x)
}

fn helper(x: u32) -> u32 {
    x / 2
}

/// Called only by this crate's tests and by the oracle: allowed.
pub fn kept_for_tests() -> &'static str {
    "served_entry"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept() {
        assert_eq!(kept_for_tests(), "served_entry");
    }
}

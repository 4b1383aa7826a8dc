//! A test-support crate: its calls are no callers of served items.

/// Never listed itself: test-support crates are not scanned for items.
pub fn oracle_only() -> &'static str {
    hqw_demo::kept_for_tests()
}

//! The root crate: its calls count.

pub use hqw_demo::served_entry as entry;

/// Calls the served entry.
pub fn run() -> u32 {
    hqw_demo::served_entry(4)
}

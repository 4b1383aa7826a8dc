//! A type whose own `impl` header is no caller of it.

/// Read by `served_entry`.
#[derive(Debug, Clone, Copy)]
pub struct Gauge(u32);

impl Gauge {
    /// A gauge reading `x`.
    pub fn new(x: u32) -> Self {
        Gauge(x)
    }

    /// The reading.
    pub fn read(self) -> u32 {
        self.0
    }
}

/// Caller-less: its only mentions are its own `impl` header and a string.
pub struct Idle;

impl Default for Idle {
    fn default() -> Self {
        let _ = "Idle";
        Self
    }
}

//! Examples count as callers.

fn main() {
    println!("{}", hqw::run());
}

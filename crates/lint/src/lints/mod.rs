//! The lint visitors, one module per lint tier.

pub mod determinism;
pub mod panic_policy;
pub mod time_arith;
pub mod unread_pub;
pub mod unsafe_hygiene;
pub mod zero_alloc;

//! Strongly-typed identifiers for the entities manipulated across the
//! workspace: periodic tasks, aperiodic events and event handlers.
//!
//! Using newtypes instead of bare integers prevents the classic simulator bug
//! of indexing the periodic-task table with an aperiodic event id (and vice
//! versa), at zero runtime cost.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from its raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Raw index value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Convenience conversion for indexing slices keyed by id.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// Identifier of a periodic task (the paper's τ1, τ2, …).
    TaskId,
    "tau"
);

define_id!(
    /// Identifier of an aperiodic event / servable async event (e1, e2, …).
    EventId,
    "e"
);

define_id!(
    /// Identifier of an event handler (h1, h2, …).
    HandlerId,
    "h"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(TaskId::new(1).to_string(), "tau1");
        assert_eq!(EventId::new(2).to_string(), "e2");
        assert_eq!(HandlerId::new(3).to_string(), "h3");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(TaskId::new(1) < TaskId::new(2));
        assert_eq!(EventId::from(5).raw(), 5);
        assert_eq!(HandlerId::new(4).index(), 4);
    }
}

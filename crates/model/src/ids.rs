//! Strongly-typed identifiers for the entities manipulated across the
//! workspace: periodic tasks, aperiodic events, event handlers and servers.
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

define_id!(
    /// Identifier of an aperiodic task server instance.
    ServerId,
    "srv"
);

define_id!(
    /// Identifier of a single released job (one activation of a task, one
    /// occurrence of an aperiodic event).
    JobId,
    "job"
);

/// Allocates monotonically increasing identifiers of one kind.
///
/// Engines and builders use one allocator per id family so that identifiers
/// double as dense indices into per-entity tables.
#[derive(Debug, Clone, Default)]
pub struct IdAllocator {
    next: u32,
}

impl IdAllocator {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next raw id and advances the counter.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` ids are allocated, which would indicate
    /// a runaway generation loop.
    pub fn next_raw(&mut self) -> u32 {
        let id = self.next;
        self.next = self
            .next
            .checked_add(1)
            // rt-lint: allow(panic, reason = "exhausting the u32 identifier space would need four billion registrations; aborting beats silently reusing ids")
            .expect("identifier space exhausted");
        id
    }

    /// Number of identifiers handed out so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(TaskId::new(1).to_string(), "tau1");
        assert_eq!(EventId::new(2).to_string(), "e2");
        assert_eq!(HandlerId::new(3).to_string(), "h3");
        assert_eq!(ServerId::new(0).to_string(), "srv0");
        assert_eq!(JobId::new(7).to_string(), "job7");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(TaskId::new(1) < TaskId::new(2));
        assert_eq!(EventId::from(5).raw(), 5);
        assert_eq!(HandlerId::new(4).index(), 4);
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut alloc = IdAllocator::new();
        assert_eq!(alloc.next_raw(), 0);
        assert_eq!(alloc.next_raw(), 1);
        assert_eq!(alloc.next_raw(), 2);
        assert_eq!(alloc.allocated(), 3);
    }
}

//! Discrete virtual-time representation shared by the simulator, the RTSJ
//! emulation engine and the analysis crates.
//!
//! The paper expresses every quantity in *time units* (tu): the example server
//! has a capacity of 3 tu and a period of 6 tu, the generated aperiodic costs
//! average 3 tu, and the generator clamps costs below 0.1 tu. To represent
//! fractional costs exactly we count time in integer **ticks**, with
//! [`TICKS_PER_UNIT`] ticks per time unit. All arithmetic is integer
//! arithmetic, so simulations and executions are bit-for-bit deterministic.
//!
//! Two newtypes are provided:
//!
//! * [`Instant`] — an absolute point on the virtual time line (ticks since the
//!   system start).
//! * [`Span`] — a non-negative duration in ticks.
//!
//! They intentionally mirror the RTSJ `AbsoluteTime` / `RelativeTime` pair the
//! paper's framework manipulates, restricted to the operations that have a
//! meaning for a virtual clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Number of integer ticks per paper "time unit".
///
/// 1000 ticks per unit lets the generator express the paper's 0.1 tu clamping
/// threshold (100 ticks) and milli-unit cost granularity exactly.
pub const TICKS_PER_UNIT: u64 = 1_000;

/// An absolute point in virtual time, counted in ticks since time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A non-negative duration in virtual time, counted in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(u64);

impl Instant {
    /// The origin of the virtual time line.
    pub const ZERO: Instant = Instant(0);
    /// The largest representable instant; used as "never" sentinel by engines.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Instant(ticks)
    }

    /// Creates an instant from whole time units.
    #[inline]
    pub const fn from_units(units: u64) -> Self {
        Instant(units * TICKS_PER_UNIT)
    }

    /// Creates an instant from a (possibly fractional) number of time units.
    ///
    /// Negative or non-finite inputs saturate to zero.
    #[inline]
    pub fn from_units_f64(units: f64) -> Self {
        Instant(f64_units_to_ticks(units))
    }

    /// Raw tick count since time zero.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Value in time units as a floating point number (for reporting only).
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// The duration elapsed since `earlier`, or [`Span::ZERO`] if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: Instant) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// The duration between the two instants, in either direction.
    #[inline]
    pub fn abs_diff(self, other: Instant) -> Span {
        Span(self.0.abs_diff(other.0))
    }

    /// Checked difference: `None` when `earlier` is later than `self`.
    #[inline]
    pub fn checked_since(self, earlier: Instant) -> Option<Span> {
        self.0.checked_sub(earlier.0).map(Span)
    }

    /// The duration elapsed since `earlier`, asserting (in debug builds)
    /// that `earlier` really is earlier.
    ///
    /// This is the subtraction to use at call sites where an inverted pair
    /// indicates a *bug* — a completion before its start, a window end
    /// before the current instant — rather than a legitimate clamp: the
    /// saturating operators (`-`, [`Instant::saturating_since`]) silently
    /// return zero there and mask the underflow, while this helper turns it
    /// into a diagnosable panic in tests and keeps the release-build
    /// behaviour (saturation) unchanged.
    #[inline]
    #[track_caller]
    pub fn since(self, earlier: Instant) -> Span {
        debug_assert!(
            earlier.0 <= self.0,
            "time went backwards: since({earlier}) called on {self}"
        );
        Span(self.0.saturating_sub(earlier.0))
    }

    /// True if this instant is the `MAX` sentinel.
    #[inline]
    pub const fn is_never(self) -> bool {
        self.0 == u64::MAX
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Instant) -> Instant {
        Instant(self.0.min(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Instant) -> Instant {
        Instant(self.0.max(other.0))
    }
}

impl Span {
    /// The empty duration.
    pub const ZERO: Span = Span(0);
    /// The largest representable duration.
    pub const MAX: Span = Span(u64::MAX);
    /// One full time unit.
    pub const UNIT: Span = Span(TICKS_PER_UNIT);

    /// Creates a span from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Span(ticks)
    }

    /// Creates a span from whole time units.
    #[inline]
    pub const fn from_units(units: u64) -> Self {
        Span(units * TICKS_PER_UNIT)
    }

    /// Creates a span from a (possibly fractional) number of time units.
    ///
    /// Negative or non-finite inputs saturate to zero.
    #[inline]
    pub fn from_units_f64(units: f64) -> Self {
        Span(f64_units_to_ticks(units))
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Value in time units as a floating point number (for reporting only).
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// True when the span is empty.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Span) -> Span {
        Span(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, other: Span) -> Option<Span> {
        self.0.checked_sub(other.0).map(Span)
    }

    /// Subtraction that asserts (in debug builds) that `other` fits in
    /// `self` — the [`Instant::since`] counterpart for durations, for call
    /// sites where a negative intermediate indicates an overrun that the
    /// silent `saturating_sub` clamp would hide.
    #[inline]
    #[track_caller]
    pub fn minus(self, other: Span) -> Span {
        debug_assert!(
            other.0 <= self.0,
            "span underflow: minus({other}) called on {self}"
        );
        Span(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, other: Span) -> Option<Span> {
        self.0.checked_add(other.0).map(Span)
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Span) -> Span {
        Span(self.0.min(other.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Span) -> Span {
        Span(self.0.max(other.0))
    }

    /// Number of whole times `other` fits into `self` (integer division).
    ///
    /// # Panics
    /// Panics when `other` is zero.
    #[inline]
    pub fn div_span(self, other: Span) -> u64 {
        assert!(!other.is_zero(), "division of a Span by a zero Span");
        self.0 / other.0
    }

    /// Ceiling division of two spans: the smallest `n` with `n * other >= self`.
    ///
    /// # Panics
    /// Panics when `other` is zero.
    #[inline]
    pub fn div_ceil_span(self, other: Span) -> u64 {
        assert!(
            !other.is_zero(),
            "ceiling division of a Span by a zero Span"
        );
        self.0.div_ceil(other.0)
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Span {
        Span(self.0.saturating_mul(factor))
    }
}

#[inline]
fn f64_units_to_ticks(units: f64) -> u64 {
    if !units.is_finite() || units <= 0.0 {
        return 0;
    }
    let ticks = units * TICKS_PER_UNIT as f64;
    if ticks >= u64::MAX as f64 {
        u64::MAX
    } else {
        ticks.round() as u64
    }
}

impl Add<Span> for Instant {
    type Output = Instant;
    #[inline]
    fn add(self, rhs: Span) -> Instant {
        Instant(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Span> for Instant {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

// The four subtraction impls below are *clamping*: they saturate at zero
// instead of underflowing. That is the right default for measurement call
// sites, but it silently masks inverted operands everywhere else, so the
// operator forms are usable only here — rt-lint's time-arith pass reads the
// `time-arith-clamp(...)` annotations as its whitelist and requires every
// other call site to name an explicit subtraction (`since`, `minus`,
// `saturating_since`, `saturating_sub`, or a `checked_*` form). Addition is
// not policed: `+`/`+=` saturate at `MAX` (an unreachable sentinel, see
// `Instant::MAX`) and are the documented construction idiom.
// rt-lint: time-arith-clamp(Instant - Span)
impl Sub<Span> for Instant {
    type Output = Instant;
    #[inline]
    fn sub(self, rhs: Span) -> Instant {
        Instant(self.0.saturating_sub(rhs.0))
    }
}

// rt-lint: time-arith-clamp(Instant - Instant)
impl Sub<Instant> for Instant {
    type Output = Span;
    /// Saturating difference between two instants (zero when `rhs` is later).
    ///
    /// The clamp is intentional for *measurement* call sites (elapsed time,
    /// slack, windows that may legitimately be empty). Where an inverted
    /// pair means a bug — a completion before its start, an end before a
    /// begin — use [`Instant::since`] or [`Instant::checked_since`] instead,
    /// which surface the underflow rather than masking it.
    #[inline]
    fn sub(self, rhs: Instant) -> Span {
        self.saturating_since(rhs)
    }
}

impl Add for Span {
    type Output = Span;
    #[inline]
    fn add(self, rhs: Span) -> Span {
        Span(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Span {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

// rt-lint: time-arith-clamp(Span - Span)
impl Sub for Span {
    type Output = Span;
    /// Saturating subtraction (clamps at zero).
    #[inline]
    fn sub(self, rhs: Span) -> Span {
        Span(self.0.saturating_sub(rhs.0))
    }
}

// rt-lint: time-arith-clamp(Span -= Span)
impl SubAssign for Span {
    #[inline]
    fn sub_assign(&mut self, rhs: Span) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    #[inline]
    fn mul(self, rhs: u64) -> Span {
        Span(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Span {
    type Output = Span;
    #[inline]
    fn div(self, rhs: u64) -> Span {
        Span(self.0 / rhs)
    }
}

impl Rem<Span> for Span {
    type Output = Span;
    #[inline]
    fn rem(self, rhs: Span) -> Span {
        Span(self.0 % rhs.0)
    }
}

impl Sum for Span {
    fn sum<I: Iterator<Item = Span>>(iter: I) -> Span {
        iter.fold(Span::ZERO, |acc, s| acc + s)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}tu", self.as_units())
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}tu", self.as_units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_and_ticks_round_trip() {
        let i = Instant::from_units(6);
        assert_eq!(i.ticks(), 6 * TICKS_PER_UNIT);
        assert_eq!(i.as_units(), 6.0);
        let s = Span::from_units_f64(2.5);
        assert_eq!(s.ticks(), 2_500);
        assert_eq!(s.as_units(), 2.5);
    }

    #[test]
    fn fractional_units_round_to_nearest_tick() {
        let s = Span::from_units_f64(0.1);
        assert_eq!(s.ticks(), 100);
        let s = Span::from_units_f64(0.0004);
        assert_eq!(s.ticks(), 0);
        let s = Span::from_units_f64(0.0006);
        assert_eq!(s.ticks(), 1);
    }

    #[test]
    fn negative_or_nan_units_saturate_to_zero() {
        assert_eq!(Span::from_units_f64(-3.0), Span::ZERO);
        assert_eq!(Span::from_units_f64(f64::NAN), Span::ZERO);
        assert_eq!(Instant::from_units_f64(f64::NEG_INFINITY), Instant::ZERO);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::from_units(2);
        let t1 = t0 + Span::from_units(4);
        assert_eq!(t1, Instant::from_units(6));
        assert_eq!(t1 - t0, Span::from_units(4));
        assert_eq!(t0 - t1, Span::ZERO, "instant difference saturates");
        assert_eq!(t1.checked_since(t0), Some(Span::from_units(4)));
        assert_eq!(t0.checked_since(t1), None);
        assert_eq!(t0.abs_diff(t1), Span::from_units(4));
    }

    #[test]
    fn span_arithmetic_saturates() {
        let a = Span::from_units(3);
        let b = Span::from_units(5);
        assert_eq!(a - b, Span::ZERO);
        assert_eq!(b - a, Span::from_units(2));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(Span::MAX + Span::UNIT, Span::MAX);
        assert_eq!(Span::MAX.saturating_mul(3), Span::MAX);
    }

    #[test]
    fn span_division() {
        let period = Span::from_units(6);
        let work = Span::from_units(13);
        assert_eq!(work.div_span(period), 2);
        assert_eq!(work.div_ceil_span(period), 3);
        assert_eq!(Span::from_units(12).div_ceil_span(period), 2);
        assert_eq!(work % period, Span::from_units(1));
    }

    #[test]
    #[should_panic(expected = "zero Span")]
    fn div_by_zero_span_panics() {
        let _ = Span::from_units(1).div_span(Span::ZERO);
    }

    #[test]
    fn min_max_and_sentinels() {
        assert!(Instant::MAX.is_never());
        assert!(!Instant::ZERO.is_never());
        assert_eq!(
            Instant::from_units(3).min(Instant::from_units(5)),
            Instant::from_units(3)
        );
        assert_eq!(
            Span::from_units(3).max(Span::from_units(5)),
            Span::from_units(5)
        );
    }

    #[test]
    fn sum_of_spans() {
        let total: Span = [1u64, 2, 3].iter().map(|&u| Span::from_units(u)).sum();
        assert_eq!(total, Span::from_units(6));
    }

    #[test]
    fn since_and_minus_agree_with_saturating_on_ordered_inputs() {
        let t0 = Instant::from_units(2);
        let t1 = Instant::from_units(6);
        assert_eq!(t1.since(t0), Span::from_units(4));
        assert_eq!(t1.since(t1), Span::ZERO);
        assert_eq!(
            Span::from_units(5).minus(Span::from_units(2)),
            Span::from_units(3)
        );
        assert_eq!(Span::from_units(5).minus(Span::from_units(5)), Span::ZERO);
    }

    /// Regression guard for the masked-underflow audit: the debug-checked
    /// subtractions must turn an inverted pair into a diagnosable panic
    /// instead of silently clamping to zero. (Debug builds only: release
    /// builds keep the saturating behaviour.)
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_inverted_instants_in_debug() {
        let _ = Instant::from_units(2).since(Instant::from_units(6));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "span underflow")]
    fn minus_panics_on_underflow_in_debug() {
        let _ = Span::from_units(2).minus(Span::from_units(6));
    }

    #[test]
    fn display_uses_time_units() {
        assert_eq!(format!("{}", Span::from_units_f64(2.5)), "2.500tu");
        assert_eq!(format!("{}", Instant::from_units(10)), "10.000tu");
    }
}

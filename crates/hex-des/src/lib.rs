//! # hex-des — deterministic discrete-event simulation engine
//!
//! This crate is the *timing substrate* of the HEX reproduction. The original
//! paper (Dolev et al., "HEX: Scaling honeycombs is easier than scaling clock
//! trees", SPAA'13 / JCSS'16) evaluated HEX with Mentor ModelSim driving a
//! VHDL netlist. Everything the paper's model and experiments rely on is
//! expressible at a much higher abstraction level: messages delayed within
//! `[d-, d+]`, timers that expire within `[T-, ϑ·T-]`, and two small
//! asynchronous state machines per node. This crate provides exactly that
//! substrate:
//!
//! * [`Time`] / [`Duration`] — integer picosecond time, exact and portable;
//! * [`EventQueue`] — a binary-heap future event list with deterministic
//!   FIFO tie-breaking for simultaneous events;
//! * [`CalendarQueue`] — a bounded-horizon calendar/bucket-ring queue with
//!   O(1) amortized push/pop on bounded-increment workloads;
//! * [`FutureEventList`] — the sealed trait unifying the two queues, so
//!   simulation engines can select their event list per run;
//! * [`SimRng`] — seedable random sampling helpers (uniform delay intervals);
//! * [`Schedule`] — absolute-time schedules used by pulse sources.
//!
//! The engine is intentionally generic: both the HEX grid simulator
//! (`hex-sim`) and the clock-tree baseline (`hex-tree`) are built on it.
//!
//! ## Determinism
//!
//! A simulation is a pure function of its configuration and seed. Two events
//! scheduled for the same picosecond pop in the order they were pushed
//! (sequence-number tie-break), so runs are bit-reproducible across
//! platforms, which the test suite relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod event;
pub mod fel;
pub mod rng;
pub mod schedule;
pub mod time;

pub use calendar::CalendarQueue;
pub use event::{EventQueue, QueuedEvent};
pub use fel::FutureEventList;
pub use rng::SimRng;
pub use schedule::Schedule;
pub use time::{Duration, Time};

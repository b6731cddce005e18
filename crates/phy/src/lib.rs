//! `lln-phy` — IEEE 802.15.4 physical-layer model.
//!
//! This crate is the hardware-substitution layer of the reproduction
//! (see DESIGN.md): it replaces the paper's AT86RF233 radios and office
//! testbed with a deterministic frame-level radio model that preserves
//! the timing and interference behaviour the paper's results rest on:
//!
//! - **air time**: 250 kb/s, 32 µs per byte, 6 bytes of PHY framing, so
//!   a full 127 B frame occupies the channel for ≈4.26 ms (Table 5);
//! - **platform overhead**: a configurable per-byte SPI/processing cost
//!   charged to the sender, calibrated so a full frame costs ≈8.2 ms
//!   end-to-end (§6.4's measured figure);
//! - **half-duplex**: a node cannot receive while transmitting — this
//!   alone produces the paper's B/2 and B/3 multihop ceilings (§7.2);
//! - **hidden terminals**: two senders that cannot hear each other but
//!   share a receiver corrupt each other's frames at that receiver;
//! - **per-link PRR** and time-scheduled interferers (Figure 10's
//!   diurnal WiFi interference).

pub mod config;
pub mod link;
pub mod medium;

pub use config::PhyConfig;
pub use link::LinkMatrix;
pub use medium::{Medium, PhyCounter, TxHandle};

/// Index of a radio in the medium (dense, assigned at registration).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RadioIdx(pub usize);

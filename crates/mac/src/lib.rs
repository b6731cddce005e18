//! `lln-mac` — IEEE 802.15.4 MAC layer for the TCPlp reproduction.
//!
//! The paper implements CSMA-CA and link retries **in software** (§4)
//! to avoid the AT86RF233's deaf-listening behaviour, and §7.1 adds the
//! key mechanism of the multihop study: a uniformly random delay in
//! `[0, d]` between link-layer retransmissions, which de-synchronises
//! hidden-terminal collisions. This crate provides those mechanisms as
//! sans-IO state machines plus the sleepy-end-device machinery of the
//! application study (§3.2, §9, Appendix C):
//!
//! - [`frame`]: MAC frame codec with the 23-byte header+FCS overhead of
//!   Table 6, including the frame-pending bit and data-request command;
//! - [`csma`]: unslotted CSMA-CA backoff plus the link-retry policy
//!   (the [`csma::TxProcess`] state machine);
//! - [`poll`]: listen-after-send data polling with fixed (§9.2) or
//!   adaptive Trickle-based (Appendix C) sleep intervals.
//!
//! The parent side of polling, the per-child indirect queue, lives with
//! the node that owns it: `lln_node::stack::Node::enqueue_indirect`
//! queues a packet for a sleepy child under the node's memory budget,
//! and the world's `handle_data_request` answers a child's poll from it.

pub mod csma;
pub mod frame;
pub mod poll;
pub mod pool;

pub use csma::{MacConfig, TxProcess, TxStep};
pub use frame::{FrameType, MacFrame};
pub use pool::{FrameBuf, FramePool};
pub use poll::{PollMode, PollScheduler};

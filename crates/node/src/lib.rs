//! `lln-node` — full-stack simulated nodes and the experiment world.
//!
//! This crate wires every substrate together into runnable networks:
//! each [`stack::Node`] owns a software MAC (CSMA + link retries with
//! the paper's random delay), a 6LoWPAN adaptation layer, an IPv6
//! forwarding layer (FIFO or RED/ECN queues), and one of the transport
//! stacks under study (TCPlp, uIP-class TCP, CoAP/CoCoA over UDP). The
//! [`world::World`] owns the shared radio [`lln_phy::Medium`], the
//! event queue, the border-router↔cloud wired link, and the
//! measurement hooks every experiment binary uses.
//!
//! Topologies mirror the paper's: single-hop pairs (§6), hidden-
//! terminal chains (§7), and a Figure 3-like office tree for the
//! application study (§9).

pub mod adversary;
pub mod app;
pub mod fault;
pub mod flood;
pub mod route;
pub mod stack;
pub mod supervisor;
pub mod trace;
pub mod world;

pub use adversary::{Adversary, AdversaryProfile, AdversaryStats};
pub use fault::{FaultEvent, FaultPlan};
pub use flood::{FloodConfig, FloodStats, Flooder};
pub use route::{RouteTable, Topology};
pub use stack::{Node, NodeCounter, NodeKind, TransportStack};
pub use supervisor::{RecordAssembler, SupervisedConnection, SupervisorConfig, SupervisorStats};
pub use trace::{PacketTrace, TraceDir};
pub use world::{World, WorldConfig};

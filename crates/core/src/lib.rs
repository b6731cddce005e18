//! # TCPlp — full-scale TCP for low-power and lossy networks
//!
//! This crate is the core contribution of the reproduced paper
//! ("Performant TCP for Low-Power Wireless Networks", NSDI 2020): a
//! complete, FreeBSD-style TCP protocol implementation engineered for
//! the constraints of LLN-class devices, expressed sans-IO so it runs
//! identically under unit tests, the discrete-event simulator in
//! `lln-node`, or any other driver.
//!
//! Feature set (paper Table 1, TCPlp column): flow control, New Reno
//! congestion control, RTT estimation, MSS option, TCP timestamps,
//! out-of-order reassembly, selective ACKs, and delayed ACKs — plus
//! zero-window probes, challenge ACKs, header prediction, and optional
//! ECN. Memory behaviour follows §4.3: fixed buffers allocated once,
//! a zero-copy send path ([`sendbuf::SendBuffer::view`]) and the
//! in-place reassembly queue ([`recvbuf::RecvBuffer`], Figure 1b).
//! Segment input is staged: the pure [`classify`] decides every
//! segment's fate from the RFC 9293 variables in a [`Tcb`], and
//! the socket runs one step sequence for each accepted segment.
//!
//! ## Quick tour
//!
//! ```
//! use tcplp::{ListenSocket, NodeBudget, TcpConfig, TcpSocket, TcpState};
//! use lln_netip::{Ecn, NodeId};
//! use lln_sim::Instant;
//!
//! let a_addr = NodeId(1).mesh_addr();
//! let b_addr = NodeId(2).mesh_addr();
//! let mut client = TcpSocket::new(TcpConfig::default(), a_addr, 49152);
//! let mut listener = ListenSocket::new(TcpConfig::default(), b_addr, 80, &NodeBudget::default());
//!
//! // RFC 4987-style passive open: the SYN parks in the listener's
//! // bounded SYN cache (no socket yet); the SYN-ACK comes from the
//! // cache and the full socket is born only on the completing ACK.
//! let t0 = Instant::ZERO;
//! client.connect(b_addr, 80, 1000, t0);
//! let syn = client.poll_transmit(t0).expect("SYN");
//! let due = listener
//!     .on_segment(a_addr, &syn, 2000, t0)
//!     .into_reply()
//!     .expect("SYN-ACK from the SYN cache");
//! let synack = listener.synack(due, t0);
//! client.on_segment(&synack, Ecn::NotCapable, t0);
//! let ack = client.poll_transmit(t0).expect("ACK");
//! let server = listener
//!     .on_segment(a_addr, &ack, 0, t0)
//!     .into_spawn()
//!     .expect("socket spawned on handshake completion");
//! assert_eq!(client.state(), TcpState::Established);
//! assert_eq!(server.state(), TcpState::Established);
//! assert_eq!(listener.half_open(), 0, "cache entry promoted and freed");
//! ```

pub mod cc;
pub mod config;
pub mod input;
pub mod listen;
pub mod mem;
mod rangeset;
pub mod recvbuf;
pub mod rtt;
pub mod sack;
pub mod sendbuf;
pub mod seq;
pub mod socket;
pub mod stats;
pub mod wire;

pub use cc::NewReno;
pub use config::TcpConfig;
pub use input::{classify, Predicted, Tcb, Verdict};
pub use listen::{reset_for, ListenSocket, ListenStats, ListenerResponse, SynAckDue};
pub use mem::{MemClass, MemGovernor, NodeBudget};
pub use recvbuf::RecvBuffer;
pub use rtt::RttEstimator;
pub use sack::{SackScoreboard, SackUpdate};
pub use sendbuf::SendBuffer;
pub use seq::TcpSeq;
pub use socket::{CloseReason, TcpSocket, TcpState};
pub use stats::TcpStats;
pub use wire::{Flags, SackBlock, Segment, SegmentView, Timestamps};

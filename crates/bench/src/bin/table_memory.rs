//! Tables 3-4: memory footprint of TCPlp connection state.
//!
//! The paper reports protocol state of a few hundred bytes per active
//! socket (TinyOS: 488 B; RIOT: 364 B) and ~12-16 B per passive socket,
//! with the send/receive buffers dominating overall memory. We report
//! the analogous numbers for this implementation: `size_of` of the
//! socket structures (control state) and the configured buffer sizes.

use std::mem::size_of;
use tcplp::{ListenSocket, TcpConfig, TcpSocket};

fn main() {
    let cfg = TcpConfig::default();
    println!("== Tables 3-4: TCPlp memory usage (this implementation) ==\n");
    println!("{:<38} {:>10}", "item", "bytes");
    println!("{:-<50}", "");
    println!(
        "{:<38} {:>10}",
        "active socket control state (struct)",
        size_of::<TcpSocket>()
    );
    println!(
        "{:<38} {:>10}",
        "passive socket (struct)",
        size_of::<ListenSocket>()
    );
    println!("{:<38} {:>10}", "send buffer (configured)", cfg.send_buf);
    println!("{:<38} {:>10}", "receive buffer (configured)", cfg.recv_buf);
    let total = size_of::<TcpSocket>() + cfg.send_buf + cfg.recv_buf;
    println!("{:-<50}", "");
    println!("{:<38} {:>10}", "total per active connection", total);
    println!();
    println!("paper: active protocol state 364-488 B + ~2-4 KiB buffers;");
    println!("       passive sockets 12-16 B (ours is a host-class struct,");
    println!("       so the control state is larger but still < 1 KiB and");
    println!("       buffers dominate, which is the paper's point).");
}

//! IPv6 addresses and node identities.
//!
//! The reproduction uses a Thread-like addressing scheme: every node has
//! a short [`NodeId`] (like a Thread RLOC16); its mesh-local IPv6 address
//! is formed from a shared mesh prefix plus an interface identifier
//! derived from the node id. Deriving addresses this way is what lets
//! 6LoWPAN IPHC elide them entirely (Table 6's 2-byte best case).

use core::fmt;

/// A 128-bit IPv6 address (network byte order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv6Addr(pub [u8; 16]);

/// Short identifier for a simulated node (also used as the 802.15.4
/// short address and to derive EUI-64 interface identifiers).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u16);

/// The mesh-local prefix shared by all LLN nodes (fd00:db8::/64).
pub const MESH_PREFIX: [u8; 8] = [0xfd, 0x00, 0x0d, 0xb8, 0, 0, 0, 0];

/// Prefix used for off-mesh ("cloud") hosts reachable via the border
/// router (2001:db8::/64).
pub const CLOUD_PREFIX: [u8; 8] = [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0];

impl NodeId {
    /// The EUI-64 interface identifier for this node, formed the 6LoWPAN
    /// way from a 16-bit short address: `0000:00ff:fe00:XXXX` with the
    /// universal/local bit cleared.
    pub fn iid(self) -> [u8; 8] {
        let [hi, lo] = self.0.to_be_bytes();
        [0x00, 0x00, 0x00, 0xff, 0xfe, 0x00, hi, lo]
    }

    /// The node's mesh-local IPv6 address.
    pub fn mesh_addr(self) -> Ipv6Addr {
        Ipv6Addr::from_parts(MESH_PREFIX, self.iid())
    }

    /// An off-mesh address with the same iid under the cloud prefix.
    pub fn cloud_addr(self) -> Ipv6Addr {
        Ipv6Addr::from_parts(CLOUD_PREFIX, self.iid())
    }

    /// The node's EUI-64 long link-layer address (derived, unique).
    pub fn eui64(self) -> [u8; 8] {
        let [hi, lo] = self.0.to_be_bytes();
        [0x02, 0x00, 0x00, 0xff, 0xfe, 0x00, hi, lo]
    }
}

impl Ipv6Addr {
    /// The unspecified address `::`.
    pub const UNSPECIFIED: Ipv6Addr = Ipv6Addr([0; 16]);

    /// Builds an address from a 64-bit prefix and a 64-bit iid.
    pub fn from_parts(prefix: [u8; 8], iid: [u8; 8]) -> Self {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&prefix);
        b[8..].copy_from_slice(&iid);
        Ipv6Addr(b)
    }

    /// The 64-bit prefix.
    pub fn prefix(&self) -> [u8; 8] {
        self.0[..8].try_into().unwrap()
    }

    /// The 64-bit interface identifier.
    pub fn iid(&self) -> [u8; 8] {
        self.0[8..].try_into().unwrap()
    }

    /// True if this address is under the mesh-local prefix.
    pub fn is_mesh_local(&self) -> bool {
        self.prefix() == MESH_PREFIX
    }

    /// If the iid encodes a short address (`0000:00ff:fe00:XXXX`),
    /// recovers the [`NodeId`].
    pub fn node_id(&self) -> Option<NodeId> {
        let iid = self.iid();
        if iid[..6] == [0x00, 0x00, 0x00, 0xff, 0xfe, 0x00] {
            Some(NodeId(u16::from_be_bytes([iid[6], iid[7]])))
        } else {
            None
        }
    }
}

impl fmt::Debug for Ipv6Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, chunk) in self.0.chunks(2).enumerate() {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{:x}", u16::from_be_bytes([chunk[0], chunk[1]]))?;
        }
        Ok(())
    }
}

impl fmt::Display for Ipv6Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_addr_roundtrips_node_id() {
        let n = NodeId(0x1234);
        let a = n.mesh_addr();
        assert!(a.is_mesh_local());
        assert_eq!(a.node_id(), Some(n));
    }

    #[test]
    fn cloud_addr_is_not_mesh_local() {
        let a = NodeId(7).cloud_addr();
        assert!(!a.is_mesh_local());
        assert_eq!(a.node_id(), Some(NodeId(7)));
    }

    #[test]
    fn non_derived_iid_has_no_node_id() {
        let a = Ipv6Addr::from_parts(MESH_PREFIX, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.node_id(), None);
    }

    #[test]
    fn display_formats_colon_hex() {
        let a = NodeId(0x00ab).mesh_addr();
        assert_eq!(format!("{a}"), "fd00:db8:0:0:0:ff:fe00:ab");
    }

    #[test]
    fn eui64_is_unique_per_node() {
        assert_ne!(NodeId(1).eui64(), NodeId(2).eui64());
    }
}

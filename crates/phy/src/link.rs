//! Connectivity and link-quality model.
//!
//! Who can hear whom is the input that produces the paper's multihop
//! phenomena: hidden terminals (Figure 6) exist exactly when two
//! senders share a receiver without hearing each other. The matrix
//! stores, per ordered pair, whether the link is audible (energy
//! detectable — contributes to CCA and collisions) and its packet
//! reception ratio when no collision occurs.

use crate::RadioIdx;

/// Dense pairwise connectivity matrix.
#[derive(Clone, Debug)]
pub struct LinkMatrix {
    n: usize,
    audible: Vec<bool>,
    prr: Vec<f64>,
}

impl LinkMatrix {
    /// Creates a matrix for `n` radios with no connectivity.
    pub fn new(n: usize) -> Self {
        LinkMatrix {
            n,
            audible: vec![false; n * n],
            prr: vec![0.0; n * n],
        }
    }

    /// Number of radios.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no radios.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn idx(&self, from: RadioIdx, to: RadioIdx) -> usize {
        debug_assert!(from.0 < self.n && to.0 < self.n);
        from.0 * self.n + to.0
    }

    /// Sets a (directed) link.
    pub fn set_link(&mut self, from: RadioIdx, to: RadioIdx, prr: f64) {
        let i = self.idx(from, to);
        self.audible[i] = true;
        self.prr[i] = prr.clamp(0.0, 1.0);
    }

    /// Sets a symmetric link.
    pub fn set_symmetric(&mut self, a: RadioIdx, b: RadioIdx, prr: f64) {
        self.set_link(a, b, prr);
        self.set_link(b, a, prr);
    }

    /// Marks a directed pair as audible (energy heard) but with zero
    /// reception probability — an interference-only relationship.
    pub fn set_interference(&mut self, from: RadioIdx, to: RadioIdx) {
        let i = self.idx(from, to);
        self.audible[i] = true;
        self.prr[i] = 0.0;
    }

    /// Whether `to` can detect energy from `from`.
    pub fn audible(&self, from: RadioIdx, to: RadioIdx) -> bool {
        if from == to {
            return false;
        }
        self.audible[self.idx(from, to)]
    }

    /// Packet reception ratio of the directed link.
    pub fn prr(&self, from: RadioIdx, to: RadioIdx) -> f64 {
        self.prr[self.idx(from, to)]
    }

    /// Builds a linear chain `0 - 1 - ... - n-1` where only adjacent
    /// nodes hear each other: the canonical hidden-terminal topology
    /// used for the paper's multihop experiments (§7).
    pub fn chain(n: usize, prr: f64) -> Self {
        let mut m = LinkMatrix::new(n);
        for i in 1..n {
            m.set_symmetric(RadioIdx(i - 1), RadioIdx(i), prr);
        }
        m
    }

    /// Chain where nodes also *hear* (but cannot decode) two-hop
    /// neighbours; carrier sense then suppresses some hidden-terminal
    /// collisions, as in dense real deployments.
    pub fn chain_with_two_hop_carrier(n: usize, prr: f64) -> Self {
        let mut m = LinkMatrix::chain(n, prr);
        for i in 2..n {
            m.set_interference(RadioIdx(i - 2), RadioIdx(i));
            m.set_interference(RadioIdx(i), RadioIdx(i - 2));
        }
        m
    }

    /// Full mesh: everyone hears everyone (single-collision-domain,
    /// the §6 single-hop setting).
    pub fn full_mesh(n: usize, prr: f64) -> Self {
        let mut m = LinkMatrix::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                m.set_symmetric(RadioIdx(a), RadioIdx(b), prr);
            }
        }
        m
    }

    /// Disk-graph from 2-D positions: nodes within `range` get links
    /// with `prr`; nodes within `carrier_range` merely interfere.
    pub fn from_positions(
        positions: &[(f64, f64)],
        range: f64,
        carrier_range: f64,
        prr: f64,
    ) -> Self {
        let n = positions.len();
        let mut m = LinkMatrix::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                let dx = positions[a].0 - positions[b].0;
                let dy = positions[a].1 - positions[b].1;
                let d = (dx * dx + dy * dy).sqrt();
                if d <= range {
                    m.set_symmetric(RadioIdx(a), RadioIdx(b), prr);
                } else if d <= carrier_range {
                    m.set_interference(RadioIdx(a), RadioIdx(b));
                    m.set_interference(RadioIdx(b), RadioIdx(a));
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_adjacent_only() {
        let m = LinkMatrix::chain(4, 0.95);
        assert!(m.audible(RadioIdx(0), RadioIdx(1)));
        assert!(m.audible(RadioIdx(1), RadioIdx(0)));
        assert!(
            !m.audible(RadioIdx(0), RadioIdx(2)),
            "hidden terminals exist"
        );
        assert!(!m.audible(RadioIdx(0), RadioIdx(3)));
        assert_eq!(m.prr(RadioIdx(0), RadioIdx(1)), 0.95);
    }

    #[test]
    fn self_link_never_audible() {
        let mut m = LinkMatrix::new(2);
        m.set_symmetric(RadioIdx(0), RadioIdx(1), 1.0);
        assert!(!m.audible(RadioIdx(0), RadioIdx(0)));
    }

    #[test]
    fn interference_is_audible_but_undecodable() {
        let m = LinkMatrix::chain_with_two_hop_carrier(3, 1.0);
        assert!(m.audible(RadioIdx(0), RadioIdx(2)));
        assert_eq!(m.prr(RadioIdx(0), RadioIdx(2)), 0.0);
    }

    #[test]
    fn full_mesh_connects_all_pairs() {
        let m = LinkMatrix::full_mesh(5, 1.0);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert!(m.audible(RadioIdx(a), RadioIdx(b)));
                }
            }
        }
    }

    #[test]
    fn disk_graph_by_distance() {
        let pos = [(0.0, 0.0), (5.0, 0.0), (12.0, 0.0)];
        let m = LinkMatrix::from_positions(&pos, 6.0, 10.0, 0.9);
        assert!(m.audible(RadioIdx(0), RadioIdx(1)));
        assert_eq!(m.prr(RadioIdx(0), RadioIdx(1)), 0.9);
        assert!(m.audible(RadioIdx(1), RadioIdx(2)), "7 units: carrier only");
        assert_eq!(m.prr(RadioIdx(1), RadioIdx(2)), 0.0);
        assert!(!m.audible(RadioIdx(0), RadioIdx(2)), "12 units: silence");
    }

    #[test]
    fn prr_clamped() {
        let mut m = LinkMatrix::new(2);
        m.set_link(RadioIdx(0), RadioIdx(1), 1.5);
        assert_eq!(m.prr(RadioIdx(0), RadioIdx(1)), 1.0);
    }
}

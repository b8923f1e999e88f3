//! The rotating **virtual disk** coordinate frame (§3.2.1).
//!
//! Staggered placement puts subobject `X_{i+1}` exactly `k` disks to the
//! right of `X_i`, so a display's disk set shifts right by `k` every time
//! interval. Changing to a coordinate frame that rotates along with the
//! data — *virtual disks* — makes an active display occupy a **fixed** set
//! of `M` virtual disks for its entire lifetime, reducing admission control
//! to a free-slot search.
//!
//! We define the virtual index of physical disk `p` at interval `t` as
//! `v = (p − k·t) mod D`, equivalently `physical(v, t) = (v + k·t) mod D`.
//! (The paper states the mapping as "virtual disk *i* at time interval *t*
//! is physical disk `(i − kt) mod D`"; the two conventions differ only in
//! which direction is called positive — under ours, the virtual disk that
//! reads the first fragment of subobject `X_i` during one interval reads
//! the first fragment of `X_{i+1}` in the next, exactly the property the
//! paper's algorithms rely on.)

use serde::{Deserialize, Serialize};

/// The rotating frame: `D` disks with stride `k` per interval.
///
/// ```
/// use ss_core::frame::VirtualFrame;
///
/// let f = VirtualFrame::new(8, 1);
/// // A virtual disk advances one physical disk per interval...
/// assert_eq!(f.physical(6, 0), 6);
/// assert_eq!(f.physical(6, 2), 0); // ...wrapping around the farm.
/// // The two maps are inverse at every instant.
/// assert_eq!(f.virtual_of(f.physical(3, 17), 17), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualFrame {
    disks: u32,
    stride: u32,
}

impl VirtualFrame {
    /// Creates a frame over `disks` drives rotating `stride` per interval.
    /// `stride` is reduced modulo `disks`; a reduced stride of 0 (i.e.
    /// `k = D`, the virtual-replication degenerate case) is allowed and
    /// makes the frame stationary.
    pub fn new(disks: u32, stride: u32) -> Self {
        assert!(disks > 0, "need at least one disk");
        VirtualFrame {
            disks,
            stride: stride % disks,
        }
    }

    /// Number of physical disks `D`.
    pub fn disks(&self) -> u32 {
        self.disks
    }

    /// The reduced stride `k mod D`.
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// The physical disk under virtual disk `v` at interval `t`:
    /// `(v + k·t) mod D`.
    pub fn physical(&self, v: u32, t: u64) -> u32 {
        debug_assert!(v < self.disks);
        let shift = (u64::from(self.stride) * t) % u64::from(self.disks);
        ((u64::from(v) + shift) % u64::from(self.disks)) as u32
    }

    /// The virtual index of physical disk `p` at interval `t`:
    /// `(p − k·t) mod D`.
    pub fn virtual_of(&self, p: u32, t: u64) -> u32 {
        debug_assert!(p < self.disks);
        let shift = (u64::from(self.stride) * t) % u64::from(self.disks);
        ((u64::from(p) + u64::from(self.disks) - shift) % u64::from(self.disks)) as u32
    }

    /// The rotation period `D / gcd(D, k)`: the number of intervals after
    /// which every virtual disk sits over the same physical disk again (1
    /// for a stationary frame). Visits of one virtual disk to one physical
    /// disk recur exactly this often.
    pub fn period(&self) -> u64 {
        let d = u64::from(self.disks);
        d / gcd(d, u64::from(self.stride))
    }

    /// The earliest interval `t' ≥ t` at which virtual disk `v` sits over
    /// physical disk `p`, or `None` if it never does (possible only when
    /// `gcd(D, k)` does not divide the needed displacement). With a
    /// stationary frame (`k mod D = 0`), returns `t` iff `v == p`.
    pub fn next_alignment(&self, v: u32, p: u32, t: u64) -> Option<u64> {
        let d = u64::from(self.disks);
        let k = u64::from(self.stride);
        let need = (u64::from(p) + d - u64::from(self.physical(v, t) % self.disks)) % d;
        if need == 0 {
            return Some(t);
        }
        if k == 0 {
            return None;
        }
        // Solve k·x ≡ need (mod D) for the smallest x ≥ 1.
        let g = gcd(k, d);
        if need % g != 0 {
            return None;
        }
        let (k1, d1, n1) = (k / g, d / g, need / g);
        // x ≡ n1 · k1⁻¹ (mod d1).
        let inv = mod_inverse(k1, d1).expect("k1 and d1 are coprime by construction");
        let x = (n1 % d1) * inv % d1;
        let x = if x == 0 { d1 } else { x };
        Some(t + x)
    }
}

/// Greatest common divisor (Euclid).
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Modular inverse of `a` modulo `m` (extended Euclid); `None` if
/// `gcd(a, m) != 1`. `m == 1` yields `Some(0)`.
fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    if m == 1 {
        return Some(0);
    }
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None;
    }
    let m = m as i128;
    Some(((old_s % m + m) % m) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_and_virtual_are_inverse() {
        let f = VirtualFrame::new(12, 5);
        for t in [0u64, 1, 7, 100, 12345] {
            for v in 0..12 {
                let p = f.physical(v, t);
                assert_eq!(f.virtual_of(p, t), v, "t={t} v={v}");
            }
        }
    }

    #[test]
    fn frame_advances_by_stride_each_interval() {
        let f = VirtualFrame::new(8, 1);
        // Figure 6 setting: D=8, k=1. The free slot over physical disk 6
        // at t=0 is over disk 7 at t=1 and disk 0 at t=2 — the paper's
        // "will not be in position to read fragment X0.0 until time 2".
        let v = f.virtual_of(6, 0);
        assert_eq!(f.physical(v, 1), 7);
        assert_eq!(f.physical(v, 2), 0);
    }

    #[test]
    fn stride_d_is_stationary() {
        // k = D implements virtual data replication: nothing moves.
        let f = VirtualFrame::new(10, 10);
        assert_eq!(f.stride(), 0);
        for t in 0..50 {
            assert_eq!(f.physical(3, t), 3);
        }
    }

    #[test]
    fn next_alignment_simple_stride() {
        let f = VirtualFrame::new(8, 1);
        let v = f.virtual_of(6, 0); // slot over disk 6 at t=0
        assert_eq!(f.next_alignment(v, 6, 0), Some(0));
        assert_eq!(f.next_alignment(v, 0, 0), Some(2));
        assert_eq!(f.next_alignment(v, 5, 0), Some(7));
        // And alignment repeats after a full cycle: from t=1 the next
        // visit to disk 0 is still t=2.
        assert_eq!(f.next_alignment(v, 0, 1), Some(2));
        assert_eq!(f.next_alignment(v, 0, 3), Some(2 + 8));
    }

    #[test]
    fn next_alignment_with_composite_stride() {
        // D=12, k=4: g = 4, a virtual disk only visits physical disks in
        // its residue class mod 4.
        let f = VirtualFrame::new(12, 4);
        assert_eq!(f.physical(0, 0), 0);
        assert_eq!(f.next_alignment(0, 4, 0), Some(1));
        assert_eq!(f.next_alignment(0, 8, 0), Some(2));
        assert_eq!(f.next_alignment(0, 0, 1), Some(3));
        // Unreachable: disk 1 is in a different residue class.
        assert_eq!(f.next_alignment(0, 1, 0), None);
    }

    #[test]
    fn next_alignment_stationary_frame() {
        let f = VirtualFrame::new(5, 0);
        assert_eq!(f.next_alignment(2, 2, 7), Some(7));
        assert_eq!(f.next_alignment(2, 3, 7), None);
    }

    #[test]
    fn next_alignment_agrees_with_brute_force() {
        for (d, k) in [(7u32, 3u32), (12, 5), (12, 4), (10, 2), (9, 6)] {
            let f = VirtualFrame::new(d, k);
            for v in 0..d {
                for p in 0..d {
                    for t0 in [0u64, 3] {
                        let brute =
                            (t0..t0 + 2 * u64::from(d) + 2).find(|&t| f.physical(v, t) == p);
                        assert_eq!(
                            f.next_alignment(v, p, t0),
                            brute,
                            "d={d} k={k} v={v} p={p} t0={t0}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn period_is_the_revisit_distance() {
        for (d, k, period) in [
            (8u32, 1u32, 8u64),
            (12, 4, 3),
            (12, 6, 2),
            (10, 10, 1),
            (7, 0, 1),
        ] {
            let f = VirtualFrame::new(d, k);
            assert_eq!(f.period(), period, "d={d} k={k}");
            for v in 0..d {
                let p = f.physical(v, 5);
                assert_eq!(f.next_alignment(v, p, 6), Some(5 + period), "d={d} k={k}");
            }
        }
    }

    #[test]
    fn gcd_and_inverse() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(mod_inverse(3, 7), Some(5));
        assert_eq!(mod_inverse(4, 8), None);
        assert_eq!(mod_inverse(1, 1), Some(0));
    }
}

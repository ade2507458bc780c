//! 3-D Morton (Z-order) codes.
//!
//! Warren and Salmon's hashed oct-tree work (cited by the paper, §8) observed
//! that sorting bodies by the Morton code of their coordinates and splitting
//! the sorted list into equal-cost segments yields partitions with good
//! spatial locality.  The workspace uses Morton codes for
//!
//! * the costzones partitioner (`bh::partition`, and the MPI comparator's
//!   domain splitters),
//! * ordering subspace leaves in the §6 scalable tree-building algorithm, and
//! * locality-preserving body orderings in the examples.
//!
//! Codes interleave 21 bits per dimension into a 63-bit key, which is enough
//! resolution for every workload in the repository.

use crate::vec3::Vec3;

/// Number of bits kept per dimension.
pub const BITS_PER_DIM: u32 = 21;

/// Spreads the low 21 bits of `v` so that they occupy every third bit.
#[inline]
fn spread(v: u64) -> u64 {
    let mut x = v & ((1 << BITS_PER_DIM) - 1);
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x001f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Interleaves three 21-bit integers into a Morton key.
#[inline]
pub fn encode_ints(x: u64, y: u64, z: u64) -> u64 {
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

/// Maps a position inside the cube centred at `center` with side `rsize`
/// to a Morton key.
///
/// Positions outside the cube are clamped to its boundary; this mirrors how
/// SPLASH-2 clamps coordinates when computing sub-indices.
#[inline]
pub fn encode(pos: Vec3, center: Vec3, rsize: f64) -> u64 {
    let scale = (1u64 << BITS_PER_DIM) as f64;
    let half = rsize / 2.0;
    let mut coords = [0u64; 3];
    for (i, c) in coords.iter_mut().enumerate() {
        let normalised = ((pos[i] - (center[i] - half)) / rsize).clamp(0.0, 1.0 - 1e-15);
        *c = (normalised * scale) as u64;
    }
    encode_ints(coords[0], coords[1], coords[2])
}

/// Extracts every third bit starting at bit 0.
#[inline]
fn compact(v: u64) -> u64 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    x = (x | (x >> 32)) & ((1 << BITS_PER_DIM) - 1);
    x
}

/// Inverse of [`encode_ints`]: recovers the three 21-bit integers.
#[inline]
pub fn decode_ints(code: u64) -> (u64, u64, u64) {
    (compact(code), compact(code >> 1), compact(code >> 2))
}

/// Sorts indices `0..items.len()` by the Morton key of the associated
/// positions.  Returns the permutation (does not move the items).
pub fn sort_indices_by_morton(positions: &[Vec3], center: Vec3, rsize: f64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> =
        positions.iter().enumerate().map(|(i, &p)| (encode(p, center, rsize), i)).collect();
    keyed.sort_unstable_by_key(|&(k, i)| (k, i));
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for &(x, y, z) in &[
            (0u64, 0, 0),
            (1, 2, 3),
            (100, 200, 300),
            (2_000_000, 1_000_000, 1_500_000),
            ((1 << 21) - 1, 0, (1 << 21) - 1),
        ] {
            let code = encode_ints(x, y, z);
            assert_eq!(decode_ints(code), (x, y, z), "roundtrip failed for ({x},{y},{z})");
        }
    }

    #[test]
    fn interleaving_order() {
        // x occupies bit 0, y bit 1, z bit 2.
        assert_eq!(encode_ints(1, 0, 0), 0b001);
        assert_eq!(encode_ints(0, 1, 0), 0b010);
        assert_eq!(encode_ints(0, 0, 1), 0b100);
        assert_eq!(encode_ints(1, 1, 1), 0b111);
        assert_eq!(encode_ints(2, 0, 0), 0b001_000);
    }

    #[test]
    fn spatial_monotonicity_along_axes() {
        // Along a single axis with the other coordinates fixed, Morton order
        // is monotone in that coordinate.
        let center = Vec3::ZERO;
        let rsize = 8.0;
        let mut last = 0;
        for i in 0..16 {
            let p = Vec3::new(-3.5 + i as f64 * 0.45, 0.0, 0.0);
            let code = encode(p, center, rsize);
            assert!(code >= last, "codes must be non-decreasing along +x");
            last = code;
        }
    }

    #[test]
    fn clamping_out_of_box() {
        let center = Vec3::ZERO;
        let rsize = 2.0;
        let corner_max = encode(Vec3::splat(1.0), center, rsize);
        let outside = encode(Vec3::splat(50.0), center, rsize);
        assert_eq!(corner_max, outside);
        let corner_min = encode(Vec3::splat(-1.0), center, rsize);
        let outside_min = encode(Vec3::splat(-50.0), center, rsize);
        assert_eq!(corner_min, outside_min);
        assert!(outside > outside_min);
    }

    #[test]
    fn sort_indices_is_a_permutation() {
        let pts: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new((i * 37 % 13) as f64, (i * 17 % 7) as f64, (i % 5) as f64))
            .collect();
        let order = sort_indices_by_morton(&pts, Vec3::splat(6.0), 16.0);
        let mut seen = vec![false; pts.len()];
        for &i in &order {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn nearby_points_have_nearby_codes() {
        // Coarse locality check: points in the same small sub-cube compare
        // closer to each other than to a point in the opposite corner.
        let center = Vec3::ZERO;
        let rsize = 16.0;
        let a = encode(Vec3::new(-7.0, -7.0, -7.0), center, rsize);
        let b = encode(Vec3::new(-6.9, -6.9, -6.9), center, rsize);
        let c = encode(Vec3::new(7.0, 7.0, 7.0), center, rsize);
        assert!(c > a);
        assert!((b as i128 - a as i128).abs() < (c as i128 - a as i128).abs());
    }
}

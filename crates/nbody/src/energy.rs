//! Energy and virial diagnostics.
//!
//! These diagnostics are not part of the paper's evaluation, but they are the
//! standard way to verify that an N-body solver is computing sensible physics,
//! and the workspace's integration tests and examples rely on them.

use crate::body::Body;
use crate::vec3::Vec3;
use crate::G;

/// Total kinetic energy `Σ ½ m v²`.
pub fn kinetic_energy(bodies: &[Body]) -> f64 {
    bodies.iter().map(|b| b.kinetic_energy()).sum()
}

/// Total (softened) potential energy `−Σ_{i<j} G m_i m_j / sqrt(r² + ε²)`.
///
/// The exact O(n²) pair sum: the reference that tests compare estimates
/// against (`scenarios::estimate_potential` is the O(n log n) one).
pub fn potential_energy(bodies: &[Body], eps: f64) -> f64 {
    let mut w = 0.0;
    for i in 0..bodies.len() {
        for j in (i + 1)..bodies.len() {
            let d2 = bodies[i].pos.dist_sq(bodies[j].pos) + eps * eps;
            w -= G * bodies[i].mass * bodies[j].mass / d2.sqrt();
        }
    }
    w
}

/// Total energy (kinetic + potential).
pub fn total_energy(bodies: &[Body], eps: f64) -> f64 {
    kinetic_energy(bodies) + potential_energy(bodies, eps)
}

/// Virial ratio `2T / |W|`; ~1 for a system in virial equilibrium.
pub fn virial_ratio(bodies: &[Body], eps: f64) -> f64 {
    let t = kinetic_energy(bodies);
    let w = potential_energy(bodies, eps);
    if w == 0.0 {
        return f64::INFINITY;
    }
    2.0 * t / w.abs()
}

/// Net momentum of the system.
pub fn total_momentum(bodies: &[Body]) -> Vec3 {
    bodies.iter().map(|b| b.momentum()).sum()
}

/// Net angular momentum of the system about the origin.
pub fn total_angular_momentum(bodies: &[Body]) -> Vec3 {
    bodies
        .iter()
        .map(|b| {
            let p = b.momentum();
            Vec3::new(
                b.pos.y * p.z - b.pos.z * p.y,
                b.pos.z * p.x - b.pos.x * p.z,
                b.pos.x * p.y - b.pos.y * p.x,
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinetic_energy_simple() {
        let bodies = vec![Body::new(0, Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), 1.5)];
        assert_eq!(kinetic_energy(&bodies), 3.0);
    }

    #[test]
    fn potential_energy_pair() {
        let bodies = vec![
            Body::at_rest(0, Vec3::ZERO, 2.0),
            Body::at_rest(1, Vec3::new(4.0, 0.0, 0.0), 3.0),
        ];
        assert!((potential_energy(&bodies, 0.0) + 1.5).abs() < 1e-12);
        // Softening reduces |W|.
        assert!(potential_energy(&bodies, 1.0) > potential_energy(&bodies, 0.0));
    }

    #[test]
    fn total_energy_sums() {
        let bodies = vec![
            Body::new(0, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1.0),
            Body::at_rest(1, Vec3::new(1.0, 0.0, 0.0), 1.0),
        ];
        let e = total_energy(&bodies, 0.0);
        assert!((e - (0.5 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn momentum_and_angular_momentum() {
        let bodies = vec![
            Body::new(0, Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 2.0),
            Body::new(1, Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -1.0, 0.0), 2.0),
        ];
        assert_eq!(total_momentum(&bodies), Vec3::ZERO);
        // Both bodies orbit the same way: Lz = 2 * (1 * 2 * 1) = 4
        assert_eq!(total_angular_momentum(&bodies), Vec3::new(0.0, 0.0, 4.0));
    }

    #[test]
    fn virial_ratio_of_circular_orbit() {
        // For a circular two-body orbit, 2T/|W| = 1 exactly.
        let m = 0.5;
        let r = 1.0;
        let v = (G * m / (4.0 * r)).sqrt();
        let bodies = vec![
            Body::new(0, Vec3::new(-r, 0.0, 0.0), Vec3::new(0.0, -v, 0.0), m),
            Body::new(1, Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, v, 0.0), m),
        ];
        assert!((virial_ratio(&bodies, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn virial_ratio_degenerate() {
        let bodies = vec![Body::new(0, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1.0)];
        assert!(virial_ratio(&bodies, 0.0).is_infinite());
    }
}

//! Force-computation tree walk with the `l/d < θ` multipole acceptance
//! criterion (Fig. 2 of the paper) and Plummer softening.

use crate::tree::{Octree, NO_CHILD};
use nbody::body::Body;
use nbody::direct::pairwise_acceleration;
use nbody::vec3::Vec3;

/// Result of walking the tree for a single target body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkResult {
    /// Acceleration on the target.
    pub acc: Vec3,
    /// Gravitational potential at the target.
    pub phi: f64,
    /// Number of interactions evaluated (cells accepted + bodies in opened
    /// leaves); this is the per-body *cost* that drives load balancing.
    pub interactions: u32,
    /// Number of tree nodes visited (opened or accepted).
    pub nodes_visited: u32,
    /// Number of multipole-acceptance tests evaluated (one per visited
    /// non-empty internal cell).
    pub macs: u32,
}

/// Decides whether the cell (side `l`, centre of mass at distance `d` from
/// the target) may be used as a single point mass: the paper's `l/d < θ`
/// test.
#[inline]
pub fn cell_is_far(l: f64, dist_sq: f64, theta: f64) -> bool {
    // l/d < theta  <=>  l^2 < theta^2 d^2  (all quantities non-negative)
    l * l < theta * theta * dist_sq
}

/// Computes the acceleration exerted on `target` by the bodies in `tree`.
///
/// `exclude_id` skips a body id (the target itself) when a leaf is expanded
/// body-by-body.  `bodies` must be the same slice the tree was built over.
pub fn accel_on(
    tree: &Octree,
    bodies: &[Body],
    target: Vec3,
    exclude_id: Option<u32>,
    theta: f64,
    eps: f64,
) -> WalkResult {
    walk_from_root(tree, bodies, target, &|_, b: &Body| Some(b.id) == exclude_id, theta, eps)
}

/// [`accel_on`] for the body at `bodies[index]`, left out of its own walk
/// by that index: ids need not be distinct, or set at all.
pub fn accel_on_body(
    tree: &Octree,
    bodies: &[Body],
    index: usize,
    theta: f64,
    eps: f64,
) -> WalkResult {
    walk_from_root(tree, bodies, bodies[index].pos, &|bi, _: &Body| bi == index, theta, eps)
}

fn walk_from_root(
    tree: &Octree,
    bodies: &[Body],
    target: Vec3,
    skip: &impl Fn(usize, &Body) -> bool,
    theta: f64,
    eps: f64,
) -> WalkResult {
    let mut result =
        WalkResult { acc: Vec3::ZERO, phi: 0.0, interactions: 0, nodes_visited: 0, macs: 0 };
    if tree.is_empty() {
        return result;
    }
    walk_node(tree, bodies, 0, target, skip, theta, eps, &mut result);
    result
}

#[allow(clippy::too_many_arguments)]
fn walk_node(
    tree: &Octree,
    bodies: &[Body],
    node: usize,
    target: Vec3,
    skip: &impl Fn(usize, &Body) -> bool,
    theta: f64,
    eps: f64,
    result: &mut WalkResult,
) {
    let n = &tree.nodes[node];
    result.nodes_visited += 1;
    if n.nbodies == 0 {
        return;
    }

    let dist_sq = target.dist_sq(n.cofm);
    if n.is_leaf {
        // Interact with each body in the leaf individually (SPLASH-2 leaves
        // hold a single body; buckets are handled the same way).
        for &bi in &n.bodies {
            let b = &bodies[bi];
            if skip(bi, b) {
                continue;
            }
            let (a, p) = pairwise_acceleration(target, b.pos, b.mass, eps);
            result.acc += a;
            result.phi += p;
            result.interactions += 1;
        }
        return;
    }

    result.macs += 1;
    if cell_is_far(n.side(), dist_sq, theta) {
        // Far enough: use the cell's centre of mass.
        let (a, p) = pairwise_acceleration(target, n.cofm, n.mass, eps);
        result.acc += a;
        result.phi += p;
        result.interactions += 1;
        return;
    }

    // Open the cell.
    for octant in 0..8 {
        let child = n.children[octant];
        if child != NO_CHILD {
            walk_node(tree, bodies, child as usize, target, skip, theta, eps, result);
        }
    }
}

/// Computes forces on every body with a Barnes-Hut walk, returning updated
/// copies (acc/phi/cost filled in).  Sequential reference used by tests,
/// examples and the single-rank paths of the distributed solvers.
pub fn compute_forces(bodies: &[Body], theta: f64, eps: f64) -> Vec<Body> {
    let mut tree = Octree::build(bodies, crate::tree::TreeParams::default());
    tree.compute_mass(bodies);
    let mut out = bodies.to_vec();
    for b in &mut out {
        let r = accel_on(&tree, bodies, b.pos, Some(b.id), theta, eps);
        b.acc = r.acc;
        b.phi = r.phi;
        b.cost = r.interactions.max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;
    use nbody::direct;
    use nbody::plummer::{generate, PlummerConfig};
    use nbody::{DEFAULT_EPS, DEFAULT_THETA};

    fn relative_error(a: Vec3, b: Vec3) -> f64 {
        (a - b).norm() / b.norm().max(1e-12)
    }

    #[test]
    fn mac_test_matches_definition() {
        assert!(cell_is_far(1.0, 4.01, 1.0)); // l/d just under theta
        assert!(!cell_is_far(2.0, 4.0, 1.0)); // l/d = 1.0, not strictly less
        assert!(cell_is_far(1.0, 100.0, 0.3));
        assert!(!cell_is_far(5.0, 100.0, 0.3));
    }

    #[test]
    fn theta_zero_matches_direct_summation() {
        let bodies = generate(&PlummerConfig::new(200, 5));
        let tree_forces = compute_forces(&bodies, 0.0, DEFAULT_EPS);
        let direct_forces = direct::compute_forces(&bodies, DEFAULT_EPS);
        for (t, d) in tree_forces.iter().zip(&direct_forces) {
            assert!(
                relative_error(t.acc, d.acc) < 1e-9,
                "theta=0 walk must equal direct summation"
            );
        }
    }

    #[test]
    fn default_theta_is_accurate_enough() {
        let bodies = generate(&PlummerConfig::new(500, 6));
        let tree_forces = compute_forces(&bodies, DEFAULT_THETA, DEFAULT_EPS);
        let direct_forces = direct::compute_forces(&bodies, DEFAULT_EPS);
        let mean_err: f64 = tree_forces
            .iter()
            .zip(&direct_forces)
            .map(|(t, d)| relative_error(t.acc, d.acc))
            .sum::<f64>()
            / bodies.len() as f64;
        // theta = 1.0 (monopole only) typically gives ~1% mean error on a
        // Plummer sphere.
        assert!(mean_err < 0.05, "mean relative force error {mean_err} too large for theta=1");
    }

    #[test]
    fn smaller_theta_is_more_accurate_and_more_expensive() {
        let bodies = generate(&PlummerConfig::new(400, 7));
        let direct_forces = direct::compute_forces(&bodies, DEFAULT_EPS);
        let coarse = compute_forces(&bodies, 1.2, DEFAULT_EPS);
        let fine = compute_forces(&bodies, 0.4, DEFAULT_EPS);
        let err = |set: &Vec<Body>| {
            set.iter().zip(&direct_forces).map(|(t, d)| relative_error(t.acc, d.acc)).sum::<f64>()
                / set.len() as f64
        };
        assert!(err(&fine) < err(&coarse));
        let cost = |set: &Vec<Body>| set.iter().map(|b| b.cost as u64).sum::<u64>();
        assert!(cost(&fine) > cost(&coarse));
    }

    #[test]
    fn interaction_count_is_sub_quadratic() {
        let bodies = generate(&PlummerConfig::new(2000, 8));
        let out = compute_forces(&bodies, DEFAULT_THETA, DEFAULT_EPS);
        let total: u64 = out.iter().map(|b| b.cost as u64).sum();
        let n = bodies.len() as u64;
        assert!(total < n * (n - 1) / 4, "tree code should do far fewer than n^2 interactions");
        assert!(total > n, "every body interacts with something");
    }

    #[test]
    fn empty_and_single_body_walks() {
        let empty = Octree::build(&[], TreeParams::default());
        let r = accel_on(&empty, &[], Vec3::ZERO, None, 1.0, 0.05);
        assert_eq!(r.acc, Vec3::ZERO);

        let bodies = vec![Body::at_rest(0, Vec3::new(1.0, 0.0, 0.0), 1.0)];
        let mut tree = Octree::build(&bodies, TreeParams::default());
        tree.compute_mass(&bodies);
        // The body exerts no force on itself.
        let r = accel_on(&tree, &bodies, bodies[0].pos, Some(0), 1.0, 0.05);
        assert_eq!(r.acc, Vec3::ZERO);
        // But it attracts a test position at the origin.
        let r = accel_on(&tree, &bodies, Vec3::ZERO, None, 1.0, 0.0);
        assert!(r.acc.x > 0.0);
    }

    #[test]
    fn momentum_is_approximately_conserved() {
        // Sum of m*a over all bodies should be ~0 (Newton's third law holds
        // approximately for the tree approximation).
        let bodies = generate(&PlummerConfig::new(300, 9));
        let out = compute_forces(&bodies, DEFAULT_THETA, DEFAULT_EPS);
        let net: Vec3 = out.iter().map(|b| b.acc * b.mass).sum();
        let scale: f64 = out.iter().map(|b| (b.acc * b.mass).norm()).sum();
        assert!(net.norm() / scale < 0.05, "net force {net:?} should be small relative to {scale}");
    }
}

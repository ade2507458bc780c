//! Property-based tests for the octree substrate.

use nbody::body::Body;
use nbody::vec3::Vec3;
use octree::tree::{Octree, TreeParams};
use octree::walk::accel_on;
use proptest::prelude::*;

fn arb_bodies(max: usize) -> impl Strategy<Value = Vec<Body>> {
    prop::collection::vec(
        ((-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0), 0.01f64..5.0, 1u32..100),
        1..max,
    )
    .prop_map(|list| {
        list.into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), mass, cost))| {
                let mut b = Body::at_rest(i as u32, Vec3::new(x, y, z), mass);
                b.cost = cost;
                b
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_invariants_hold_for_arbitrary_bodies(bodies in arb_bodies(120)) {
        let mut tree = Octree::build(&bodies, TreeParams::default());
        tree.compute_mass(&bodies);
        prop_assert!(tree.check_invariants(&bodies).is_ok());
        prop_assert_eq!(tree.nbodies(), bodies.len());
    }

    #[test]
    fn tree_mass_is_conserved(bodies in arb_bodies(100)) {
        let mut tree = Octree::build(&bodies, TreeParams::default());
        tree.compute_mass(&bodies);
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        prop_assert!((tree.nodes[0].mass - total).abs() < 1e-9 * total.max(1.0));
        let total_cost: u64 = bodies.iter().map(|b| b.cost.max(1) as u64).sum();
        prop_assert_eq!(tree.nodes[0].cost, total_cost);
    }

    #[test]
    fn depth_first_order_is_a_permutation(bodies in arb_bodies(100)) {
        let tree = Octree::build(&bodies, TreeParams::default());
        let mut order = tree.bodies_depth_first();
        order.sort_unstable();
        prop_assert_eq!(order, (0..bodies.len()).collect::<Vec<_>>());
    }

    #[test]
    fn leaf_capacity_is_respected(bodies in arb_bodies(150), capacity in 1usize..8) {
        let params = TreeParams { leaf_capacity: capacity, max_depth: 64 };
        let tree = Octree::build(&bodies, params);
        for node in &tree.nodes {
            if node.is_leaf && node.depth < 64 {
                prop_assert!(node.bodies.len() <= capacity);
            }
        }
    }

    #[test]
    fn walk_with_zero_theta_is_exact(bodies in arb_bodies(40)) {
        let mut tree = Octree::build(&bodies, TreeParams::default());
        tree.compute_mass(&bodies);
        for b in &bodies {
            let walk = accel_on(&tree, &bodies, b.pos, Some(b.id), 0.0, 0.05);
            let exact = nbody::direct::acceleration_at(&bodies, b.pos, Some(b.id), 0.05);
            prop_assert!((walk.acc - exact).norm() <= 1e-9 * exact.norm().max(1e-9));
        }
    }
}

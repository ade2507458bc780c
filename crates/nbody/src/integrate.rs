//! Leapfrog (kick-drift-kick) time integration.
//!
//! SPLASH-2's `advance()` phase — the "Body-adv." row of every table in the
//! paper — is a leapfrog step: velocities are advanced half a step, positions
//! a full step, and then velocities the remaining half step once new
//! accelerations are available.  The helpers here are used by the examples
//! and the accuracy tests; no backend calls them (each backend's advance
//! phase applies `vel += acc·dt; pos += vel·dt` to its owned bodies inline).

use crate::body::Body;

/// Advances velocity by half a step and position by a full step
/// (the "kick-drift" part of kick-drift-kick), using the acceleration already
/// stored in the body.
#[inline]
pub fn kick_drift(body: &mut Body, dt: f64) {
    body.vel += body.acc * (dt * 0.5);
    body.pos += body.vel * dt;
}

/// Completes the step: advances velocity by the remaining half step using the
/// freshly computed acceleration.
#[inline]
pub fn kick(body: &mut Body, dt: f64) {
    body.vel += body.acc * (dt * 0.5);
}

/// First step bootstrap used by SPLASH-2: on the very first time step the
/// half-kick uses the initial accelerations directly (equivalent to starting
/// the leapfrog with a synchronized state).
#[inline]
pub fn bootstrap(body: &mut Body, dt: f64) {
    // Identical to kick(); kept as a distinct name so call sites read like the
    // SPLASH-2 startup logic they mirror.
    kick(body, dt);
}

/// Advances a whole system one step given a force evaluation function.
///
/// `forces` receives the bodies (with up-to-date positions) and must return
/// the same bodies with `acc`/`phi`/`cost` filled in.  This is the sequential
/// reference integrator used by tests and examples; the distributed solver has
/// its own phase pipeline.
pub fn step<F>(bodies: &mut Vec<Body>, dt: f64, mut forces: F)
where
    F: FnMut(&[Body]) -> Vec<Body>,
{
    for b in bodies.iter_mut() {
        kick_drift(b, dt);
    }
    let with_forces = forces(bodies);
    debug_assert_eq!(with_forces.len(), bodies.len());
    *bodies = with_forces;
    for b in bodies.iter_mut() {
        kick(b, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use crate::energy;
    use crate::vec3::Vec3;

    #[test]
    fn free_particle_moves_linearly() {
        let mut b = Body::new(0, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1.0);
        for _ in 0..10 {
            kick_drift(&mut b, 0.1);
            kick(&mut b, 0.1);
        }
        assert!((b.pos.x - 1.0).abs() < 1e-12);
        assert!((b.vel.x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_acceleration_quadratic_in_time() {
        // A particle under constant acceleration a=1 for t=1 (10 steps of 0.1)
        // should land at x = 0.5 * t^2 with the leapfrog being exact for
        // constant acceleration.
        let mut b = Body::at_rest(0, Vec3::ZERO, 1.0);
        b.acc = Vec3::new(1.0, 0.0, 0.0);
        for _ in 0..10 {
            kick_drift(&mut b, 0.1);
            // acceleration stays constant
            kick(&mut b, 0.1);
        }
        assert!((b.pos.x - 0.5).abs() < 1e-12);
        assert!((b.vel.x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_body_energy_conservation() {
        // Circular-ish two-body orbit integrated with small steps conserves
        // energy to a tight tolerance over many steps.
        let m = 0.5;
        let r = 1.0;
        // circular speed for two equal masses separated by 2r about the COM:
        // v^2 = G * m_other * r / (2r)^2... derive simply: a = G m /(2r)^2 = v^2/r
        let v = (crate::G * m / (4.0 * r)).sqrt();
        let mut bodies = vec![
            Body::new(0, Vec3::new(-r, 0.0, 0.0), Vec3::new(0.0, -v, 0.0), m),
            Body::new(1, Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, v, 0.0), m),
        ];
        let eps = 0.0;
        bodies = direct::compute_forces(&bodies, eps);
        let e0 = energy::total_energy(&bodies, eps);
        for _ in 0..200 {
            step(&mut bodies, 0.01, |bs| direct::compute_forces(bs, eps));
        }
        let e1 = energy::total_energy(&bodies, eps);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 1e-3, "energy drift {drift} too large");
    }

    #[test]
    fn step_applies_forces_once() {
        let mut bodies = vec![Body::new(0, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1.0)];
        let mut calls = 0;
        step(&mut bodies, 0.1, |bs| {
            calls += 1;
            bs.to_vec()
        });
        assert_eq!(calls, 1);
        assert!((bodies[0].pos.x - 0.1).abs() < 1e-12);
    }
}

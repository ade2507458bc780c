//! Workload scales: the paper's sizes and the scaled-down defaults.

use serde::{Deserialize, Serialize};

/// Workload scale used by the experiment harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Bodies for the strong-scaling experiments (paper: 2,097,152).
    pub bodies: usize,
    /// Bodies per thread for the weak-scaling experiments (paper: 250,000).
    pub weak_bodies_per_thread: usize,
    /// Thread counts for the strong-scaling tables (paper: 1–112 nodes).
    pub strong_threads: Vec<usize>,
    /// Thread counts for the weak-scaling figures (paper: 16 threads/node on
    /// up to 64 nodes, i.e. up to 1024 threads).
    pub weak_threads: Vec<usize>,
    /// Threads per node used in the weak-scaling figures (paper: 16).
    pub threads_per_node: usize,
    /// Time steps to run and to measure (paper: 4 run, last 2 measured).
    pub steps: usize,
    /// See [`Scale::steps`].
    pub measured_steps: usize,
    /// RNG seed for the Plummer model.
    pub seed: u64,
}

impl Scale {
    /// The default scaled-down workload: finishes the full `--all` sweep in
    /// tens of minutes on a laptop-class host while preserving the shape of
    /// every experiment.
    pub fn default_scale() -> Scale {
        Scale {
            bodies: 8_192,
            weak_bodies_per_thread: 512,
            strong_threads: vec![1, 2, 4, 8, 16, 32, 64, 96, 112],
            weak_threads: vec![16, 32, 64, 128, 256],
            threads_per_node: 16,
            steps: 4,
            measured_steps: 2,
            seed: 1_234_567,
        }
    }

    /// A very small scale used by smoke tests of the harness itself.
    pub fn smoke() -> Scale {
        Scale {
            bodies: 512,
            weak_bodies_per_thread: 64,
            strong_threads: vec![1, 2, 4],
            weak_threads: vec![2, 4],
            threads_per_node: 2,
            steps: 2,
            measured_steps: 1,
            seed: 7,
        }
    }

    /// The paper's actual workload sizes.  Running this on the emulator is
    /// possible but very slow; it is provided so the mapping to the paper is
    /// explicit.
    pub fn paper() -> Scale {
        Scale {
            bodies: 2 * 1024 * 1024,
            weak_bodies_per_thread: 250_000,
            strong_threads: vec![1, 2, 4, 8, 16, 32, 64, 96, 112],
            weak_threads: vec![16, 128, 256, 512, 1024],
            threads_per_node: 16,
            steps: 4,
            measured_steps: 2,
            seed: 1_234_567,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_smaller_than_paper() {
        let d = Scale::default_scale();
        let p = Scale::paper();
        assert!(d.bodies < p.bodies);
        assert!(d.weak_bodies_per_thread < p.weak_bodies_per_thread);
        assert_eq!(d.strong_threads, p.strong_threads);
        assert_eq!(d.steps, 4);
        assert_eq!(d.measured_steps, 2);
    }

    #[test]
    fn smoke_scale_is_tiny() {
        let s = Scale::smoke();
        assert!(s.bodies <= 1024);
        assert!(s.strong_threads.iter().all(|&t| t <= 8));
    }
}

//! What the benchmark needs from the host: CPU confinement, a process's
//! peak memory, and the provenance printed with every result.
//!
//! Host-clock numbers are taken with the program under test confined to one
//! CPU and the driver (and load generator) on another.  With two emulated
//! ranks on `std::sync::Barrier`, an unconfined run's wall time depends on
//! whether the scheduler happens to spread or stack the rank threads, and
//! that choice is sticky per process: confined runs have the same median
//! and a fifth of the spread.

use std::io;
use std::path::Path;
use std::process::{Child, Command};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// CPUs the calling thread may run on; empty when the platform cannot say.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut set: sys::CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
        if rc == 0 {
            return (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect();
        }
    }
    Vec::new()
}

/// Restricts the calling thread (and every process it spawns from now on)
/// to `cpus`.  Returns whether the kernel accepted it.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut set: sys::CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            set[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0 names
        // the calling thread.
        return unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&set), &set) } == 0;
    }
    #[allow(unreachable_code)]
    {
        let _ = cpus;
        false
    }
}

/// Peak resident set of a live process in megabytes: `VmHWM` from
/// `/proc/<pid>/status`.  (A waited-for child's `ru_maxrss` is no use here:
/// it is at least the spawning process's own peak, because the child shares
/// the parent's address space until it execs.)
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}

/// Which CPU the program under test runs on and which the driver keeps.
#[derive(Debug, Clone)]
pub struct CpuPlan {
    /// CPUs the benchmark process was allowed at start.
    pub allowed: Vec<usize>,
    /// The CPU every spawned program is confined to.
    pub program: Vec<usize>,
    /// Where the driver and its load-generator threads run.
    pub driver: Vec<usize>,
}

impl CpuPlan {
    /// First allowed CPU for the program, the rest for the driver; with a
    /// single CPU (or on a platform without affinity) nothing is confined.
    pub fn detect() -> CpuPlan {
        let allowed = allowed_cpus();
        match allowed.as_slice() {
            [first, rest @ ..] if !rest.is_empty() => {
                CpuPlan { program: vec![*first], driver: rest.to_vec(), allowed }
            }
            _ => CpuPlan { program: allowed.clone(), driver: allowed.clone(), allowed },
        }
    }

    pub fn confined(&self) -> bool {
        self.program.len() == 1 && self.allowed.len() > 1
    }

    /// Moves the calling thread onto the driver's CPUs.
    pub fn enter_driver(&self) {
        if self.confined() {
            pin_current_thread(&self.driver);
        }
    }

    /// Spawns `command` confined to the program CPU.  A child inherits the
    /// spawning thread's mask, so the thread steps onto the program CPU for
    /// the spawn and back afterwards — no `pre_exec` hook needed.
    pub fn spawn_program(&self, command: &mut Command) -> io::Result<Child> {
        if !self.confined() {
            return command.spawn();
        }
        pin_current_thread(&self.program);
        let child = command.spawn();
        pin_current_thread(&self.driver);
        child
    }

    pub fn describe(&self) -> String {
        if self.confined() {
            format!("program on cpu {:?}, driver on cpu {:?}", self.program, self.driver)
        } else {
            format!("unconfined (allowed cpus {:?})", self.allowed)
        }
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`
/// (longest mount-point prefix wins).
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".to_string() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The facts printed with every result so a number can be traced to the
/// code and machine that produced it.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD`, with `-dirty` appended when the tree has
    /// uncommitted changes; `none` outside a git checkout.
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpus: String,
    pub store_fs: String,
}

impl Provenance {
    /// `run.sh` looks up the commit and the compiler and hands them over in
    /// the environment: this process spawns only the programs under test,
    /// so that the children's peak resident set is theirs alone.
    pub fn collect(plan: &CpuPlan, store_dir: &Path) -> Provenance {
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Provenance {
            commit: env("BHMARK_COMMIT"),
            rustc: env("BHMARK_RUSTC"),
            nproc: plan.allowed.len().max(1),
            cpus: plan.describe(),
            store_fs: filesystem_type(store_dir),
        }
    }

    pub fn print(&self, seed: u64, seconds: f64) {
        println!(
            "# commit {} | {} | nproc {} | {} | store fs {} | seed {seed} | window {seconds} s",
            self.commit, self.rustc, self.nproc, self.cpus, self.store_fs
        );
    }
}

/// A spawned `bhserve`, killed and reaped on every exit path.
pub struct Daemon {
    child: Child,
    pub addr: std::net::SocketAddr,
}

impl Daemon {
    /// Spawns `bhserve --listen 127.0.0.1:0` on the program CPU and waits
    /// for the line announcing its port.
    pub fn spawn(plan: &CpuPlan, bhserve: &Path) -> io::Result<Daemon> {
        use std::io::BufRead;
        let mut command = Command::new(bhserve);
        command
            .args(["--listen", "127.0.0.1:0"])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null());
        let mut child = plan.spawn_program(&mut command)?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = io::BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim().strip_prefix("bhserve: listening on ")?.parse::<std::net::SocketAddr>().ok()
        });
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("bhserve did not announce its port: {line:?}")))
            }
        }
    }

    /// Peak resident set of the live daemon in megabytes.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Errors are ignored: the child may already be gone, and Drop must
        // not panic.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_plan_keeps_program_and_driver_apart_when_it_confines() {
        let plan = CpuPlan::detect();
        if plan.confined() {
            assert_eq!(plan.program.len(), 1);
            assert!(!plan.driver.contains(&plan.program[0]));
            assert!(plan.describe().contains("program on cpu"));
        } else {
            assert!(plan.describe().starts_with("unconfined"));
        }
    }

    #[test]
    fn a_confined_child_inherits_the_program_cpu_and_the_driver_moves_back() {
        // Run on a thread so the test harness's own thread keeps its mask.
        std::thread::spawn(|| {
            let plan = CpuPlan::detect();
            if !plan.confined() {
                return;
            }
            plan.enter_driver();
            let mut command = Command::new("sh");
            command
                .args(["-c", "grep Cpus_allowed_list /proc/self/status"])
                .stdout(std::process::Stdio::piped());
            let child = plan.spawn_program(&mut command).unwrap();
            let out = child.wait_with_output().unwrap();
            let text = String::from_utf8_lossy(&out.stdout);
            let list = text.split(':').nth(1).unwrap().trim();
            assert_eq!(list, plan.program[0].to_string());
            assert_eq!(allowed_cpus(), plan.driver);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_filesystem_of_the_working_directory_is_known_on_linux() {
        let kind = filesystem_type(Path::new("."));
        if cfg!(target_os = "linux") {
            assert_ne!(kind, "unknown");
        }
    }
}

//! End-to-end runs in processes of their own: a run's peak memory is then
//! its own, as it is for a user running `repro_all`, and no run starts on
//! a heap that earlier runs left behind.

use crate::util::RunTime;
use std::process::{Command, Stdio};

/// The argument that makes the program do one run as a child.
pub const FLAG: &str = "--child";

/// What one run of a cell or of the suite measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Host time.
    pub time: RunTime,
    /// Peak resident memory of the process that ran it, MiB.
    pub peak_rss_mib: f64,
    /// Simulated accesses (0 for the suite, which returns no report).
    pub accesses: u64,
    /// FNV-1a 64 of the simulated output.
    pub digest: u64,
    /// `(completed, attempted)` cells or experiments.
    pub completed: (usize, usize),
    /// What failed, one message per failed cell or experiment.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Child side: prints the failures, then the result line.
    pub fn print(&self) {
        for f in &self.failures {
            println!("FAILED {f}");
        }
        println!("{}", self.result_line());
    }

    fn result_line(&self) -> String {
        format!(
            "result {} {} {} {} {:x} {} {}",
            self.time.cpu_s,
            self.time.wall_s,
            self.peak_rss_mib,
            self.accesses,
            self.digest,
            self.completed.0,
            self.completed.1
        )
    }

    /// Parent side: runs this program with `--child args` and reads the
    /// result. The child's other output (the suite's tables) is dropped.
    pub fn spawn(args: &[&str]) -> Result<RunResult, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
        let out = Command::new(exe)
            .arg(FLAG)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run a child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("child {args:?} failed: {}", out.status));
        }
        let failures: Vec<String> =
            stdout.lines().filter_map(|l| l.strip_prefix("FAILED ")).map(String::from).collect();
        let last = stdout.lines().last().unwrap_or("");
        Self::parse(last, failures).ok_or_else(|| format!("child {args:?} printed {last:?}"))
    }

    fn parse(line: &str, failures: Vec<String>) -> Option<RunResult> {
        let f: Vec<&str> = line.strip_prefix("result ")?.split(' ').collect();
        let [cpu_s, wall_s, peak, accesses, digest, ok, n] = f.as_slice() else { return None };
        Some(RunResult {
            time: RunTime { cpu_s: cpu_s.parse().ok()?, wall_s: wall_s.parse().ok()? },
            peak_rss_mib: peak.parse().ok()?,
            accesses: accesses.parse().ok()?,
            digest: u64::from_str_radix(digest, 16).ok()?,
            completed: (ok.parse().ok()?, n.parse().ok()?),
            failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let run = RunResult {
            time: RunTime { cpu_s: 1.25, wall_s: 1.5 },
            peak_rss_mib: 37.75,
            accesses: 11_254_137,
            digest: 0x764a_ae64_8e71_0270,
            completed: (4, 4),
            failures: vec!["x: y".to_string()],
        };
        let back = RunResult::parse(&run.result_line(), run.failures.clone()).unwrap();
        assert_eq!(back.result_line(), run.result_line());
        assert_eq!(back.failures, run.failures);
        assert!(RunResult::parse("result 1 2", Vec::new()).is_none());
    }
}

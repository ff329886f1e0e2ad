//! What the benchmark reads from `/proc` and the environment: resident
//! set high-water marks, per-process I/O and CPU, the data directory's
//! filesystem, and the toolchain that built the run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn proc_path(pid: Option<u32>, file: &str) -> PathBuf {
    match pid {
        Some(pid) => PathBuf::from(format!("/proc/{pid}/{file}")),
        None => PathBuf::from(format!("/proc/self/{file}")),
    }
}

/// Value of a `Key:   123 kB`-style line.
fn field_kb(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB of `pid` (`None` = this
/// process). `None` once the process has exited.
pub fn vm_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let text = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    field_kb(&text, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Bytes the process caused to be written to the storage layer
/// (`write_bytes` of `/proc/<pid>/io`).
pub fn io_write_bytes(pid: Option<u32>) -> Option<u64> {
    let text = std::fs::read_to_string(proc_path(pid, "io")).ok()?;
    field_kb(&text, "write_bytes")
}

/// User + system CPU time of the process in milliseconds, assuming the
/// kernel's usual 100 Hz `USER_HZ`.
pub fn cpu_ms(pid: Option<u32>) -> Option<f64> {
    let text = std::fs::read_to_string(proc_path(pid, "stat")).ok()?;
    // fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so 12th and 13th after it
    let after = &text[text.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mounts` (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and with what a run was made; recorded in every raw output.
pub struct Environment {
    pub nproc: usize,
    pub fs_type: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Environment {
    pub fn detect() -> Self {
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            fs_type: fs_type(&std::env::temp_dir()),
            rustc: first_line_of("rustc", &["-V"]),
            // the driver's checkout is not a repository: "unknown" there
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        assert!(vm_hwm_mb(None).expect("VmHWM of self") > 0.0);
        assert!(cpu_ms(None).is_some());
        assert!(vm_hwm_mb(Some(u32::MAX)).is_none());
    }

    #[test]
    fn parses_status_fields() {
        let text = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(field_kb(text, "VmHWM"), Some(2048));
        assert_eq!(field_kb(text, "VmPeak"), None);
        assert_eq!(field_kb("write_bytes: 77\n", "write_bytes"), Some(77));
    }

    #[test]
    fn names_the_filesystem_of_a_directory() {
        assert_ne!(fs_type(&std::env::temp_dir()), "");
    }
}

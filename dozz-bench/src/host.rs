//! The host a result was measured on, recorded with every result:
//! core count, cgroup CPU and memory limits, compiler and source
//! revision. Readers degrade to `null` where the information is not
//! available; none of them fails a run.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

/// The host context as one JSON object.
pub fn context() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("available_parallelism".into(), serde_json::json!(cores)),
        ("cgroup".into(), cgroup()),
        ("rustc".into(), opt(command_line("rustc", &["-V"]))),
        ("git".into(), git()),
    ])
}

fn opt(s: Option<String>) -> Value {
    s.map_or(Value::Null, Value::String)
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// cgroup v2 `cpu.max` / `memory.max` of this process's group, falling
/// back to the v1 CFS quota and memory limit.
fn cgroup() -> Value {
    let own = read_trimmed("/proc/self/cgroup").and_then(|text| {
        text.lines()
            .find_map(|l| l.strip_prefix("0::"))
            .map(str::to_string)
    });
    if let Some(rel) = own {
        // Inside a cgroup namespace the group is mounted at the root.
        for dir in [
            format!("/sys/fs/cgroup{}", rel.trim_end_matches('/')),
            "/sys/fs/cgroup".to_string(),
        ] {
            let cpu = read_trimmed(format!("{dir}/cpu.max"));
            let mem = read_trimmed(format!("{dir}/memory.max"));
            if cpu.is_some() || mem.is_some() {
                return Value::Object(vec![
                    ("version".into(), serde_json::json!("v2")),
                    ("cpu_max".into(), opt(cpu)),
                    ("memory_max".into(), opt(mem)),
                ]);
            }
        }
    }
    let quota = read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    let period = read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    let mem = read_trimmed("/sys/fs/cgroup/memory/memory.limit_in_bytes");
    if quota.is_none() && mem.is_none() {
        return Value::Null;
    }
    let cpu = quota.map(|q| format!("{q} {}", period.unwrap_or_default()));
    Value::Object(vec![
        ("version".into(), serde_json::json!("v1")),
        ("cpu_max".into(), opt(cpu)),
        ("memory_max".into(), opt(mem)),
    ])
}

/// Revision and dirty flag of the git checkout in the working
/// directory, or `null` outside one (git is only asked when the working
/// directory itself holds `.git`, so no enclosing repository is read).
fn git() -> Value {
    if !Path::new(".git").exists() {
        return Value::Null;
    }
    let Some(rev) = command_line("git", &["rev-parse", "HEAD"]) else {
        return Value::Null;
    };
    let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"])
        .map(|s| !s.is_empty());
    Value::Object(vec![
        ("rev".into(), Value::String(rev)),
        ("dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// Trimmed stdout of a successful command, waiting for it to end.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

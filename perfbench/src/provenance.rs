//! Host and run settings stamped on every result, so that a host change
//! is never read as a regression.

use std::process::Command;

pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub avx2_fma: bool,
    pub git_rev: String,
    pub rustc: String,
    /// Lane mode the sharded mesh engine resolves at `lanes` lanes.
    pub lane_mode: &'static str,
    pub lanes: usize,
    pub rayon_num_threads: Option<String>,
    pub hpcc_lane_mode: Option<String>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The lane mode `delta_mesh::shard` picks: the `HPCC_LANE_MODE`
/// override, else threads when more than one core is available, and
/// always inline for a single lane.
pub fn resolved_lane_mode(lanes: usize) -> &'static str {
    if lanes <= 1 {
        return "inline";
    }
    match std::env::var("HPCC_LANE_MODE").as_deref() {
        Ok("inline") => "inline",
        Ok("threads") => "threads",
        _ if nproc() > 1 => "threads",
        _ => "inline",
    }
}

/// First line of a command's standard output, or `"unavailable"`.
/// `output` waits for the child, so no process outlives the call.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    pub fn collect() -> Provenance {
        let lanes = nproc();
        Provenance {
            nproc: lanes,
            cpu_model: cpu_model(),
            avx2_fma: hpcc_kernels::simd::avx2_fma_available(),
            // Only ask git inside a git checkout: elsewhere it would search
            // the parent directories.
            git_rev: if std::path::Path::new(".git").exists() {
                first_line("git", &["rev-parse", "HEAD"])
            } else {
                "unavailable".to_string()
            },
            rustc: first_line("rustc", &["--version"]),
            lane_mode: resolved_lane_mode(lanes),
            lanes,
            rayon_num_threads: std::env::var("RAYON_NUM_THREADS").ok(),
            hpcc_lane_mode: std::env::var("HPCC_LANE_MODE").ok(),
        }
    }

    pub fn to_json(&self) -> String {
        let opt = |v: &Option<String>| v.as_ref().map_or("null".to_string(), |s| quote(s));
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"avx2_fma\": {}, \"git_rev\": {}, \
             \"rustc\": {}, \"lanes\": {}, \"lane_mode\": {}, \"RAYON_NUM_THREADS\": {}, \
             \"HPCC_LANE_MODE\": {}}}",
            self.nproc,
            quote(&self.cpu_model),
            self.avx2_fma,
            quote(&self.git_rev),
            quote(&self.rustc),
            self.lanes,
            quote(self.lane_mode),
            opt(&self.rayon_num_threads),
            opt(&self.hpcc_lane_mode),
        )
    }
}

/// A JSON string literal (escapes quotes, backslashes and controls).
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

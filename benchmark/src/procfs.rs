//! Per-thread accounting read from `/proc`: on-CPU nanoseconds from
//! `schedstat` (never the tick-granular `stat` times), context switches,
//! the user/kernel split, and peak RSS.

use std::collections::BTreeMap;
use std::fs;

/// The calling thread's kernel tid.
pub fn current_tid() -> u32 {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// The calling thread's on-CPU time so far, ns.
pub fn thread_cpu_ns() -> u64 {
    read_schedstat("/proc/thread-self/schedstat").expect("schedstat is readable")
}

fn read_schedstat(path: &str) -> Option<u64> {
    fs::read_to_string(path).ok()?.split_whitespace().next()?.parse().ok()
}

/// One thread's counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSample {
    pub cpu_ns: u64,
    pub ctx_switches: u64,
    /// Clock ticks in user / kernel mode: only their ratio is used.
    pub utime: u64,
    pub stime: u64,
}

impl ThreadSample {
    pub fn since(&self, earlier: &ThreadSample) -> ThreadSample {
        ThreadSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    pub fn add(&mut self, other: &ThreadSample) {
        self.cpu_ns += other.cpu_ns;
        self.ctx_switches += other.ctx_switches;
        self.utime += other.utime;
        self.stime += other.stime;
    }
}

/// Every thread of this process, by tid. A thread that has exited keeps
/// the last sample taken while it lived, so a node killed mid-window
/// still counts the CPU it used (sample right before killing it).
#[derive(Debug, Clone, Default)]
pub struct ProcessSample {
    pub threads: BTreeMap<u32, ThreadSample>,
}

impl ProcessSample {
    /// Re-reads every live thread, keeping the entries of dead ones.
    pub fn refresh(&mut self) {
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return };
        for task in tasks.flatten() {
            let Some(tid) = task.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let dir = format!("/proc/self/task/{tid}");
            let Some(cpu_ns) = read_schedstat(&format!("{dir}/schedstat")) else { continue };
            let mut sample = ThreadSample { cpu_ns, ..ThreadSample::default() };
            if let Ok(status) = fs::read_to_string(format!("{dir}/status")) {
                for line in status.lines() {
                    if line.starts_with("voluntary_ctxt_switches")
                        || line.starts_with("nonvoluntary_ctxt_switches")
                    {
                        sample.ctx_switches +=
                            line.rsplit(|c: char| c.is_whitespace()).next().map_or(0, parse_u64);
                    }
                }
            }
            if let Ok(stat) = fs::read_to_string(format!("{dir}/stat")) {
                // Fields after the parenthesised command name; utime and
                // stime are the 14th and 15th of the line.
                if let Some(rest) = stat.rsplit(')').next() {
                    let mut fields = rest.split_whitespace().skip(11);
                    sample.utime = fields.next().map_or(0, parse_u64);
                    sample.stime = fields.next().map_or(0, parse_u64);
                }
            }
            self.threads.insert(tid, sample);
        }
    }

    /// Per-thread growth since `earlier` (threads born later count whole).
    pub fn since(&self, earlier: &ProcessSample) -> ProcessSample {
        let threads = self
            .threads
            .iter()
            .map(|(tid, now)| {
                let base = earlier.threads.get(tid).copied().unwrap_or_default();
                (*tid, now.since(&base))
            })
            .collect();
        ProcessSample { threads }
    }

    /// Sum over the threads `keep` selects.
    pub fn total(&self, keep: impl Fn(u32) -> bool) -> ThreadSample {
        let mut sum = ThreadSample::default();
        for (tid, t) in &self.threads {
            if keep(*tid) {
                sum.add(t);
            }
        }
        sum
    }
}

fn parse_u64(s: &str) -> u64 {
    s.trim().parse().unwrap_or(0)
}

/// Peak resident set size of the process, MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

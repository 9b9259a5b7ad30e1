//! Replica processes: spawning, CPU sampling from `/proc`, the `/status`
//! member sets, and teardown.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`, 100 on
/// every Linux architecture the toolchain targets.
const TICKS_PER_SEC: u64 = 100;

/// Replica flags shared by every run: the batching settings of the
/// operator guide and no fsync (see the benchmark's README).
const REPLICA_FLAGS: &[&str] = &[
    "--no-fsync",
    "--max-batch",
    "64",
    "--max-delay-ms",
    "1",
    "--window",
    "8",
    "--seed",
    "1",
    "--stats-interval-secs",
    "0",
];

/// Which replica program to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaKind {
    /// The shipped `rsmr-server` binary.
    Shipped,
    /// This benchmark's traced entry point (`perfbench replica`).
    Traced,
}

struct Replica {
    node: u64,
    child: Child,
    metrics: Option<SocketAddr>,
    trace: PathBuf,
}

/// A running set of replica processes.
pub struct Cluster {
    kind: ReplicaKind,
    replicas: Vec<Replica>,
    /// Every replica as `(node id, peer address)`.
    pub addrs: Vec<(u64, SocketAddr)>,
}

fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    // Hold every listener until all are bound, so the ports differ.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

impl Cluster {
    /// Spawns `nodes` replicas (ids `0..nodes`) with fresh storage under
    /// `dir`; `initial` is the genesis configuration.
    pub fn spawn(
        kind: ReplicaKind,
        nodes: u64,
        initial: &[u64],
        groups: u32,
        dir: &Path,
    ) -> io::Result<Cluster> {
        let exe = std::env::current_exe()?;
        let bin_dir = exe.parent().expect("the executable lives in a directory");
        let addrs = free_addrs(2 * nodes as usize)?;
        let (peer_addrs, metric_addrs) = addrs.split_at(nodes as usize);
        let addrs: Vec<(u64, SocketAddr)> = (0..nodes).zip(peer_addrs.iter().copied()).collect();
        let members = initial
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut replicas = Vec::new();
        for &(node, listen) in &addrs {
            let storage = dir.join(format!("n{node}"));
            let trace = dir.join(format!("n{node}.trace"));
            let _ = std::fs::remove_dir_all(&storage);
            let mut cmd = match kind {
                ReplicaKind::Shipped => Command::new(bin_dir.join("rsmr-server")),
                ReplicaKind::Traced => {
                    let mut c = Command::new(&exe);
                    c.arg("replica").arg("--trace-out").arg(&trace);
                    c
                }
            };
            cmd.arg("--node")
                .arg(node.to_string())
                .arg("--listen")
                .arg(listen.to_string())
                .arg("--initial-members")
                .arg(&members)
                .arg("--groups")
                .arg(groups.to_string())
                .arg("--storage-dir")
                .arg(&storage)
                .args(REPLICA_FLAGS);
            for &(peer, addr) in &addrs {
                cmd.arg("--peer").arg(format!("{peer}@{addr}"));
            }
            let metrics = (kind == ReplicaKind::Shipped).then(|| metric_addrs[node as usize]);
            if let Some(m) = metrics {
                cmd.arg("--metrics-listen").arg(m.to_string());
            }
            let child = cmd
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?;
            replicas.push(Replica {
                node,
                child,
                metrics,
                trace,
            });
        }
        Ok(Cluster {
            kind,
            replicas,
            addrs,
        })
    }

    /// User plus system CPU of every replica process, µs.
    pub fn cpu_us(&self) -> io::Result<u64> {
        self.replicas
            .iter()
            .map(|r| proc_cpu_us(&format!("/proc/{}/stat", r.child.id())))
            .sum()
    }

    /// Every replica's `(anchored epoch, member set)` per group, from its
    /// `/status` page (shipped replicas only).
    pub fn status(&self) -> io::Result<Vec<(u64, GroupStatus)>> {
        let mut out = Vec::new();
        for r in &self.replicas {
            if let Some(addr) = r.metrics {
                out.push((r.node, parse_status(&http_get(addr, "/status")?)));
            }
        }
        Ok(out)
    }

    /// Stops every replica and waits for each. Shipped replicas are
    /// killed; traced ones stop when their stdin closes, after writing
    /// their trace file. Returns the trace files, by node.
    pub fn stop(mut self) -> io::Result<Vec<(u64, PathBuf)>> {
        let traces = self
            .replicas
            .iter()
            .map(|r| (r.node, r.trace.clone()))
            .collect();
        for r in &mut self.replicas {
            drop(r.child.stdin.take());
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        for r in &mut self.replicas {
            if self.kind == ReplicaKind::Shipped {
                let _ = r.child.kill();
            }
            while r.child.try_wait()?.is_none() {
                if Instant::now() >= deadline {
                    // Drop kills whatever is still running.
                    return Err(io::Error::other(format!(
                        "replica {} did not stop in time",
                        r.node
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.replicas.clear();
        Ok(traces)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for r in &mut self.replicas {
            let _ = r.child.kill();
            let _ = r.child.wait();
        }
    }
}

/// `utime + stime` of one process, µs.
pub fn proc_cpu_us(stat_path: &str) -> io::Result<u64> {
    let stat = std::fs::read_to_string(stat_path)?;
    parse_stat_cpu_us(&stat).ok_or_else(|| io::Error::other(format!("{stat_path}: unparsable")))
}

fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis start at field 3 (state). utime and stime are
    // fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / TICKS_PER_SEC))
}

fn http_get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    s.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(s, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut body = String::new();
    s.read_to_string(&mut body)?;
    Ok(body
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default())
}

/// Per group, in group order: the anchored epoch (`None` before the
/// replica anchors) and the newest configuration's members.
pub type GroupStatus = Vec<(Option<u64>, Vec<u64>)>;

/// Reads the per-group `"epoch"` and `"members"` fields of a `/status`
/// document.
fn parse_status(doc: &str) -> GroupStatus {
    doc.split("{\"group\":")
        .skip(1)
        .map(|group| {
            let field = |name: &str| {
                group
                    .split_once(&format!("\"{name}\":"))
                    .map_or("", |(_, rest)| rest)
            };
            let epoch = field("epoch")
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok());
            let members = field("members")
                .trim_start_matches('[')
                .split(']')
                .next()
                .unwrap_or("")
                .split(',')
                .filter_map(|n| n.trim().parse().ok())
                .collect();
            (epoch, members)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_skips_a_command_name_with_spaces() {
        let stat = "42 (a b) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1 0 0";
        assert_eq!(parse_stat_cpu_us(stat), Some(300 * 10_000));
    }

    #[test]
    fn status_comes_out_per_group() {
        let doc = r#"{"node":0,"groups":[{"group":0,"epoch":2,"active_epoch":2,"role":"leader","members":[0,1,2]},{"group":1,"epoch":null,"active_epoch":null,"role":"joining","members":[]}]}"#;
        assert_eq!(
            parse_status(doc),
            vec![(Some(2), vec![0, 1, 2]), (None, vec![])]
        );
    }
}

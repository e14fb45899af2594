//! The system under test as child processes: `hmh serve` daemons, and
//! for the routed workload `hmh route serve` in front of them.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use hmh_route::{Ring, RingConfig};
use hmh_serve::{Client, Health, Request, Response};

use crate::load;

/// How long a daemon may take to drain and exit after SHUTDOWN.
const EXIT_GRACE: Duration = Duration::from_secs(20);

/// One child process that announced `listening on ADDR`.
pub struct Proc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Proc {
    fn spawn(hmh: &Path, args: &[&str]) -> io::Result<Self> {
        let mut child = Command::new(hmh)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("{args:?}: no readiness line, got {line:?}")));
        };
        Ok(Self { child, _stdout: stdout, addr })
    }

    /// Peak resident memory (`VmHWM`) in KiB.
    fn peak_rss_kib(&self) -> io::Result<u64> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drain-then-exit over the protocol, and wait for the exit.
    fn stop(mut self) -> io::Result<()> {
        let _ = Client::connect(self.addr).shutdown();
        let start = Instant::now();
        while self.child.try_wait()?.is_none() {
            if start.elapsed() > EXIT_GRACE {
                return Err(io::Error::other(format!("{} did not exit", self.addr)));
            }
            thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` in KiB from a `/proc/*/status` file.
pub fn peak_rss_kib(status: &str) -> io::Result<u64> {
    fs::read_to_string(status)?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status}")))
}

/// The daemons of one workload, and the address clients talk to.
pub struct Cluster {
    daemons: Vec<Proc>,
    router: Option<Proc>,
    dirs: Vec<PathBuf>,
    pub ring: Option<Ring>,
    pub entry: SocketAddr,
}

impl Cluster {
    /// Start a daemon of two workers over a fresh store directory under
    /// `work`; with `routed`, two daemons behind a two-worker router, one
    /// group each.
    pub fn start(hmh: &Path, work: &Path, routed: bool) -> io::Result<Self> {
        let mut daemons = Vec::new();
        let mut dirs = Vec::new();
        for g in 0..if routed { 2 } else { 1 } {
            let dir = work.join(format!("store{g}"));
            if dir.exists() {
                fs::remove_dir_all(&dir)?;
            }
            let dir_arg = dir.to_str().expect("work paths are UTF-8");
            daemons.push(Proc::spawn(
                hmh,
                &["serve", dir_arg, "--addr", "127.0.0.1:0", "--workers", "2"],
            )?);
            dirs.push(dir);
        }
        let (router, ring) = if routed {
            let mut text = String::from("hmh-ring v1\nepoch 1\n");
            for (g, d) in daemons.iter().enumerate() {
                text.push_str(&format!("group g{g} {}\n", d.addr));
            }
            let ring_file = work.join("ring.txt");
            fs::write(&ring_file, &text)?;
            let ring = RingConfig::from_text(&text)
                .and_then(Ring::build)
                .map_err(|e| io::Error::other(e.to_string()))?;
            let ring_arg = ring_file.to_str().expect("work paths are UTF-8");
            let router = Proc::spawn(
                hmh,
                &["route", "serve", ring_arg, "--addr", "127.0.0.1:0", "--workers", "2"],
            )?;
            (Some(router), Some(ring))
        } else {
            (None, None)
        };
        let entry = router.as_ref().map_or(daemons[0].addr, |r| r.addr);
        Ok(Self { daemons, router, dirs, ring, entry })
    }

    /// PUT every preload request through the entry address.
    pub fn preload(&self, requests: &[Request]) -> io::Result<()> {
        let mut conn = load::connect(self.entry)?;
        for request in requests {
            let (reply, _) = load::exchange(&mut conn, request)?;
            if reply != Response::Ok {
                return Err(io::Error::other(format!("preload refused: {reply:?}")));
            }
        }
        Ok(())
    }

    /// The daemon that owns `name`.
    pub fn owner(&self, name: &str) -> usize {
        self.ring.as_ref().map_or(0, |ring| ring.owner_index(name))
    }

    /// A connection straight to each daemon, bypassing the router.
    pub fn connect_daemons(&self) -> io::Result<Vec<TcpStream>> {
        self.daemons.iter().map(|d| load::connect(d.addr)).collect()
    }

    /// Bytes in all store directories.
    pub fn store_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for dir in &self.dirs {
            for entry in fs::read_dir(dir)? {
                total += entry?.metadata()?.len();
            }
        }
        Ok(total)
    }

    /// Peak resident memory of every process, summed, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kib = 0;
        for p in self.daemons.iter().chain(&self.router) {
            kib += p.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// HEALTH at the entry address: the daemon's, or the router's, which
    /// adds up its shards' expiry and scrub counters.
    pub fn health(&self) -> io::Result<Health> {
        Client::connect(self.entry)
            .health()
            .map_err(|e| io::Error::other(format!("HEALTH {}: {e}", self.entry)))
    }

    /// Stop the router, then the daemons, waiting for each to exit.
    pub fn stop(mut self) -> io::Result<()> {
        if let Some(router) = self.router.take() {
            router.stop()?;
        }
        for daemon in self.daemons.drain(..) {
            daemon.stop()?;
        }
        Ok(())
    }
}

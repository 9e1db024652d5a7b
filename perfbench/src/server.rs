//! The serving process: the benchmark re-executes itself as
//! `perfbench serve-child`, which opens the index through the real
//! `gks-server` catalog and serves it until told to quit. The parent talks
//! to it over stdin/stdout: `poll` and `compact` run one
//! `ResidentIndex::poll_corpus` / `compact_now` and answer with the wall
//! time taken, `quit` drains and exits. Keeping the server in its own
//! process makes its peak memory its own and keeps the generator's
//! allocations out of it.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use gks_server::catalog::IndexSpec;
use gks_server::{serve_catalog, ServeConfig};

/// The configuration every served index runs with: defaults except one
/// worker per core and an ephemeral port.
pub fn serve_config() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".to_string(), workers: nproc(), ..ServeConfig::default() }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// What the child serves.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// One persisted `.gksix` file (the unsharded `run_query` path).
    File(&'a Path),
    /// A v2 shard manifest (the sharded `run_query_sharded` path).
    Manifest(&'a Path),
}

/// A running serving process. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `exe serve-child` over `source` and waits until it accepts
    /// connections.
    pub fn spawn(exe: &Path, source: Source<'_>) -> Result<ServerProcess, String> {
        let (kind, path) = match source {
            Source::File(p) => ("file", p),
            Source::Manifest(p) => ("manifest", p),
        };
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg(kind)
            .arg(path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".into());
        };
        let mut proc = ServerProcess {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = proc.read_line()?;
        let addr = line
            .strip_prefix("ready ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("server did not start: {line:?}"))?;
        proc.addr = addr;
        Ok(proc)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read from server: {e}")),
        }
    }

    /// Sends one command and returns its `ok …` reply fields.
    pub fn command(&mut self, cmd: &str) -> Result<Vec<String>, String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        writeln!(stdin, "{cmd}")
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())?;
        let line = self.read_line()?;
        match line.strip_prefix("ok") {
            Some(rest) => Ok(rest.split_whitespace().map(str::to_string).collect()),
            None => Err(format!("{cmd}: {line}")),
        }
    }

    /// Peak resident set of the serving process so far, in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }

    /// Drains the server and waits for the process to exit.
    pub fn quit(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "quit");
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Already reaped by `quit` → `try_wait` reports it and nothing runs.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `serve-child` entry point: serves `path` until `quit` or EOF.
pub fn child_main(kind: &str, path: &Path) -> Result<(), String> {
    let spec = match kind {
        "file" => IndexSpec::with_source("default", path),
        "manifest" => IndexSpec::with_manifest("default", path).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown source kind {other:?}")),
    };
    let server = serve_catalog(vec![spec], None, serve_config()).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout().lock();
    let reply = |out: &mut std::io::StdoutLock<'_>, line: String| {
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    reply(&mut out, format!("ready {}", server.local_addr()));
    let resident = std::sync::Arc::clone(server.state().catalog().default_index());
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "poll" => {
                let t = Instant::now();
                let result = resident.poll_corpus();
                let micros = t.elapsed().as_micros();
                match result {
                    Ok(Some(s)) => {
                        reply(&mut out, format!("ok {micros} {}", s.added + s.changed + s.deleted))
                    }
                    Ok(None) => reply(&mut out, format!("ok {micros} 0")),
                    Err(e) => reply(&mut out, format!("error {e}")),
                }
            }
            "compact" => {
                let t = Instant::now();
                let result = resident.compact_now();
                let micros = t.elapsed().as_micros();
                match result {
                    Ok(_) => reply(&mut out, format!("ok {micros}")),
                    Err(e) => reply(&mut out, format!("error {e}")),
                }
            }
            "quit" => break,
            other => reply(&mut out, format!("error unknown command {other:?}")),
        }
    }
    drop(resident);
    server.shutdown();
    Ok(())
}

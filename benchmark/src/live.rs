//! Shared plumbing of the `live` workload: a `LiveServer` on its own
//! thread and closed-loop `load_page` calls from the calling thread.

use h2push_browser::BrowserConfig;
use h2push_strategies::Strategy;
use h2push_testbed::{load_page, LiveLoadReport, LiveServer, LiveServerHandle, LiveServerStats};
use h2push_webmodel::Page;
use std::cell::Cell;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-load timeout; a healthy loopback load takes about a millisecond.
const LOAD_TIMEOUT: Duration = Duration::from_secs(30);

/// The server stops itself after this long even if nobody asks, so a
/// wedged run cannot outlive the benchmark's time limit.
const SERVER_DEADLINE: Duration = Duration::from_secs(170);

/// A `LiveServer` serving one page on its own thread.
pub struct Served {
    /// The page being served.
    pub page: Arc<Page>,
    /// Where it listens (loopback, kernel-chosen port).
    pub addr: SocketAddr,
    /// Wire bytes every [`Served::load`] so far saw arrive.
    received: Cell<u64>,
    handle: LiveServerHandle,
    thread: Option<JoinHandle<io::Result<LiveServerStats>>>,
}

impl Served {
    /// Bind `127.0.0.1:0` and serve `page` under `strategy`.
    pub fn start(page: Arc<Page>, strategy: Arc<Strategy>) -> io::Result<Served> {
        let mut server = LiveServer::bind("127.0.0.1:0", Arc::clone(&page), strategy)?;
        server.set_deadline(SERVER_DEADLINE);
        let addr = server.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Served { page, addr, received: Cell::new(0), handle, thread: Some(thread) })
    }

    /// One page load with the browser's compute timers off
    /// (`cpu_scale: 0.0`): transport- and CPU-bound, about 1.4 ms instead
    /// of 722 ms of modelled parse and script time.
    pub fn load(&self) -> io::Result<LiveLoadReport> {
        let cfg = BrowserConfig { cpu_scale: 0.0, ..BrowserConfig::default() };
        let report = load_page(self.addr, Arc::clone(&self.page), cfg, LOAD_TIMEOUT)?;
        self.received.set(self.received.get() + report.bytes_in);
        Ok(report)
    }

    /// Wire bytes the loads so far received, to set against the server's
    /// `bytes_out`.
    pub fn received(&self) -> u64 {
        self.received.get()
    }

    /// Drain and stop the server; returns its statistics.
    pub fn stop(mut self) -> io::Result<LiveServerStats> {
        self.handle.stop();
        let thread = self.thread.take().expect("stop runs once");
        thread.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// A server nobody stopped is stopped and joined here, so no thread
/// outlives the run.
impl Drop for Served {
    fn drop(&mut self) {
        self.handle.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

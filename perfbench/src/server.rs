//! The `pull_fleet` and `fleet_poll` load generator: a minimal
//! `std::net` server answering each scrape with a pre-rendered profile
//! body. Accept blocks (no polling sleep), every response closes its
//! connection, and at most two threads serve, so the generator adds as
//! little as possible to the scrape time it sits under.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use gosim::GoroutineProfile;

const THREADS: usize = 2;

/// A running generator. [`FleetServer::stop`] shuts it down and joins
/// its threads.
pub struct FleetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Per-request service time (µs): from accept to the last byte
    /// written.
    service_us: Arc<Mutex<Vec<f64>>>,
}

impl FleetServer {
    /// Pre-renders one response per profile (served at
    /// `collector::ProfileHub::profile_path`) and starts serving.
    pub fn start(profiles: &[GoroutineProfile]) -> std::io::Result<FleetServer> {
        let mut routes: HashMap<String, Vec<u8>> = HashMap::new();
        for p in profiles {
            let body = serde_json::to_string(p).expect("profile serializes");
            let mut resp = format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
                body.len()
            )
            .into_bytes();
            resp.extend_from_slice(body.as_bytes());
            routes.insert(collector::ProfileHub::profile_path(&p.instance), resp);
        }
        let routes = Arc::new(routes);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service_us = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        for _ in 0..THREADS {
            let listener = listener.try_clone()?;
            let (routes, stop, service_us) = (
                Arc::clone(&routes),
                Arc::clone(&stop),
                Arc::clone(&service_us),
            );
            threads.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let t = Instant::now();
                    serve(stream, &routes);
                    local.push(t.elapsed().as_secs_f64() * 1e6);
                }
                service_us
                    .lock()
                    .expect("service samples poisoned")
                    .extend(local);
            }));
        }
        Ok(FleetServer {
            addr,
            stop,
            threads,
            service_us,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins every thread and returns the per-request
    /// service times in µs.
    pub fn stop(mut self) -> Vec<f64> {
        self.stop.store(true, Ordering::SeqCst);
        // Each thread is parked in a blocking accept; one connection
        // apiece wakes it to see the flag.
        for _ in 0..self.threads.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for t in self.threads.drain(..) {
            t.join().expect("generator thread panicked");
        }
        std::mem::take(&mut *self.service_us.lock().expect("service samples poisoned"))
    }
}

fn serve(stream: TcpStream, routes: &HashMap<String, Vec<u8>>) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let path = line.split_whitespace().nth(1).unwrap_or("").to_string();
    // Drain the request headers.
    loop {
        let mut h = String::new();
        match reader.read_line(&mut h) {
            Ok(0) | Err(_) => break,
            Ok(_) if h == "\r\n" || h == "\n" => break,
            Ok(_) => {}
        }
    }
    let mut out = &stream;
    let _ = match routes.get(&path) {
        Some(resp) => out.write_all(resp),
        None => out
            .write_all(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"),
    };
    let _ = stream.shutdown(Shutdown::Write);
}

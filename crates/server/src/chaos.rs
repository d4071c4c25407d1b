//! Deterministic TCP chaos proxy.
//!
//! Sits between a client and the daemon and injects *scripted* network
//! faults: mid-frame disconnects, splitting/coalescing of frames into
//! arbitrary byte chunks, fixed forwarding delays, slowloris stalls,
//! and single-byte corruption of the length prefix or payload. Every
//! fault is a pure function of `(ChaosPlan, connection index,
//! direction)` — the same SplitMix64 idiom as [`derive_seed`]
//! everywhere else in this repo — so any failure the proxy produces is
//! replayable bit for bit by re-running the same plan.
//!
//! The proxy owns all of its threads (one accept loop, two pump
//! threads per connection) and joins every one of them on
//! [`ChaosProxy::shutdown`], so chaos soaks can assert zero leaked OS
//! threads exactly like the daemon soak does.
//!
//! # Fault taxonomy
//!
//! | fault | knob | wire effect |
//! |---|---|---|
//! | chunking | `max_chunk` | frames split/coalesced at arbitrary byte boundaries |
//! | disconnect | `disconnect_every` | both directions torn down after a scripted byte count (usually mid-frame) |
//! | corruption | `corrupt_every` | scripted bytes XOR-flipped, recurring along the stream (length prefix or payload, wherever they land) |
//! | delay | `delay_every`, `delay_ms` | fixed pause before every Nth forwarded chunk |
//! | stall | `stall_every`, `stall_ms` | long slowloris pauses at scripted byte offsets |
//!
//! Faults are positioned by *byte count*, not wall clock, so a
//! connection's fault script is independent of scheduling: the
//! `*_every` knobs scale how much traffic flows between faults, and
//! `0` disables a fault class entirely. Because positions recur along
//! the stream, even a single long-lived connection keeps seeing chaos.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hypart_core::derive_seed;

/// A deterministic fault schedule for the proxy. All knobs follow the
/// `*_every` convention: `0` disables the fault class, larger values
/// space the faults further apart along the byte stream — every
/// position is a pure function of `(seed, connection index,
/// direction)`, not a coin flip.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Base seed; every per-connection script derives from it.
    pub seed: u64,
    /// Upper bound on forwarded chunk sizes in bytes (≥ 1). Small
    /// values shred frames into many partial reads; large values
    /// coalesce several frames into one segment.
    pub max_chunk: usize,
    /// Tear every connection down after a scripted byte count drawn
    /// from `2 KiB .. 2 KiB + N * 8 KiB` (0 = never): larger values
    /// mean longer-lived connections.
    pub disconnect_every: u64,
    /// XOR-corrupt one scripted byte roughly every `N * 2 KiB` of
    /// stream (0 = never).
    pub corrupt_every: u64,
    /// Delay every Nth forwarded chunk (0 = never).
    pub delay_every: u64,
    /// The fixed delay applied to delayed chunks.
    pub delay_ms: u64,
    /// Insert a long stall roughly every `N * 8 KiB` of stream
    /// (0 = never).
    pub stall_every: u64,
    /// The slowloris stall duration.
    pub stall_ms: u64,
}

impl ChaosPlan {
    /// A moderately hostile plan: heavy chunking, connections torn
    /// down after at most ~26 KiB, corruption roughly every 8 KiB, a
    /// short delay on every 5th chunk, and a stall roughly every
    /// 56 KiB.
    pub fn hostile(seed: u64) -> Self {
        ChaosPlan {
            seed,
            max_chunk: 23,
            disconnect_every: 3,
            corrupt_every: 4,
            delay_every: 5,
            delay_ms: 2,
            stall_every: 7,
            stall_ms: 40,
        }
    }

    /// A plan that only reshapes byte boundaries (chunking), injecting
    /// no faults: traffic is delivered intact, just maximally shredded.
    pub fn shred(seed: u64) -> Self {
        ChaosPlan {
            seed,
            max_chunk: 7,
            disconnect_every: 0,
            corrupt_every: 0,
            delay_every: 0,
            delay_ms: 0,
            stall_every: 0,
            stall_ms: 0,
        }
    }
}

/// A tiny SplitMix64 stream: the per-connection script generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The fault script of one pump direction, fully decided before the
/// first byte flows. Corruption and stalls recur along the stream
/// (next position = previous + step); disconnects end the connection,
/// so they fire at most once.
#[derive(Debug, PartialEq, Eq)]
struct Script {
    /// Chunk-size stream state.
    rng_state: u64,
    /// Tear the connection down once this many bytes have flowed.
    disconnect_after: Option<u64>,
    /// Absolute offset of the next byte to XOR-corrupt.
    corrupt_next: Option<u64>,
    /// Distance between recurring corruption points.
    corrupt_step: u64,
    /// The (nonzero) XOR mask applied at corruption points.
    corrupt_mask: u8,
    /// Fixed delay applied to every `delay_every`-th chunk.
    delay: Option<Duration>,
    /// Chunk period of the delay fault.
    delay_every: u64,
    /// Count of chunks forwarded so far (drives `delay_every`).
    chunk_index: u64,
    /// Absolute offset of the next slowloris stall.
    stall_next: Option<u64>,
    /// Distance between recurring stall points.
    stall_step: u64,
    /// The slowloris stall duration.
    stall: Duration,
}

impl Script {
    /// Builds the deterministic script for `(plan, conn, direction)`.
    /// `direction` is 0 for client→server, 1 for server→client.
    fn derive(plan: &ChaosPlan, conn: u64, direction: u64) -> Script {
        let mut rng = SplitMix64(derive_seed(plan.seed, conn * 2 + direction));
        let disconnect_draw = rng.next();
        let corrupt_draw = rng.next();
        let corrupt_mask = (rng.next() % 255 + 1) as u8;
        let stall_draw = rng.next();
        // Steps scale with the `*_every` knobs: larger knob, more quiet
        // bytes between faults. The first position is drawn inside one
        // step so the fault reliably triggers on busy connections.
        let corrupt_step = plan.corrupt_every.max(1) * 2048;
        let stall_step = plan.stall_every.max(1) * 8192;
        Script {
            rng_state: rng.next(),
            disconnect_after: (plan.disconnect_every > 0)
                .then(|| 2048 + disconnect_draw % (plan.disconnect_every * 8192)),
            corrupt_next: (plan.corrupt_every > 0).then(|| 64 + corrupt_draw % corrupt_step),
            corrupt_step,
            corrupt_mask,
            delay: (plan.delay_every > 0 && plan.delay_ms > 0)
                .then(|| Duration::from_millis(plan.delay_ms)),
            delay_every: plan.delay_every.max(1),
            chunk_index: 0,
            stall_next: (plan.stall_every > 0 && plan.stall_ms > 0)
                .then(|| 128 + stall_draw % stall_step),
            stall_step,
            stall: Duration::from_millis(plan.stall_ms),
        }
    }

    fn next_chunk_len(&mut self, max_chunk: usize) -> usize {
        let mut rng = SplitMix64(self.rng_state);
        let len = (rng.next() as usize) % max_chunk.max(1) + 1;
        self.rng_state = rng.0;
        len
    }
}

/// A running chaos proxy. Dropping it shuts it down and joins every
/// thread it spawned.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

struct ProxyShared {
    shutdown: AtomicBool,
    /// Clones of every live socket (client side and upstream side), so
    /// shutdown can unblock pump threads parked in `read`.
    sockets: Mutex<Vec<TcpStream>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and forwards every accepted
    /// connection to `upstream` through the plan's fault script.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(plan: ChaosPlan, upstream: SocketAddr) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            shutdown: AtomicBool::new(false),
            sockets: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("chaos-accept".to_string())
                .spawn(move || accept_loop(&listener, upstream, &plan, &shared))?
        };
        Ok(ChaosProxy {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The proxy's listening address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Tears the proxy down: stops accepting, severs every proxied
    /// connection, and joins all pump threads.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept loop, then sever every proxied socket so
        // pump threads parked in `read` wake with an error/EOF.
        drop(TcpStream::connect(self.local_addr));
        for socket in self
            .shared
            .sockets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            drop(socket.shutdown(Shutdown::Both));
        }
        if let Some(accept) = self.accept.take() {
            if accept.join().is_err() {
                eprintln!("chaos proxy: accept thread panicked");
            }
        }
        let pumps =
            std::mem::take(&mut *self.shared.pumps.lock().unwrap_or_else(|e| e.into_inner()));
        for pump in pumps {
            if pump.join().is_err() {
                eprintln!("chaos proxy: pump thread panicked");
            }
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.finish();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &ChaosPlan,
    shared: &Arc<ProxyShared>,
) {
    let mut conn_index = 0u64;
    loop {
        let Ok((client, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(server) = TcpStream::connect(upstream) else {
            // Upstream refused: drop the client, keep serving. The
            // client observes a clean close and retries.
            continue;
        };
        // Both legs forward chunks as they arrive; with Nagle's algorithm
        // each chunk could wait for the peer's delayed ACK (~40 ms).
        // Faults are positioned in bytes, not segments, so scripts are
        // unaffected. A leg that refuses the option is dropped like a
        // refused upstream.
        if client.set_nodelay(true).is_err() || server.set_nodelay(true).is_err() {
            continue;
        }
        let conn = conn_index;
        conn_index += 1;
        spawn_pumps(client, server, plan, conn, shared);
    }
}

/// Spawns the two pump threads of one proxied connection and registers
/// the sockets for shutdown.
fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    plan: &ChaosPlan,
    conn: u64,
    shared: &Arc<ProxyShared>,
) {
    let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    {
        let mut sockets = shared.sockets.lock().unwrap_or_else(|e| e.into_inner());
        match (client.try_clone(), server.try_clone()) {
            (Ok(c), Ok(s)) => {
                sockets.push(c);
                sockets.push(s);
            }
            _ => return,
        }
    }
    let c2s = Script::derive(plan, conn, 0);
    let s2c = Script::derive(plan, conn, 1);
    let max_chunk = plan.max_chunk;
    let mut pumps = shared.pumps.lock().unwrap_or_else(|e| e.into_inner());
    if let Ok(handle) = std::thread::Builder::new()
        .name(format!("chaos-c2s-{conn}"))
        .spawn(move || pump(client, server, c2s, max_chunk))
    {
        pumps.push(handle);
    }
    if let Ok(handle) = std::thread::Builder::new()
        .name(format!("chaos-s2c-{conn}"))
        .spawn(move || pump(server2, client2, s2c, max_chunk))
    {
        pumps.push(handle);
    }
}

/// Forwards bytes `from` → `to`, applying the direction's script.
fn pump(mut from: TcpStream, mut to: TcpStream, mut script: Script, max_chunk: usize) {
    let mut buf = [0u8; 8192];
    let mut sent: u64 = 0;
    let sever = |a: &TcpStream, b: &TcpStream| {
        drop(a.shutdown(Shutdown::Both));
        drop(b.shutdown(Shutdown::Both));
    };
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                sever(&from, &to);
                return;
            }
        };
        let mut off = 0usize;
        while off < n {
            let mut len = script.next_chunk_len(max_chunk).min(n - off);
            // Truncate the chunk at the scripted disconnect point so the
            // teardown lands exactly there (usually mid-frame).
            if let Some(cut) = script.disconnect_after {
                let remaining = cut.saturating_sub(sent);
                if remaining == 0 {
                    sever(&from, &to);
                    return;
                }
                len = len.min(remaining as usize);
            }
            script.chunk_index += 1;
            if let Some(delay) = script.delay {
                if script.chunk_index.is_multiple_of(script.delay_every) {
                    std::thread::sleep(delay);
                }
            }
            if let Some(pos) = script.stall_next {
                if sent <= pos && pos < sent + len as u64 {
                    std::thread::sleep(script.stall);
                    script.stall_next = Some(pos + script.stall_step);
                }
            }
            // Corruption points recur every `corrupt_step` bytes; a
            // large coalesced chunk can straddle several of them.
            while let Some(pos) = script.corrupt_next {
                if sent <= pos && pos < sent + len as u64 {
                    buf[off + (pos - sent) as usize] ^= script.corrupt_mask;
                    script.corrupt_next = Some(pos + script.corrupt_step);
                } else {
                    break;
                }
            }
            if to.write_all(&buf[off..off + len]).is_err() || to.flush().is_err() {
                sever(&from, &to);
                return;
            }
            off += len;
            sent += len as u64;
        }
    }
    // Clean EOF from the source: half-close the destination so the peer
    // sees the same boundary, and leave the reverse pump running.
    drop(to.shutdown(Shutdown::Write));
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_pure_functions_of_seed_conn_direction() {
        let plan = ChaosPlan::hostile(42);
        let a = Script::derive(&plan, 3, 0);
        let b = Script::derive(&plan, 3, 0);
        assert_eq!(a, b, "same (seed, conn, direction) must script identically");
        assert_ne!(
            Script::derive(&plan, 3, 0),
            Script::derive(&plan, 3, 1),
            "directions script independently"
        );
        assert_ne!(
            Script::derive(&plan, 3, 0),
            Script::derive(&plan, 4, 0),
            "connections script independently"
        );
        let other = ChaosPlan::hostile(43);
        assert_ne!(Script::derive(&plan, 3, 0), Script::derive(&other, 3, 0));
    }

    #[test]
    fn hostile_plan_arms_every_fault_class_on_every_connection() {
        let plan = ChaosPlan::hostile(7);
        for conn in 0..64 {
            for dir in 0..2 {
                let s = Script::derive(&plan, conn, dir);
                assert!(
                    s.disconnect_after.is_some(),
                    "conn {conn} dir {dir}: every connection must eventually tear"
                );
                assert!(s.corrupt_next.is_some());
                assert!(s.delay.is_some());
                assert!(s.stall_next.is_some());
                // Positions must sit within one step of the stream start
                // so busy connections reliably reach them.
                let cut = s.disconnect_after.unwrap();
                assert!((2048..2048 + plan.disconnect_every * 8192).contains(&cut));
                assert!(s.corrupt_next.unwrap() < 64 + s.corrupt_step);
                assert!(s.stall_next.unwrap() < 128 + s.stall_step);
            }
        }
    }

    #[test]
    fn shred_plan_scripts_no_faults() {
        let plan = ChaosPlan::shred(1);
        for conn in 0..32 {
            for dir in 0..2 {
                let s = Script::derive(&plan, conn, dir);
                assert!(s.disconnect_after.is_none());
                assert!(s.corrupt_next.is_none());
                assert!(s.delay.is_none());
                assert!(s.stall_next.is_none());
            }
        }
    }

    #[test]
    fn chunk_stream_is_deterministic_and_bounded() {
        let plan = ChaosPlan::shred(9);
        let mut a = Script::derive(&plan, 0, 0);
        let mut b = Script::derive(&plan, 0, 0);
        for _ in 0..100 {
            let (x, y) = (a.next_chunk_len(7), b.next_chunk_len(7));
            assert_eq!(x, y);
            assert!((1..=7).contains(&x));
        }
    }

    /// End-to-end passthrough: a shred-only proxy in front of a trivial
    /// echo server delivers every byte intact despite rechunking.
    #[test]
    fn shred_proxy_is_transparent_to_content() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 256];
            loop {
                match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        if buf.len() >= 1000 {
                            break;
                        }
                    }
                }
            }
            conn.write_all(&buf).unwrap();
            drop(conn.shutdown(Shutdown::Write));
        });

        let proxy = ChaosProxy::start(ChaosPlan::shred(5), upstream_addr).unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        client.write_all(&payload).unwrap();
        client.flush().unwrap();
        let mut back = Vec::new();
        let mut chunk = [0u8; 256];
        while back.len() < payload.len() {
            match client.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => back.extend_from_slice(&chunk[..n]),
            }
        }
        assert_eq!(back, payload, "shredding must not alter content");
        echo.join().unwrap();
        proxy.shutdown();
    }
}

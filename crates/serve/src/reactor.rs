//! The readiness-driven reactor: one thread multiplexing every
//! connection over `poll(2)`, driving per-connection state machines.
//!
//! Each connection is a small state machine:
//!
//! | phase       | waiting on                  | transition                          |
//! |-------------|-----------------------------|-------------------------------------|
//! | `Reading`   | readiness (fd or waker)     | full frame decoded → `Handling`     |
//! | `Handling`  | handler-pool completion     | responses queued → `Reading`/stream |
//! | `Streaming` | `stream_poll` timer         | terminal `Status` → `Reading`       |
//!
//! The reactor never blocks on request work: decoded requests ship (with
//! the connection's [`ClientCtx`], by move) to a handler pool, because a
//! request may legitimately park — a watch tick runs discovery probes to
//! completion against the engine. Streams cost no handler thread at all:
//! the reactor polls the session ticket inline on its timer tick, which
//! is also where the drain flag is checked — a streaming client can no
//! longer hold `shutdown()` open until its session terminates.
//!
//! `poll(2)` is the reactor's only blocking call. Its set holds every
//! TCP fd plus the [`ReadySignal`]'s waker fd, which every other event
//! source notifies: in-proc duplex pipes, the in-proc listener, handler
//! completions and the drain. So any event ends the park at once, and
//! with no stream timer armed the park has no timeout at all. An idle
//! connection costs a registered fd or waker token and nothing else: no
//! thread, no timer, zero wakeups between frames (`handler_dispatches`
//! in the server stats is the observable form of that claim).

use crate::protocol::{ErrorCode, Request, Response, SessionState};
use crate::server::{handle_request, poll_session, After, ClientCtx, ServerShared};
use crate::transport::{EventConn, Listener, Readiness, ReadySignal};
use crate::wire::{self, FrameAccum, WireError};
use crossbeam::channel;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token the listener registers under.
const LISTENER_TOKEN: usize = 0;
/// Token handler completions and external wakeups (drain) notify; the
/// waker fd is polled under it too.
pub(crate) const WAKE_TOKEN: usize = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: usize = 2;

mod sys {
    //! Minimal `poll(2)` binding. std already links libc; declaring the
    //! one symbol we need keeps the crate dependency-free offline.
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Polls `fds` for up to `timeout_ms` (`-1`: no limit); returns the
    /// ready count (0 on timeout, negative on error — the caller treats
    /// both as "nothing").
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s layout,
        // and the pointer and length come from one live, exclusively
        // borrowed slice, which poll(2) writes only within.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) }
    }
}

/// A request in flight to the handler pool, carrying the connection's
/// context by move — the reactor holds no reference to it meanwhile.
struct HandlerJob {
    token: usize,
    request: Request,
    ctx: ClientCtx,
    /// Dispatch instant, for the queue-wait and whole-frame histograms.
    queued: Instant,
}

/// A finished request: the context comes back with the responses.
struct HandlerDone {
    token: usize,
    ctx: ClientCtx,
    responses: Vec<Response>,
    after: After,
    /// The job's dispatch instant, carried through so the reactor can
    /// close the `serve.frame_us` measurement when it queues the
    /// responses for write.
    dispatched: Instant,
}

/// Where a connection's state machine currently is.
#[derive(Clone, Copy)]
enum Phase {
    /// Accumulating request bytes; the ctx is resident.
    Reading,
    /// A request (and the ctx) is out at the handler pool.
    Handling,
    /// Timer-armed `Stream` continuation; the ctx is resident.
    Streaming {
        session: u32,
        /// Last emitted (executions, cache_hits, sessions_completed) —
        /// `Progress` is only sent when these moved.
        last: (u64, u64, u64),
        next_tick: Instant,
    },
}

struct Conn<C: EventConn> {
    io: C,
    source: Readiness,
    accum: FrameAccum,
    /// Decoded requests not yet dispatched (clients may pipeline).
    pending: VecDeque<Request>,
    /// Resident except while a request is at the handler pool.
    ctx: Option<ClientCtx>,
    phase: Phase,
    outbuf: Vec<u8>,
    out_pos: usize,
    read_closed: bool,
    close_after_flush: bool,
    dead: bool,
}

impl<C: EventConn> Conn<C> {
    fn flushed(&self) -> bool {
        self.out_pos >= self.outbuf.len()
    }
}

/// Runs the server: accept, read, dispatch, stream, flush — one thread,
/// every connection. Returns when the drain flag is up and every
/// connection has retired.
pub(crate) fn reactor_loop<L: Listener>(
    listener: L,
    shared: Arc<ServerShared>,
    signal: Arc<ReadySignal>,
) {
    let (job_tx, job_rx) = channel::unbounded::<HandlerJob>();
    let (done_tx, done_rx) = channel::unbounded::<HandlerDone>();
    let mut handlers = Vec::new();
    for i in 0..shared.handler_threads() {
        let job_rx = job_rx.clone();
        let done_tx = done_tx.clone();
        let shared = Arc::clone(&shared);
        let signal = Arc::clone(&signal);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("aid-serve-handler-{i}"))
                .spawn(move || {
                    while let Ok(HandlerJob {
                        token,
                        request,
                        mut ctx,
                        queued,
                    }) = job_rx.recv()
                    {
                        shared
                            .timings
                            .handler_queue_wait
                            .record_duration(queued.elapsed());
                        let handling = Instant::now();
                        let (responses, after) = handle_request(&shared, &mut ctx, request);
                        shared
                            .timings
                            .handler_handle
                            .record_duration(handling.elapsed());
                        if done_tx
                            .send(HandlerDone {
                                token,
                                ctx,
                                responses,
                                after,
                                dispatched: queued,
                            })
                            .is_err()
                        {
                            break;
                        }
                        signal.notify(WAKE_TOKEN);
                    }
                })
                .expect("spawn handler thread"),
        );
    }
    drop(job_rx);
    drop(done_tx);

    let listener_source = listener.register(&signal, LISTENER_TOKEN);
    let mut conns: HashMap<usize, Conn<L::Conn>> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut listener_alive = true;
    let mut scratch = vec![0u8; 16 * 1024];
    // Start of the current wakeup, for the reactor dwell histogram.
    let mut woke = Instant::now();

    loop {
        let shutting_down = shared.shutdown.load(Relaxed);

        // Handler completions: responses out, context back, next phase.
        while let Ok(done) = done_rx.try_recv() {
            let Some(conn) = conns.get_mut(&done.token) else {
                continue;
            };
            conn.ctx = Some(done.ctx);
            for response in &done.responses {
                queue_response(&shared, conn, response);
            }
            // Frame turnaround closes here: dispatch to responses queued.
            shared
                .timings
                .frame
                .record_duration(done.dispatched.elapsed());
            conn.phase = match done.after {
                After::Continue => Phase::Reading,
                After::Close => {
                    conn.close_after_flush = true;
                    Phase::Reading
                }
                After::Stream { session } => Phase::Streaming {
                    session,
                    last: (u64::MAX, u64::MAX, u64::MAX),
                    next_tick: Instant::now(),
                },
            };
        }

        // Drain: close everything not waiting on a handler. Streams get a
        // terminal typed error this tick — the in-flight session keeps
        // running engine-side, but the connection no longer holds the
        // drain open. Undispatched pipelined requests are discarded, the
        // same boundary the thread-per-connection loop closed at.
        if shutting_down {
            for conn in conns.values_mut() {
                if let Phase::Streaming { .. } = conn.phase {
                    queue_response(
                        &shared,
                        conn,
                        &Response::Error {
                            code: ErrorCode::Draining,
                            message: "server is draining; stream closed".into(),
                        },
                    );
                    conn.phase = Phase::Reading;
                }
                if !matches!(conn.phase, Phase::Handling) {
                    conn.pending.clear();
                    conn.close_after_flush = true;
                }
            }
        }

        // Armed stream timers that came due.
        let now = Instant::now();
        for conn in conns.values_mut() {
            stream_tick(&shared, conn, now);
        }

        // Dispatch: one request per connection at a time (responses stay
        // in request order); further pipelined frames wait in `pending`.
        for (token, conn) in conns.iter_mut() {
            if !matches!(conn.phase, Phase::Reading) || conn.close_after_flush || conn.dead {
                continue;
            }
            if let Some(request) = conn.pending.pop_front() {
                let ctx = conn.ctx.take().expect("reading phase holds the ctx");
                conn.phase = Phase::Handling;
                shared.counters.handler_dispatches.inc();
                job_tx
                    .send(HandlerJob {
                        token: *token,
                        request,
                        ctx,
                        queued: Instant::now(),
                    })
                    .expect("handler pool outlives the reactor");
            }
        }

        // Flush, then retire connections that are done. A connection at
        // the handler pool never retires — its ctx must come home first.
        for conn in conns.values_mut() {
            flush(conn);
        }
        conns.retain(|_, conn| {
            if matches!(conn.phase, Phase::Handling) {
                return true;
            }
            let retire = conn.dead
                || (conn.close_after_flush && conn.flushed())
                || (conn.read_closed
                    && conn.flushed()
                    && conn.pending.is_empty()
                    && matches!(conn.phase, Phase::Reading));
            if retire {
                if let Some(mut ctx) = conn.ctx.take() {
                    ctx.fold_final(&shared);
                }
                shared.counters.release_connection();
            }
            !retire
        });

        if shutting_down && conns.is_empty() {
            break;
        }

        // Park until something is ready (or the next stream tick). The
        // dwell histogram covers wake-to-park: everything this wakeup
        // spent draining, dispatching, flushing and retiring. A listener
        // that will not be accepted from leaves the poll set, so a
        // connect during the drain cannot spin the park.
        shared.timings.reactor_dwell.record_duration(woke.elapsed());
        let accepting = listener_alive && !shutting_down;
        let ready = wait_for_events(
            &signal,
            accepting.then_some(listener_source),
            &conns,
            park_timeout(&conns, now),
        );
        woke = Instant::now();

        if accepting && ready.contains(&LISTENER_TOKEN) {
            listener_alive = accept_ready(&listener, &shared, &signal, &mut conns, &mut next_token);
        }
        for (token, conn) in conns.iter_mut() {
            if ready.contains(token) {
                read_conn(&shared, conn, &mut scratch);
            }
        }
    }

    drop(job_tx);
    for handler in handlers {
        let _ = handler.join();
    }
}

/// How long the reactor may park before a stream tick comes due; `None`
/// when no stream timer is armed.
fn park_timeout<C: EventConn>(conns: &HashMap<usize, Conn<C>>, now: Instant) -> Option<Duration> {
    conns
        .values()
        .filter_map(|conn| match conn.phase {
            Phase::Streaming { next_tick, .. } => Some(next_tick.saturating_duration_since(now)),
            _ => None,
        })
        .min()
}

/// Converts a park to a `poll(2)` timeout: whole milliseconds rounded
/// *up*, so a sub-millisecond wait parks instead of spinning `poll(…, 0)`
/// until the tick comes due; `None` parks without limit.
fn poll_timeout_ms(park: Option<Duration>) -> i32 {
    match park {
        None => -1,
        Some(park) => park.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

/// Parks in `poll(2)` until at least one event source fires (or `park`
/// elapses) and returns the ready tokens: the polled fds that fired plus
/// every token notified through the signal.
fn wait_for_events<C: EventConn>(
    signal: &ReadySignal,
    listener_source: Option<Readiness>,
    conns: &HashMap<usize, Conn<C>>,
    park: Option<Duration>,
) -> Vec<usize> {
    let mut fds = vec![sys::PollFd {
        fd: signal.fd(),
        events: sys::POLLIN,
        revents: 0,
    }];
    let mut tokens = vec![WAKE_TOKEN];
    if let Some(Readiness::Fd(fd)) = listener_source {
        fds.push(sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        });
        tokens.push(LISTENER_TOKEN);
    }
    for (token, conn) in conns {
        if let Readiness::Fd(fd) = conn.source {
            let mut events = sys::POLLIN;
            if !conn.flushed() {
                events |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd,
                events,
                revents: 0,
            });
            tokens.push(*token);
        }
    }
    let mut ready = Vec::new();
    if sys::poll_fds(&mut fds, poll_timeout_ms(park)) > 0 {
        for (pollfd, token) in fds.iter().zip(&tokens) {
            if pollfd.revents != 0 {
                ready.push(*token);
            }
        }
    }
    ready.extend(signal.drain());
    ready
}

fn accept_ready<L: Listener>(
    listener: &L,
    shared: &Arc<ServerShared>,
    signal: &Arc<ReadySignal>,
    conns: &mut HashMap<usize, Conn<L::Conn>>,
    next_token: &mut usize,
) -> bool {
    loop {
        match listener.try_accept() {
            Ok(Some(mut io)) => {
                // Nonblocking before the first write, refusals included:
                // poll(2) stays the reactor's only blocking call.
                if io.set_event_mode().is_err() {
                    continue;
                }
                // CAS reservation: the slot is claimed (or refused) in one
                // atomic step, so concurrent accept paths cannot over-admit
                // past the cap.
                if !shared
                    .counters
                    .try_reserve_connection(shared.config.max_connections as u64)
                {
                    shared.counters.connections_refused.inc();
                    let refusal = Response::Error {
                        code: ErrorCode::TooManyConnections,
                        message: format!(
                            "server is at its connection cap ({})",
                            shared.config.max_connections
                        ),
                    }
                    .encode();
                    // A fresh connection's empty send buffer takes this one
                    // small frame whole.
                    if wire::write_frame(&mut io, &refusal).is_ok() {
                        shared.counters.frames_out.inc();
                        shared.counters.bytes_out.add(refusal.len() as u64);
                    }
                    continue;
                }
                shared.counters.connections.inc();
                let token = *next_token;
                *next_token += 1;
                let source = match io.register(signal, token) {
                    Ok(source) => source,
                    Err(_) => {
                        shared.counters.release_connection();
                        continue;
                    }
                };
                conns.insert(
                    token,
                    Conn {
                        io,
                        source,
                        accum: FrameAccum::new(shared.config.max_frame_len),
                        pending: VecDeque::new(),
                        ctx: Some(ClientCtx::new(shared)),
                        phase: Phase::Reading,
                        outbuf: Vec::new(),
                        out_pos: 0,
                        read_closed: false,
                        close_after_flush: false,
                        dead: false,
                    },
                );
            }
            Ok(None) => return true,
            // The listener died (e.g. every in-proc connector dropped):
            // nothing further can arrive; keep serving what is open.
            Err(_) => return false,
        }
    }
}

/// Drains readable bytes into the accumulator and decodes full frames
/// into the pending queue. Protocol violations answer with a typed
/// `Malformed` error and close; EOF mid-frame is a hangup, not an error.
fn read_conn<C: EventConn>(shared: &Arc<ServerShared>, conn: &mut Conn<C>, scratch: &mut [u8]) {
    if conn.dead || conn.read_closed {
        return;
    }
    loop {
        match conn.io.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => conn.accum.extend(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    loop {
        match conn.accum.next_frame() {
            Ok(Some((kind, payload))) => {
                shared.counters.frames_in.inc();
                shared
                    .counters
                    .bytes_in
                    .add((wire::HEADER_LEN + payload.len()) as u64);
                match Request::decode_payload(kind, &payload) {
                    Ok(request) => conn.pending.push_back(request),
                    Err(e) => return protocol_error(shared, conn, e),
                }
            }
            Ok(None) => break,
            Err(e) => return protocol_error(shared, conn, e),
        }
    }
}

fn protocol_error<C: EventConn>(shared: &Arc<ServerShared>, conn: &mut Conn<C>, e: WireError) {
    shared.counters.protocol_errors.inc();
    queue_response(
        shared,
        conn,
        &Response::Error {
            code: ErrorCode::Malformed,
            message: e.to_string(),
        },
    );
    // Inside a corrupt byte stream frame boundaries are untrustworthy:
    // drop what was queued and hang up after the error flushes.
    conn.pending.clear();
    conn.close_after_flush = true;
}

/// Advances one connection's streaming continuation if its timer is due.
fn stream_tick<C: EventConn>(shared: &Arc<ServerShared>, conn: &mut Conn<C>, now: Instant) {
    let Phase::Streaming {
        session,
        last,
        next_tick,
    } = conn.phase
    else {
        return;
    };
    if now < next_tick || conn.dead {
        return;
    }
    let ctx = conn.ctx.as_mut().expect("streaming phase holds the ctx");
    match poll_session(shared, ctx, session) {
        SessionState::Pending => {
            // Emit Progress only when the engine-wide counters moved — an
            // unconditional frame per tick would spam ~1000 identical
            // frames/s per streaming client on a long session.
            let e = shared.engine.stats();
            let counters = (e.executions, e.cache_hits, e.sessions_completed);
            if counters != last {
                queue_response(
                    shared,
                    conn,
                    &Response::Progress {
                        session,
                        executions: e.executions,
                        cache_hits: e.cache_hits,
                        sessions_completed: e.sessions_completed,
                    },
                );
            }
            conn.phase = Phase::Streaming {
                session,
                last: counters,
                next_tick: now + shared.config.stream_poll,
            };
        }
        terminal => {
            queue_response(
                shared,
                conn,
                &Response::Status {
                    session,
                    state: terminal,
                },
            );
            conn.phase = Phase::Reading;
        }
    }
}

fn queue_response<C: EventConn>(
    shared: &Arc<ServerShared>,
    conn: &mut Conn<C>,
    response: &Response,
) {
    let frame = response.encode();
    shared.counters.frames_out.inc();
    shared.counters.bytes_out.add(frame.len() as u64);
    conn.outbuf.extend_from_slice(&frame);
}

/// Writes as much queued output as the transport accepts right now. A
/// partial write keeps its place; the fd stays armed for `POLLOUT`.
fn flush<C: EventConn>(conn: &mut Conn<C>) {
    if conn.dead {
        return;
    }
    while conn.out_pos < conn.outbuf.len() {
        match conn.io.write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.outbuf.clear();
    conn.out_pos = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_timeout_rounds_up_to_whole_milliseconds() {
        let ms = |park: Duration| poll_timeout_ms(Some(park));
        assert_eq!(ms(Duration::ZERO), 0, "a due tick polls without parking");
        assert_eq!(ms(Duration::from_micros(1)), 1);
        assert_eq!(ms(Duration::from_micros(999)), 1);
        assert_eq!(ms(Duration::from_millis(1)), 1);
        assert_eq!(ms(Duration::from_micros(1001)), 2);
        assert_eq!(ms(Duration::MAX), i32::MAX, "clamped, never negative");
        assert_eq!(poll_timeout_ms(None), -1, "no timer parks without limit");
    }

    /// A notify from another thread ends a `poll(2)` park that has no
    /// timeout — the one wake path every non-fd event source relies on.
    #[test]
    fn notify_interrupts_an_unbounded_poll_park() {
        let signal = ReadySignal::new().unwrap();
        let conns: HashMap<usize, Conn<crate::transport::DuplexStream>> = HashMap::new();
        let notifier = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || signal.notify(42))
        };
        let ready = wait_for_events(&signal, None, &conns, None);
        notifier.join().unwrap();
        assert!(
            ready.contains(&42),
            "woken with the notified token: {ready:?}"
        );
    }
}

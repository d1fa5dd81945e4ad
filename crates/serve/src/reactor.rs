//! The readiness-driven reactor: one thread multiplexing every
//! connection over `poll(2)`, driving per-connection state machines.
//!
//! Each connection is a small state machine:
//!
//! | phase       | waiting on                  | transition                          |
//! |-------------|-----------------------------|-------------------------------------|
//! | `Reading`   | readiness (fd or waker)     | frames decoded → `Handling`         |
//! | `Handling`  | handler-pool completion     | responses queued → `Reading`/stream |
//! | `Streaming` | engine completion push      | terminal `Status` → `Reading`       |
//!
//! The reactor never blocks on request work: decoded requests ship (with
//! the connection's [`ClientCtx`], by move) to a handler pool, because a
//! request may legitimately park — a watch tick runs discovery probes to
//! completion against the engine. Every request a connection has
//! pipelined so far ships as one handler job, which runs them in order
//! and hands back the ones after a `Stream`, a `Goodbye` or the drain.
//! Streams cost no handler thread and no timer: the session ticket's
//! completion hook notifies the connection's token, and the reactor polls
//! the ticket only when that token is ready. The drain flag is checked
//! on every wakeup, so a streaming client cannot hold `shutdown()` open
//! until its session terminates.
//!
//! `poll(2)` is the reactor's only blocking call, and it never times out.
//! Its set holds every TCP fd plus the [`ReadySignal`]'s waker fd, which
//! every other event source notifies: in-proc duplex pipes, the in-proc
//! listener, handler completions, session completions and the drain. So
//! any event ends the park at once. An idle connection costs a registered
//! fd or waker token and nothing else: no thread, no timer, zero wakeups
//! between frames (`handler_dispatches` in the server stats is the
//! observable form of that claim).

use crate::protocol::{ErrorCode, Request, Response, SessionState};
use crate::server::{handle_batch, poll_session, After, ClientCtx, ServerShared};
use crate::transport::{EventConn, Listener, Readiness, ReadySignal};
use crate::wire::{self, FrameAccum, WireError};
use crossbeam::channel;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

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

    /// Polls `fds` with no timeout; returns the ready count (negative on
    /// error, which the caller treats as "nothing").
    pub fn poll_fds(fds: &mut [PollFd]) -> i32 {
        // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s layout,
        // and the pointer and length come from one live, exclusively
        // borrowed slice, which poll(2) writes only within.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) }
    }
}

/// A connection's pipelined requests in flight to the handler pool,
/// carrying its context by move — the reactor holds no reference to it
/// meanwhile.
struct HandlerJob {
    token: usize,
    requests: VecDeque<Request>,
    ctx: ClientCtx,
    /// Dispatch instant, for the queue-wait and whole-frame histograms.
    queued: Instant,
}

/// A finished batch: the context comes back with the responses, and the
/// requests the handler did not run come back to the front of `pending`.
struct HandlerDone {
    token: usize,
    ctx: ClientCtx,
    responses: Vec<Response>,
    after: After,
    unrun: VecDeque<Request>,
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
    /// A batch of requests (and the ctx) is out at the handler pool.
    Handling,
    /// A `Stream` waiting on its session's completion push; the ctx is
    /// resident.
    Streaming { session: u32 },
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
                        mut requests,
                        mut ctx,
                        queued,
                    }) = job_rx.recv()
                    {
                        shared
                            .timings
                            .handler_queue_wait
                            .record_duration(queued.elapsed());
                        let (responses, after) = handle_batch(&shared, &mut ctx, &mut requests);
                        if done_tx
                            .send(HandlerDone {
                                token,
                                ctx,
                                responses,
                                after,
                                unrun: requests,
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

        // Handler completions: responses out, context and unrun requests
        // back, next phase.
        while let Ok(mut done) = done_rx.try_recv() {
            let Some(conn) = conns.get_mut(&done.token) else {
                continue;
            };
            for response in &done.responses {
                queue_response(&shared, conn, response);
            }
            done.unrun.append(&mut conn.pending);
            conn.pending = done.unrun;
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
                After::Stream { session } => {
                    // The hook fires once the outcome is published (at
                    // once if it already is), so the next wakeup with
                    // this token finds the session terminal.
                    let signal = Arc::clone(&signal);
                    let token = done.token;
                    done.ctx
                        .notify_on_ready(session, move || signal.notify(token));
                    Phase::Streaming { session }
                }
            };
            conn.ctx = Some(done.ctx);
        }

        // Drain: close everything not waiting on a handler. Streams get a
        // terminal typed error this wakeup — the in-flight session keeps
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

        // Dispatch: one batch per connection at a time, holding every
        // request decoded so far (responses stay in request order);
        // frames decoded meanwhile wait in `pending` for the next batch.
        for (token, conn) in conns.iter_mut() {
            if !matches!(conn.phase, Phase::Reading)
                || conn.close_after_flush
                || conn.dead
                || conn.pending.is_empty()
            {
                continue;
            }
            let ctx = conn.ctx.take().expect("reading phase holds the ctx");
            conn.phase = Phase::Handling;
            shared.counters.handler_dispatches.inc();
            job_tx
                .send(HandlerJob {
                    token: *token,
                    requests: std::mem::take(&mut conn.pending),
                    ctx,
                    queued: Instant::now(),
                })
                .expect("handler pool outlives the reactor");
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

        // Park until something is ready. The dwell histogram covers
        // wake-to-park: everything this wakeup spent draining,
        // dispatching, flushing and retiring. A listener that will not be
        // accepted from leaves the poll set, so a connect during the
        // drain cannot spin the park.
        shared.timings.reactor_dwell.record_duration(woke.elapsed());
        let accepting = listener_alive && !shutting_down;
        let ready = wait_for_events(&signal, accepting.then_some(listener_source), &conns);
        woke = Instant::now();

        if accepting && ready.contains(&LISTENER_TOKEN) {
            listener_alive = accept_ready(&listener, &shared, &signal, &mut conns, &mut next_token);
        }
        for (token, conn) in conns.iter_mut() {
            if ready.contains(token) {
                read_conn(&shared, conn, &mut scratch);
                stream_ready(&shared, conn);
            }
        }
    }

    drop(job_tx);
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Parks in `poll(2)` until at least one event source fires and returns
/// the ready tokens: the polled fds that fired plus every token notified
/// through the signal.
fn wait_for_events<C: EventConn>(
    signal: &ReadySignal,
    listener_source: Option<Readiness>,
    conns: &HashMap<usize, Conn<C>>,
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
            // A read-closed fd stays readable (EOF) for good, and a dead
            // one reports errors for good: arming either would turn the
            // park into a spin while the connection waits on a handler or
            // a session. An fd with nothing armed stays out of the set,
            // so a hangup cannot spin it either.
            let mut events = 0;
            if !conn.read_closed && !conn.dead {
                events |= sys::POLLIN;
            }
            if !conn.flushed() && !conn.dead {
                events |= sys::POLLOUT;
            }
            if events == 0 {
                continue;
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
    if sys::poll_fds(&mut fds) > 0 {
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

/// Polls a streaming connection's session once its token is ready: the
/// session's completion hook notifies it, so a terminal state is there to
/// read. A wakeup for other reasons (bytes arriving behind the `Stream`)
/// reads `Pending` and leaves the stream parked.
fn stream_ready<C: EventConn>(shared: &Arc<ServerShared>, conn: &mut Conn<C>) {
    let Phase::Streaming { session } = conn.phase else {
        return;
    };
    if conn.dead {
        return;
    }
    let ctx = conn.ctx.as_mut().expect("streaming phase holds the ctx");
    let state = poll_session(shared, ctx, session);
    if !matches!(state, SessionState::Pending) {
        queue_response(shared, conn, &Response::Status { session, state });
        conn.phase = Phase::Reading;
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
        let ready = wait_for_events(&signal, None, &conns);
        notifier.join().unwrap();
        assert!(
            ready.contains(&42),
            "woken with the notified token: {ready:?}"
        );
    }
}

//! The load generator: an in-process `pp_serve::Server` behind
//! `serve_tcp` on `127.0.0.1:0`, and three ways of offering it load.
//!
//! * **closed loop** — `T` lock-step [`pp_serve::Client`] connections;
//!   each sends its next query when the previous answer arrived, so a
//!   slow server receives less load. Gives `throughput_qps`.
//! * **open loop** — one connection, a sender pacing a Poisson schedule
//!   and a receiver; the queue can grow. Latency is timed from
//!   each request's *due* time, so a stall charges the requests behind
//!   it; how late the sender ran is reported as lateness.
//! * **flood** — one connection pipelining bfs queries with a fixed
//!   number in flight; latency is time in system.
//!
//! Every response is checked: `ok: true` and a summary equal to the
//! oracle's digest of the same query. Response lines are read with a
//! field scanner, not a JSON reader, so `pp_serve::json` is not part of
//! the harness's pinned surface.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pp_graph::CsrGraph;
use pp_serve::{Client, ServeConfig, Server, StatsSnapshot};

use crate::alloc;
use crate::input::{digest_matches, Digest, Input};
use crate::plan::{Traffic, FLOOD_WINDOW, MIX, POOL, SERVE_QUEUE, SSSP_SOURCES, TRAFFIC_SEED};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::{self, Summary};

/// How long a receiver waits for one response before giving up on the
/// rest (they then count as failed).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests per phase whose spans are kept in the trace.
const TRACED_REQUESTS: usize = 256;
/// Windows a phase is cut into for its throughput median.
const WINDOWS: usize = 8;

/// A running server: its address and the thread inside `serve_tcp`.
pub struct ServerHandle {
    pub addr: SocketAddr,
    /// `Server::new` → first pong.
    pub start_ms: f64,
    thread: JoinHandle<StatsSnapshot>,
}

/// Makes `graph` resident (`workers` runners × 1 engine thread, queue
/// [`SERVE_QUEUE`]) and waits for the first pong.
pub fn start_server(graph: CsrGraph, workers: usize, name: &str) -> std::io::Result<ServerHandle> {
    let t = Instant::now();
    let server = Server::new(
        graph,
        ServeConfig {
            workers,
            threads: 1,
            queue: SERVE_QUEUE,
            name: name.to_string(),
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("ppbench-serve".to_string())
        .spawn(move || server.serve_tcp(listener))?;
    let mut client = Client::connect_with_retry(addr, Duration::from_secs(10))?;
    let pong = client.request("{\"op\": \"ping\"}")?;
    if scan(&pong, "ok") != Some("true") {
        return Err(std::io::Error::other(format!("no pong: {pong}")));
    }
    Ok(ServerHandle {
        addr,
        start_ms: t.elapsed().as_secs_f64() * 1e3,
        thread,
    })
}

impl ServerHandle {
    /// Asks the server to drain and returns its final counters.
    pub fn shutdown(self) -> std::io::Result<StatsSnapshot> {
        Client::connect(self.addr)?.request("{\"op\": \"shutdown\"}")?;
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("the serve thread panicked"))
    }
}

/// One query: the algorithm and the pool index of its source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub algo: &'static str,
    pub idx: usize,
}

/// The query sequence of a traffic shape: which algorithm, which pool
/// index. (Which *vertex* a pool index names is what `--seed` decides.)
pub struct QueryGen {
    rng: Rng,
    traffic: Traffic,
}

impl QueryGen {
    pub fn new(seed: u64, stream: u64, traffic: Traffic) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            traffic,
        }
    }

    pub fn next_query(&mut self) -> Query {
        let algo = match self.traffic {
            Traffic::Flood => "bfs",
            Traffic::Mix => {
                let mut u = self.rng.unit();
                MIX.iter()
                    .find(|(_, share)| {
                        u -= share;
                        u <= 0.0
                    })
                    .map_or(MIX[0].0, |(a, _)| a)
            }
        };
        let idx = match algo {
            "bfs" => self.rng.below(POOL),
            "sssp" => self.rng.below(SSSP_SOURCES),
            _ => 0,
        };
        Query { algo, idx }
    }
}

/// What the phases need to know about the input they query.
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub input: &'a Input,
    /// `params` fragment of every request (the workload's schedule).
    pub params: &'static str,
    pub traffic: Traffic,
    /// All timestamps are nanoseconds since this instant.
    pub epoch: Instant,
}

impl Target<'_> {
    fn line(&self, q: Query, id: u64) -> String {
        format!(
            "{{\"algo\": \"{}\", \"source\": {}, \"id\": {id}{}}}",
            q.algo, self.input.pool[q.idx], self.params
        )
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn checked(&self, q: Query, reply: &Reply) -> bool {
        let want = self.input.oracle.expected(q.algo, self.input.pool[q.idx]);
        let ok = reply.ok
            && want.is_some_and(|w| {
                digest_matches(q.algo, &reply.summary, w, self.input.oracle.max_degree)
            });
        if !ok {
            eprintln!("ppbench: {q:?} answered wrongly: {reply:?}, expected {want:?}");
        }
        ok
    }
}

/// The text after `"key":` in a response line, up to the value's end for
/// scalars (strings lose their quotes).
fn scan<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = line[line.find(&pat)? + pat.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}', ' ']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn scan_u64(line: &str, key: &str) -> Option<u64> {
    scan(line, key)?.parse().ok()
}

/// The fields of a run response the harness reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reply {
    pub id: Option<u64>,
    pub ok: bool,
    pub summary: Digest,
    pub latency_ns: u64,
    pub queue_ns: u64,
    pub run_ns: u64,
    pub batched: u64,
    /// `error.kind` of an `ok: false` response (`overloaded`, …).
    pub error_kind: Option<String>,
}

pub fn parse_reply(line: &str) -> Reply {
    let mut summary = Digest::new();
    if let Some(at) = line.find("\"summary\":") {
        let body = &line[at..];
        if let (Some(open), Some(close)) = (body.find('{'), body.find('}')) {
            // `{"k": "v", "k2": "v2"}` → odd `"`-separated tokens.
            let tokens: Vec<&str> = body[open..close].split('"').collect();
            for pair in tokens[1..].chunks(4) {
                if let [k, _, v, ..] = pair {
                    summary.push((k.to_string(), v.to_string()));
                }
            }
        }
    }
    Reply {
        id: scan_u64(line, "id"),
        ok: scan(line, "ok") == Some("true"),
        summary,
        latency_ns: scan_u64(line, "latency_ns").unwrap_or(0),
        queue_ns: scan_u64(line, "queue_ns").unwrap_or(0),
        run_ns: scan_u64(line, "run_ns").unwrap_or(0),
        batched: scan_u64(line, "batched").unwrap_or(0),
        error_kind: scan(line, "kind").map(str::to_string),
    }
}

/// One request's life, on the harness's clock.
#[derive(Clone, Debug)]
pub struct Record {
    pub query: Query,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// `None`: no response arrived.
    pub recv_ns: Option<u64>,
    pub ok: bool,
    pub reply: Reply,
}

/// The requests of one serve phase and the interval it offered load in.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub records: Vec<Record>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    /// Due → response, milliseconds, of the answered requests.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| Some((r.recv_ns? - r.due_ns) as f64 / 1e6))
            .collect()
    }

    /// How late each request left, milliseconds.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| (r.sent_ns - r.due_ns) as f64 / 1e6)
            .collect()
    }

    /// Completions per second: the completions are cut, in arrival order,
    /// into [`WINDOWS`] groups of equal count and each group's rate is its
    /// count over the time it took to arrive; median and quartiles of the
    /// group rates. (Equal-time windows would quantise a slow phase: four
    /// completions per 0.1 s window read as exactly 40.0 every time.)
    pub fn throughput(&self) -> Summary {
        let mut recv: Vec<u64> = self.records.iter().filter_map(|r| r.recv_ns).collect();
        recv.sort_unstable();
        let groups = WINDOWS.min(recv.len() / 2).max(1);
        let mut from = self.start_ns;
        let rates: Vec<f64> = (1..=groups)
            .filter_map(|k| {
                let (lo, hi) = ((k - 1) * recv.len() / groups, k * recv.len() / groups);
                let until = *recv.get(hi.checked_sub(1)?)?;
                let rate = (hi - lo) as f64 / ((until.saturating_sub(from)).max(1) as f64 / 1e9);
                from = until;
                Some(rate)
            })
            .collect();
        stats::summarize(&rates)
    }

    /// Whether more requests were in the system at the arrivals of the
    /// second half than of the first (beyond doubling plus two).
    pub fn backlog_grows(&self) -> bool {
        let in_system = |i: usize| {
            let due = self.records[i].due_ns;
            self.records[..i]
                .iter()
                .filter(|r| r.recv_ns.is_none_or(|t| t > due))
                .count() as f64
        };
        let n = self.records.len();
        if n < 4 {
            return false;
        }
        let mean =
            |r: std::ops::Range<usize>| r.clone().map(in_system).sum::<f64>() / r.len() as f64;
        mean(n / 2..n) > 2.0 * mean(0..n / 2) + 2.0
    }

    /// Adds the request spans of the first [`TRACED_REQUESTS`] requests
    /// under `parent`: `request` (due → received) › `wait_send`,
    /// `in_flight` › `queue`, `run` (the response's own split, laid from
    /// the send time and clipped to the response's arrival).
    pub fn add_spans(&self, tracer: &mut Tracer, parent: Option<usize>, first_sample: u32) {
        for (i, r) in self.records.iter().take(TRACED_REQUESTS).enumerate() {
            let Some(recv) = r.recv_ns else { continue };
            let sample = first_sample + i as u32;
            let request = tracer.add("request", (r.due_ns, recv), parent, sample);
            tracer.add("wait_send", (r.due_ns, r.sent_ns), request, sample);
            let flight = tracer.add("in_flight", (r.sent_ns, recv), request, sample);
            let dequeued = (r.sent_ns + r.reply.queue_ns).min(recv);
            let done = (dequeued + r.reply.run_ns).min(recv);
            tracer.add("queue", (r.sent_ns, dequeued), flight, sample);
            tracer.add("run", (dequeued, done), flight, sample);
        }
    }
}

/// Closed loop: `conns` lock-step connections for `duration`.
pub fn closed_loop(target: &Target, conns: usize, duration: Duration) -> std::io::Result<Phase> {
    let start_ns = target.now_ns();
    let deadline = target.epoch + Duration::from_nanos(start_ns) + duration;
    let per_conn: Vec<std::io::Result<Vec<Record>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    alloc::exclude_this_thread();
                    let mut client = Client::connect(target.addr)?;
                    let mut gen = QueryGen::new(TRAFFIC_SEED, 100 + c as u64, target.traffic);
                    let mut records = Vec::new();
                    while Instant::now() < deadline {
                        let query = gen.next_query();
                        let id = (c * 1_000_000 + records.len()) as u64;
                        let sent_ns = target.now_ns();
                        let line = client.request(&target.line(query, id))?;
                        let recv_ns = target.now_ns();
                        let reply = parse_reply(&line);
                        records.push(Record {
                            query,
                            due_ns: sent_ns,
                            sent_ns,
                            recv_ns: Some(recv_ns),
                            ok: reply.id == Some(id) && target.checked(query, &reply),
                            reply,
                        });
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a closed-loop client panicked"))
            .collect()
    });
    let mut records = Vec::new();
    for r in per_conn {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.sent_ns);
    Ok(Phase {
        records,
        start_ns,
        end_ns: start_ns + duration.as_nanos() as u64,
    })
}

/// The clock the open-loop sender paces against; a fake one in tests.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until(&self, t_ns: u64);
}

struct RealClock(Instant);

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
    fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// Due times (ns from the phase start) of a Poisson process of `rate_qps`
/// over `duration_ns`, from `rng`.
pub fn poisson_schedule(rng: &mut Rng, rate_qps: f64, duration_ns: u64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = rng.exp(rate_qps);
    while ((t * 1e9) as u64) < duration_ns {
        due.push((t * 1e9) as u64);
        t += rng.exp(rate_qps);
    }
    due
}

/// Sends request `i` no earlier than `due[i]` and never reorders; returns
/// when each was actually sent. A request whose due time has passed goes
/// out at once — the schedule does not slip to spare a slow sender.
pub fn pace(clock: &impl Clock, due: &[u64], mut send: impl FnMut(usize)) -> Vec<u64> {
    due.iter()
        .enumerate()
        .map(|(i, &t)| {
            clock.sleep_until(t);
            let sent = clock.now_ns();
            send(i);
            sent
        })
        .collect()
}

/// Reads responses off `stream` until `expect()` says how many were sent
/// and all of them arrived, or a read times out.
fn receive(
    stream: TcpStream,
    clock: &RealClock,
    mut on_reply: impl FnMut(),
    expect: impl Fn() -> Option<usize>,
) -> Vec<(u64, Reply)> {
    alloc::exclude_this_thread();
    let mut got = Vec::new();
    // A short read timeout, so the loop re-checks `expect` while the
    // socket is idle (the flood's sender may stop after its last reply).
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return got;
    }
    let mut reader = BufReader::new(stream);
    // `read_until` keeps a partial line across a timed-out read.
    let mut line = Vec::new();
    let mut last_reply = Instant::now();
    while expect().is_none_or(|n| got.len() < n) {
        match reader.read_until(b'\n', &mut line) {
            Ok(n) if n > 0 && line.ends_with(b"\n") => {
                got.push((clock.now_ns(), parse_reply(&String::from_utf8_lossy(&line))));
                line.clear();
                last_reply = Instant::now();
                on_reply();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && last_reply.elapsed() < REPLY_TIMEOUT => {}
            _ => break,
        }
    }
    got
}

fn merge(
    target: &Target,
    base_ns: u64,
    queries: &[Query],
    due: &[u64],
    sent: &[u64],
    replies: Vec<(u64, Reply)>,
) -> Vec<Record> {
    let mut records: Vec<Record> = sent
        .iter()
        .enumerate()
        .map(|(i, &s)| Record {
            query: queries[i],
            due_ns: base_ns + due.get(i).copied().unwrap_or(s),
            sent_ns: base_ns + s,
            recv_ns: None,
            ok: false,
            reply: Reply::default(),
        })
        .collect();
    for (recv, reply) in replies {
        if let Some(r) = reply.id.and_then(|id| records.get_mut(id as usize)) {
            r.recv_ns = Some(base_ns + recv);
            r.ok = target.checked(r.query, &reply);
            r.reply = reply;
        }
    }
    records
}

/// Open loop: a Poisson schedule of `rate_qps` for `duration` on one
/// connection (sender thread + receiver thread).
pub fn open_loop(target: &Target, rate_qps: f64, duration: Duration) -> std::io::Result<Phase> {
    let mut rng = Rng::new(TRAFFIC_SEED, 200 + rate_qps as u64);
    let due = poisson_schedule(&mut rng, rate_qps, duration.as_nanos() as u64);
    let mut gen = QueryGen::new(TRAFFIC_SEED, 300 + rate_qps as u64, target.traffic);
    let queries: Vec<Query> = due.iter().map(|_| gen.next_query()).collect();
    let lines: Vec<String> = (0..due.len())
        .map(|i| target.line(queries[i], i as u64))
        .collect();

    let mut stream = TcpStream::connect(target.addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let base_ns = target.now_ns();
    let clock = RealClock(Instant::now());
    let total = due.len();
    let (sent, replies) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(read_half, &clock, || (), || Some(total)));
        let sender = s.spawn(|| {
            alloc::exclude_this_thread();
            let mut failed = None;
            let sent = pace(&clock, &due, |i| {
                if let Err(e) = writeln!(stream, "{}", lines[i]) {
                    failed.get_or_insert(e);
                }
            });
            failed.map_or(Ok(sent), Err)
        });
        (
            sender.join().expect("the open-loop sender panicked"),
            receiver.join().expect("the open-loop receiver panicked"),
        )
    });
    Ok(Phase {
        records: merge(target, base_ns, &queries, &due, &sent?, replies),
        start_ns: base_ns,
        end_ns: base_ns + duration.as_nanos() as u64,
    })
}

/// Flood: one connection pipelining queries for `duration`, at most
/// [`FLOOD_WINDOW`] in flight. A request is due when it is sent.
pub fn flood(target: &Target, duration: Duration) -> std::io::Result<Phase> {
    struct Flow {
        in_flight: usize,
        /// Set once the sender stops: how many requests went out.
        sent_total: Option<usize>,
        /// Set once the receiver stops (end of stream, read error, reply
        /// timeout): nothing will make room any more, so the sender must
        /// not wait for it. What went unanswered counts as failed.
        closed: bool,
    }
    let flow = Mutex::new(Flow {
        in_flight: 0,
        sent_total: None,
        closed: false,
    });
    let room = Condvar::new();
    let mut gen = QueryGen::new(TRAFFIC_SEED, 400, target.traffic);

    let mut stream = TcpStream::connect(target.addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let base_ns = target.now_ns();
    let clock = RealClock(Instant::now());
    let (sent, replies) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let replies = receive(
                read_half,
                &clock,
                || {
                    flow.lock().expect("flow lock").in_flight -= 1;
                    room.notify_one();
                },
                || flow.lock().expect("flow lock").sent_total,
            );
            flow.lock().expect("flow lock").closed = true;
            room.notify_all();
            replies
        });
        let sender = s.spawn(|| {
            alloc::exclude_this_thread();
            let mut sent: Vec<(Query, u64)> = Vec::new();
            let mut result = Ok(());
            while clock.now_ns() < duration.as_nanos() as u64 {
                let mut f = flow.lock().expect("flow lock");
                while f.in_flight >= FLOOD_WINDOW && !f.closed {
                    f = room.wait(f).expect("flow lock");
                }
                if f.closed {
                    break;
                }
                f.in_flight += 1;
                drop(f);
                let query = gen.next_query();
                let line = target.line(query, sent.len() as u64);
                sent.push((query, clock.now_ns()));
                if let Err(e) = writeln!(stream, "{line}") {
                    result = Err(e);
                    break;
                }
            }
            flow.lock().expect("flow lock").sent_total = Some(sent.len());
            result.map(|()| sent)
        });
        (
            sender.join().expect("the flood sender panicked"),
            receiver.join().expect("the flood receiver panicked"),
        )
    });
    let sent = sent?;
    let queries: Vec<Query> = sent.iter().map(|(q, _)| *q).collect();
    let times: Vec<u64> = sent.iter().map(|(_, t)| *t).collect();
    Ok(Phase {
        records: merge(target, base_ns, &queries, &[], &times, replies),
        start_ns: base_ns,
        end_ns: base_ns + duration.as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the target,
    /// sending costs a fixed time.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&self, t_ns: u64) {
            self.now.set(self.now.get().max(t_ns));
        }
    }

    #[test]
    fn the_pacer_sends_on_time_and_reports_lateness_when_sending_is_slow() {
        let clock = FakeClock { now: Cell::new(0) };
        let due = [100, 200, 210, 220, 1000];
        let send_cost = 50;
        let mut order = Vec::new();
        let sent = pace(&clock, &due, |i| {
            order.push(i);
            clock.now.set(clock.now.get() + send_cost);
        });
        assert_eq!(order, [0, 1, 2, 3, 4]);
        // 0 and 1 leave on time; 2 and 3 queue behind the 50 ns sends;
        // the gap before 4 absorbs the delay.
        assert_eq!(sent, [100, 200, 250, 300, 1000]);
        let lateness: Vec<u64> = sent.iter().zip(due).map(|(s, d)| s - d).collect();
        assert_eq!(lateness, [0, 0, 40, 80, 0]);
    }

    #[test]
    fn the_poisson_schedule_is_seeded_sorted_and_has_the_rate() {
        let a = poisson_schedule(&mut Rng::new(5, 1), 60.0, 10_000_000_000);
        let b = poisson_schedule(&mut Rng::new(5, 1), 60.0, 10_000_000_000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 10_000_000_000);
        assert!((500..700).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn replies_are_read_without_a_json_parser() {
        let line = "{\"ok\": true, \"id\": 17, \"rows\": [{\"dataset\": \"g\", \"ms\": 0.412}], \
                    \"summary\": {\"reached\": \"46782\", \"depth\": \"4\"}, \"report\": {\"rounds\": 5}, \
                    \"latency_ns\": 2200, \"queue_ns\": 200, \"run_ns\": 2000, \"worker\": 1, \"batched\": 3}";
        let r = parse_reply(line);
        assert!(r.ok);
        assert_eq!(r.id, Some(17));
        assert_eq!(
            r.summary,
            vec![
                ("reached".to_string(), "46782".to_string()),
                ("depth".to_string(), "4".to_string())
            ]
        );
        assert_eq!(
            (r.latency_ns, r.queue_ns, r.run_ns, r.batched),
            (2200, 200, 2000, 3)
        );
        let refused = parse_reply("{\"ok\": false, \"id\": 3, \"error\": {\"kind\": \"overloaded\", \"message\": \"queue full\"}}");
        assert!(!refused.ok);
        assert_eq!(refused.error_kind.as_deref(), Some("overloaded"));
        assert!(!parse_reply("garbage").ok);
    }

    #[test]
    fn the_mix_follows_its_shares() {
        let mut gen = QueryGen::new(1, 1, Traffic::Mix);
        let mut bfs = 0;
        for _ in 0..10_000 {
            let q = gen.next_query();
            bfs += usize::from(q.algo == "bfs");
            assert!(q.idx < POOL && (q.algo != "sssp" || q.idx < SSSP_SOURCES));
        }
        assert!((5800..6200).contains(&bfs), "{bfs}");
        assert_eq!(QueryGen::new(1, 1, Traffic::Flood).next_query().algo, "bfs");
    }

    #[test]
    fn throughput_is_the_median_window_and_backlog_growth_is_seen() {
        let rec = |due: u64, recv: u64| Record {
            query: Query {
                algo: "bfs",
                idx: 0,
            },
            due_ns: due,
            sent_ns: due,
            recv_ns: Some(recv),
            ok: true,
            reply: Reply::default(),
        };
        // One completion every 0.1 s.
        let steady = Phase {
            records: (1..=80)
                .map(|i| rec(i * 100_000_000 - 1_000, i * 100_000_000))
                .collect(),
            start_ns: 0,
            end_ns: 8_000_000_000,
        };
        let t = steady.throughput();
        assert_eq!((t.n, t.median, t.q1, t.q3), (8, 10.0, 10.0, 10.0));
        assert_eq!(Phase::default().throughput().median, 0.0);
        assert!(!steady.backlog_grows());
        // Responses fall further and further behind their due times.
        let choking = Phase {
            records: (0..80)
                .map(|i| rec(i * 100_000_000, i * 300_000_000 + 1_000))
                .collect(),
            start_ns: 0,
            end_ns: 8_000_000_000,
        };
        assert!(choking.backlog_grows());
    }
}

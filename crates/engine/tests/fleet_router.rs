//! The router's own pins: its resources are bounded by the shard count,
//! not the client count, and templates reach every shard through it —
//! including one that was down when the template was registered.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use engine::fleet::{serve_router, Fleet, Ring, RouterConfig};
use engine::fpopb::{Client, Reply};
use engine::{proto, Engine, EngineConfig, Priority, Request};

/// Patience for every "eventually" here; the suite passes in well under
/// a second when healthy.
const PATIENCE: Duration = Duration::from_secs(30);

fn counter(registry: &trace::Registry, name: &str) -> u64 {
    registry
        .counter_value(name)
        .unwrap_or_else(|| panic!("{name} is not registered"))
}

/// Open (accepted − closed) connections on a shard.
fn shard_open_conns(engine: &Engine) -> u64 {
    let reg = engine.session().registry();
    counter(reg, "engine_conn_accepted_total") - counter(reg, "engine_conn_closed_total")
}

/// The first request from `make(0), make(1), …` whose digest the ring of
/// two live shards routes to `shard`.
fn routed_to(shard: usize, make: impl Fn(usize) -> Request) -> Request {
    let ring = Ring::new(2);
    (0..)
        .map(make)
        .find(|req| ring.route(req.dedup_key().expect("keyed"), &[true, true]) == Some(shard))
        .expect("some request routes to every shard")
}

/// 32 clients, half binary and half text, each with requests on both
/// shards: afterwards each shard holds the router's one upstream and
/// the router has closed every client connection it accepted.
#[test]
fn router_resources_are_bounded_by_shards_not_clients() {
    let fleet = Fleet::start_default(2).expect("fleet start");
    // An `eval` under an unknown family answers at once, and its digest
    // moves with the family name.
    let eval = |i: usize| Request::Eval {
        family: format!("NoSuchFamily{i}"),
        term: "zero".into(),
    };
    let requests = [routed_to(0, eval), routed_to(1, eval)];

    let mut binary = Vec::new();
    for _ in 0..16 {
        let mut client = Client::connect(fleet.addr).expect("connect");
        client
            .stream()
            .set_read_timeout(Some(PATIENCE))
            .expect("timeout");
        for req in &requests {
            let reply = client.roundtrip(req, Priority::Normal).expect("roundtrip");
            assert!(matches!(reply, Reply::Err(..)), "got {reply:?}");
        }
        binary.push(client);
    }
    let mut text = Vec::new();
    for _ in 0..16 {
        let mut stream = TcpStream::connect(fleet.addr).expect("connect");
        stream.set_read_timeout(Some(PATIENCE)).expect("timeout");
        for req in &requests {
            let Request::Eval { family, term } = req else {
                unreachable!("evals only")
            };
            writeln!(stream, "eval {family} {term}").expect("write");
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for _ in &requests {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert!(line.starts_with("err "), "got {line:?}");
        }
        text.push(stream);
    }
    drop(binary);
    drop(text);

    let settled = || {
        let router = fleet.router_registry();
        fleet
            .shards
            .iter()
            .all(|s| shard_open_conns(&s.engine) <= 1)
            && counter(router, "engine_conn_accepted_total") == 32
            && counter(router, "engine_conn_closed_total") == 32
    };
    let deadline = Instant::now() + PATIENCE;
    while !settled() {
        assert!(
            Instant::now() < deadline,
            "router resources grew with its clients: shard open connections {:?}, \
             router accepted {} closed {}",
            fleet
                .shards
                .iter()
                .map(|s| shard_open_conns(&s.engine))
                .collect::<Vec<_>>(),
            counter(fleet.router_registry(), "engine_conn_accepted_total"),
            counter(fleet.router_registry(), "engine_conn_closed_total"),
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    fleet.stop().expect("fleet stop");
}

/// One in-process shard, bound at `addr` so it can restart there.
struct Shard {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Shard {
    fn start(addr: SocketAddr) -> Shard {
        let deadline = Instant::now() + PATIENCE;
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(l) => break l,
                Err(e) => {
                    assert!(Instant::now() < deadline, "cannot bind {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        let addr = listener.local_addr().expect("bound address");
        let engine = Arc::new(Engine::start(EngineConfig {
            snapshot_path: None,
            ..EngineConfig::default()
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            std::thread::spawn(move || proto::serve(engine, listener, stop))
        };
        Shard {
            addr,
            engine,
            stop,
            handle,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("join").expect("serve");
        self.engine.shutdown().expect("engine shutdown");
    }
}

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connect");
    client
        .stream()
        .set_read_timeout(Some(PATIENCE))
        .expect("timeout");
    client
}

fn submit_template(client: &mut Client, digest: u64) -> Reply {
    let corr = client
        .send_submit_template(digest, Priority::Normal)
        .expect("send");
    let frame = client.recv().expect("reply");
    assert_eq!(frame.corr, corr);
    engine::fpopb::decode_reply(&frame).expect("decode")
}

/// The payload without its `[checked … | cache …]` trailer, which moves
/// with warmth.
fn canonical(reply: Reply) -> String {
    match reply {
        Reply::Ok(payload) => payload
            .lines()
            .filter(|l| !l.starts_with('['))
            .collect::<Vec<_>>()
            .join("\n"),
        other => panic!("expected ok, got {other:?}"),
    }
}

fn check(i: usize) -> Request {
    Request::CheckSource {
        source: format!(
            "Family T{i}.\n  FInductive num := n_zero | n_one.\n\
             FDefinition one : num := n_one.\nEnd T{i}.\nCheck T{i}.one.\n"
        ),
    }
}

/// `RegisterTemplate` through the router registers on every live shard;
/// a routed `SubmitTemplate` answers what a direct `Submit` does; and a
/// shard that was down during a registration gets the template replayed
/// once it is re-admitted at the same address.
#[test]
fn templates_register_everywhere_and_replay_after_restart() {
    let localhost: SocketAddr = "127.0.0.1:0".parse().expect("addr");
    let mut shards = vec![Shard::start(localhost), Shard::start(localhost)];
    let router_listener = TcpListener::bind(localhost).expect("bind router");
    let router_addr = router_listener.local_addr().expect("router addr");
    let stop = Arc::new(AtomicBool::new(false));
    let router = {
        let config = RouterConfig {
            shards: shards.iter().map(|s| s.addr).collect(),
            probe_interval: Duration::from_millis(50),
        };
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_router(config, router_listener, stop))
    };
    let mut client = connect(router_addr);

    // Registered through the router: every shard answers it directly.
    let first = check(0);
    let digest = client.register_template(&first).expect("register");
    assert_eq!(Some(digest), first.dedup_key());
    let routed = canonical(submit_template(&mut client, digest));
    for shard in &shards {
        let direct = canonical(submit_template(&mut connect(shard.addr), digest));
        assert_eq!(direct, routed, "shard {} answers the template", shard.addr);
    }
    let submitted = client
        .roundtrip(&first, Priority::Normal)
        .expect("direct submit");
    assert_eq!(canonical(submitted), routed);

    // Shard 1 is down while a template it owns is registered.
    let second = routed_to(1, check);
    let digest = second.dedup_key().expect("keyed");
    let addr = shards[1].addr;
    shards.pop().expect("shard 1").stop();
    assert_eq!(client.register_template(&second).expect("register"), digest);
    shards.push(Shard::start(addr));

    // Once re-admitted, the routed submit lands on the restarted shard
    // and replays the registration ahead of it.
    let deadline = Instant::now() + PATIENCE;
    loop {
        let routed = submit_template(&mut client, digest);
        assert!(matches!(routed, Reply::Ok(_)), "routed: {routed:?}");
        if let Reply::Ok(_) = submit_template(&mut connect(addr), digest) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "restarted shard never received the template"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    drop(client);
    stop.store(true, Ordering::SeqCst);
    router.join().expect("join").expect("router");
    for shard in shards {
        shard.stop();
    }
}

//! End-to-end service throughput: `qosr load` against an in-process
//! `qosr serve` on a loopback socket — real frames, real TCP, real
//! per-connection threads, so the number is what a deployment would
//! see, not a function-call microbenchmark.
//!
//! The criterion display benches a single synchronous
//! establish/terminate round trip (the latency floor: two frames each
//! way through the reader → admission → writer pipeline). `--bench`
//! mode then runs the open-loop generator at `RATE` for `SECS` seconds
//! over `CONNECTIONS` connections on the bench world and writes the
//! resulting [`LoadReport`] into `BENCH_serve.json` at the workspace
//! root; `--quick` shortens the run for CI smoke and never rewrites the
//! committed artifact.

use criterion::Criterion;
use qosr_cli::load::{run_load, LoadOptions, LoadReport};
use qosr_cli::serve::{start, ServeOptions};
use qosr_cli::wire::{read_frame, write_frame, EstablishDef, RequestFrame, ResponseFrame};
use serde::Serialize;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;

/// Offered aggregate load in `--bench` mode, requests per second.
/// Matched to the measured capacity of the reference host, not far
/// above it: an open-loop generator that offers well beyond capacity
/// spends the (single) core enqueueing requests that only age in the
/// backlog, and the sustained number *drops*.
const RATE: f64 = 110_000.0;
/// Measured window in `--bench` mode, seconds.
const SECS: f64 = 5.0;
/// Load-generator connections. One: this host is small, and every
/// extra connection adds four threads (client sender/reader, server
/// reader/writer) competing with the admission thread for the core.
const CONNECTIONS: usize = 1;

#[derive(Serialize)]
struct ServeBenchReport {
    bench: &'static str,
    unit: &'static str,
    world: &'static str,
    max_batch: usize,
    load: LoadReport,
}

fn bench_serve(c: &mut Criterion) {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let quick = std::env::args().any(|a| a == "--quick");

    let opts = ServeOptions::default();
    let server = start(&opts).expect("start serve on 127.0.0.1:0");
    let addr = server.addr();

    // Latency floor: one client, strict request/response lockstep.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut next_id = 0u64;
        c.bench_function("serve/roundtrip", |b| {
            b.iter(|| {
                next_id += 1;
                write_frame(
                    &mut writer,
                    &RequestFrame::Establish(EstablishDef::new(next_id)),
                )
                .expect("send establish");
                writer.flush().expect("flush");
                let outcome = loop {
                    match read_frame::<_, ResponseFrame>(&mut reader).expect("recv") {
                        Some(ResponseFrame::Outcome(o)) => break o,
                        Some(_) => continue,
                        None => panic!("server closed mid-bench"),
                    }
                };
                let session = outcome.session.expect("bench world always commits");
                write_frame(
                    &mut writer,
                    &RequestFrame::Terminate {
                        id: next_id,
                        session,
                    },
                )
                .expect("send terminate");
                writer.flush().expect("flush");
                loop {
                    match read_frame::<_, ResponseFrame>(&mut reader).expect("recv") {
                        Some(ResponseFrame::Terminated { .. }) => break,
                        Some(_) => continue,
                        None => panic!("server closed mid-bench"),
                    }
                }
            })
        });
    }

    if !bench_mode {
        server.shutdown();
        return; // smoke run (cargo test / CI): no JSON
    }

    let load = LoadOptions {
        addr: addr.to_string(),
        rate: RATE,
        duration: if quick { 0.5 } else { SECS },
        connections: CONNECTIONS,
        seed: 0x5eed,
        ..LoadOptions::default()
    };
    let report = run_load(&load).expect("load run");
    println!(
        "serve: {:.0} req/s sustained ({} of {} answered), p50 {} ns, p99 {} ns, p99.9 {} ns",
        report.requests_per_sec,
        report.responses,
        report.requests,
        report.p50_ns,
        report.p99_ns,
        report.p999_ns
    );
    server.shutdown();

    if quick {
        return; // smoke numbers are not representative; keep the artifact
    }
    let out = ServeBenchReport {
        bench: "serve",
        unit: "requests/s",
        world: "bench",
        max_batch: opts.max_batch,
        load: report,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let file = std::fs::File::create(path).expect("create BENCH_serve.json");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), &out)
        .expect("serialize bench report");
    println!("-> {path}");
}

criterion::criterion_group!(benches, bench_serve);
criterion::criterion_main!(benches);

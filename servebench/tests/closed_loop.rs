//! A closed phase that outruns the sessions made before it makes more on
//! the spot, instead of going quiet before its deadline.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

use calib_core::json::Json;
use calib_servebench::config::workloads;
use calib_servebench::plan::Sessions;
use calib_servebench::wire::{run_phase, Conn, Mode, Tail};

/// Acknowledges every request at once: `drained` for `drain`, `goodbye`
/// for `bye`, `pong` for `ping`, `ok` for the rest.
fn acknowledge(line: &str) -> String {
    let v = Json::parse(line).expect("the driver sends JSON");
    let tenant = v.get("tenant").and_then(Json::as_str).unwrap_or("");
    let seq = v.get("seq").and_then(Json::as_u64).unwrap_or(0);
    let ty = match v.get("type").and_then(Json::as_str) {
        Some("ping") => return "{\"type\":\"pong\"}".to_string(),
        Some("drain") => "drained",
        Some("bye") => "goodbye",
        _ => "ok",
    };
    format!("{{\"type\":\"{ty}\",\"tenant\":\"{tenant}\",\"seq\":{seq}}}")
}

#[test]
fn a_closed_phase_never_runs_out_of_sessions() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut out = stream.try_clone().unwrap();
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            if out
                .write_all((acknowledge(&line) + "\n").as_bytes())
                .is_err()
            {
                break;
            }
        }
    });

    let workload = workloads()
        .unwrap()
        .into_iter()
        .find(|w| w.name == "deep-queue")
        .unwrap();
    let mut sessions = Sessions::new(&workload, "closed", 1);
    let mut plans = sessions.next_generation();
    let deadline = Duration::from_millis(300);
    let mut conn = Conn::connect(&addr).unwrap();
    let out = run_phase(
        &mut conn,
        &mut plans,
        Tail::DrainBye,
        Mode::Closed {
            window: workload.closed_window,
            deadline,
            slots: workload.tenants.len(),
            more: Some(&mut || sessions.next_generation()),
        },
    );
    drop(conn);
    server.join().unwrap();

    assert!(out.errors.is_empty(), "{:?}", out.errors);
    assert!(out.generated > 0, "one generation cannot fill the phase");
    assert_eq!(plans.len(), (1 + out.generated) * workload.tenants.len());
    assert!(
        out.wall_s >= deadline.as_secs_f64(),
        "stopped before the deadline"
    );
    // Every session that was opened was drained and closed.
    for (t, &touched) in out.touched.iter().enumerate() {
        if touched {
            let cut = out.cut[t] as u64;
            assert!(
                out.captured.contains_key(&(t, cut + 1)),
                "plan {t}: no drained"
            );
            assert!(
                out.captured.contains_key(&(t, cut + 2)),
                "plan {t}: no goodbye"
            );
        }
    }
}

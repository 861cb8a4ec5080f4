//! A scripted server that reports a wrong `flow` when a tenant drains: the
//! driver must count the failure and exit non-zero.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::Command;

use calib_core::json::Json;

/// Answers each request line with a well-formed reply. `drained` and
/// `goodbye` claim a flow of 1, which no tenant of the plan has.
fn scripted_reply(line: &str) -> String {
    let v = Json::parse(line).expect("the driver sends JSON");
    let ty = v.get("type").and_then(Json::as_str).unwrap_or("");
    let tenant = v.get("tenant").and_then(Json::as_str).unwrap_or("");
    let seq = match v.get("seq").and_then(Json::as_u64) {
        Some(s) => format!(",\"seq\":{s}"),
        None => String::new(),
    };
    let accounting = "\"jobs\":0,\"scheduled\":0,\"calibrations\":0,\"flow\":1,\"cost\":1,\"checker_ok\":true,\"violations\":[]";
    match ty {
        "tick" => format!(
            "{{\"type\":\"decisions\",\"tenant\":\"{tenant}\",\"now\":0,\"calibrations\":[],\"starts\":[],\"idle\":true{seq}}}"
        ),
        "drain" => format!(
            "{{\"type\":\"drained\",\"tenant\":\"{tenant}\",{accounting},\"decisions\":{{\"calibrations\":[],\"starts\":[]}}{seq}}}"
        ),
        "bye" => format!("{{\"type\":\"goodbye\",\"tenant\":\"{tenant}\",{accounting}{seq}}}"),
        "ping" => "{\"type\":\"pong\"}".to_string(),
        "metrics" => "{\"type\":\"metrics\",\"global\":{}}".to_string(),
        _ => format!("{{\"type\":\"ok\",\"tenant\":\"{tenant}\"{seq}}}"),
    }
}

#[test]
fn a_wrong_drained_flow_fails_the_run() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut out = stream.try_clone().unwrap();
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            let reply = scripted_reply(&line) + "\n";
            if out.write_all(reply.as_bytes()).is_err() {
                break;
            }
        }
    });
    let run = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            "deep-queue",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--connect", &addr])
        .output()
        .unwrap();
    server.join().unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = Json::parse(stdout.lines().last().unwrap_or_default()).expect("a result line");
    assert!(!run.status.success(), "a wrong flow must fail the run");
    assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
    assert!(last.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("flow/cost"),
        "the flow mismatch is reported: {stderr}"
    );
}

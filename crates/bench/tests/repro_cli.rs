//! The `repro` binary as a pipeline stage: a reader that closes early
//! (`repro table1 | head -1`) must not turn into a panic or a failing
//! exit status.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro");
    assert!(
        run.status.success(),
        "repro exited {:?}: {}",
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
}

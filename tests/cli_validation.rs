//! `bpc` rejects malformed frame rates with a usage error instead of
//! panicking or silently simulating a meaningless real-time constraint.

use std::process::Command;

#[test]
fn invalid_frame_rates_exit_with_usage_error() {
    for rate in ["0", "-5", "nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bpc"))
            .args(["--app", "fig1b", "--frames", "1", "--quiet", "--rate", rate])
            .output()
            .expect("spawn bpc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code();
        assert!(
            code.is_some_and(|c| c != 0 && c != 101),
            "--rate {rate}: exit {code:?}, stderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--rate {rate} panicked:\n{stderr}"
        );
        assert!(stderr.contains("--rate"), "--rate {rate}: {stderr}");
    }
}

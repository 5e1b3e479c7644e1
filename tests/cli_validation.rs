//! `bpc` rejects malformed frame rates and zero-frame runs with a usage
//! error instead of panicking or silently simulating a meaningless
//! real-time constraint.

use std::process::Command;

#[test]
fn invalid_frame_rates_exit_with_usage_error() {
    const APP: &[&str] = &["--app", "fig1b", "--frames", "1", "--quiet"];
    const SERVE: &[&str] = &["serve", "--tenants", "1", "--quiet"];
    let cases = [
        (APP, "--rate", "0"),
        (APP, "--rate", "-5"),
        (APP, "--rate", "nan"),
        (APP, "--rate", "inf"),
        (APP, "--frames", "0"),
        (SERVE, "--frames", "0"),
    ];
    for (base, flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bpc"))
            .args(base)
            .args([flag, value])
            .output()
            .expect("spawn bpc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code();
        assert_eq!(
            code,
            Some(2),
            "{base:?} {flag} {value}: exit {code:?}, stderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{base:?} {flag} {value} panicked:\n{stderr}"
        );
        assert!(stderr.contains(flag), "{base:?} {flag} {value}: {stderr}");
    }
}

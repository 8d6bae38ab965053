//! What the report binaries share: one `[--out <path>]` command line, one
//! way to fail, and one report writer, which keeps host measurements out
//! of the canonical report.
//!
//! A report binary writes one canonical `BENCH_*` file in the [`json`]
//! format, which the report gate ([`crate::regress`]) holds byte for byte.
//! Anything else it writes goes beside that file, at a [`sibling`] path.
//!
//! [`json`]: crate::json

use crate::json::{document, Obj, ID_FIELDS};

/// Parses `[--out <path>]` for `bin` and runs `full(out)`. Anything else
/// prints usage and exits 2.
pub fn main(bin: &str, default_out: &str, full: fn(&str)) {
    let usage = |msg: &str| -> ! {
        eprintln!("{bin}: {msg}");
        eprintln!("usage: {bin} [--out <path>]");
        std::process::exit(2);
    };
    let mut out = default_out.to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().unwrap_or_else(|| usage("--out requires a value")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    full(&out);
}

/// Prints `FAIL: <msg>` and exits 1.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

/// Prints a finished report row as progress and hands it back.
pub fn progress(row: Obj) -> Obj {
    println!("{}", row.inline());
    row
}

/// The file beside report `out` that ends in `suffix` instead of `.json`:
/// `BENCH_x.json` and `BENCH_x` both give `BENCH_x<suffix>`.
pub fn sibling(out: &str, suffix: &str) -> String {
    format!("{}{suffix}", out.strip_suffix(".json").unwrap_or(out))
}

/// Writes `text` to `path` and says so; a failed write fails the binary.
pub fn write(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    println!("wrote {path}");
}

/// Writes a report: every row's canonical members to `out`, and the
/// `host_*` members of each row that has some, with its id members, to
/// its `.host.json` [`sibling`].
///
/// This is the one place that knows `host_*` means measured. Every other
/// member depends only on code and seed, so `out` is byte-identical across
/// runs and hosts and the report gate compares it exactly. The host file,
/// written only when some row has host members, is never gated; its
/// header is the report header plus the host it ran on.
pub fn write_report(out: &str, header: &Obj, section: &str, rows: &[Obj]) {
    let measured = |key: &str| key.starts_with("host_");
    let canonical: Vec<Obj> = rows.iter().map(|r| r.filter(|k| !measured(k))).collect();
    write(out, &document(header, section, &canonical));
    let host_rows: Vec<Obj> = rows
        .iter()
        .filter(|r| !r.filter(measured).is_empty())
        .map(|r| r.filter(|k| measured(k) || ID_FIELDS.contains(&k)))
        .collect();
    if host_rows.is_empty() {
        return;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let host_header = header
        .clone()
        .num("nproc", nproc)
        .str("cpu", &cpu_model())
        .str("profile", profile);
    let host_out = sibling(out, ".host.json");
    write(&host_out, &document(&host_header, section, &host_rows));
}

/// The `/proc/cpuinfo` model name, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use std::path::PathBuf;

    /// A fresh directory under the system temp dir, one per test.
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("report-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test directory");
        dir
    }

    fn read(path: &str) -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn host_members_go_to_the_host_file_with_the_row_ids() {
        let dir = scratch("split");
        let out = dir.join("BENCH_t.json");
        let out = out.to_str().expect("a UTF-8 temp path");
        let rows = [
            Obj::new()
                .str("backend", "ebpf")
                .num("shards", 2)
                .num("runs", 7)
                .num("host_cpu_ns", 900),
            Obj::new()
                .str("backend", "sandbox")
                .num("shards", 1)
                .num("runs", 3),
        ];
        write_report(out, &Obj::new().num("seed", 42), "rows", &rows);

        assert_eq!(
            read(out),
            "{\n  \"seed\": 42,\n  \"rows\": [\n    \
             {\"backend\": \"ebpf\", \"shards\": 2, \"runs\": 7},\n    \
             {\"backend\": \"sandbox\", \"shards\": 1, \"runs\": 3}\n  ]\n}\n"
        );
        let host = parse(&read(&sibling(out, ".host.json"))).expect("the host file parses");
        assert_eq!(host.get("seed"), Some(&Json::Num(42.0)));
        assert!(matches!(host.get("nproc"), Some(Json::Num(n)) if *n >= 1.0));
        assert!(matches!(host.get("cpu"), Some(Json::Str(_))));
        let profile = host.get("profile");
        assert!(matches!(profile, Some(Json::Str(p)) if p == "debug" || p == "release"));
        let only_row = parse(r#"[{"backend": "ebpf", "shards": 2, "host_cpu_ns": 900}]"#);
        assert_eq!(host.get("rows"), only_row.ok().as_ref());
        std::fs::remove_dir_all(dir).expect("remove the test directory");
    }

    #[test]
    fn no_host_member_means_no_host_file() {
        let dir = scratch("canonical");
        let out = dir.join("BENCH_t.json");
        let out = out.to_str().expect("a UTF-8 temp path");
        let rows = [Obj::new().str("feature", "base").num("programs", 4)];
        write_report(out, &Obj::new(), "ladder", &rows);
        assert!(read(out).contains("{\"feature\": \"base\", \"programs\": 4}"));
        assert!(!std::path::Path::new(&sibling(out, ".host.json")).exists());
        std::fs::remove_dir_all(dir).expect("remove the test directory");
    }

    #[test]
    fn sibling_replaces_the_json_extension() {
        assert_eq!(sibling("BENCH_x.json", ".host.json"), "BENCH_x.host.json");
        assert_eq!(sibling("BENCH_x", ".host.json"), "BENCH_x.host.json");
        assert_eq!(
            sibling("d/BENCH_x.json", "_flame.txt"),
            "d/BENCH_x_flame.txt"
        );
        assert_eq!(sibling("x.txt", "_corpus.txt"), "x.txt_corpus.txt");
    }
}

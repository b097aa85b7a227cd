//! Linux process counters. A counter that cannot be read is `None` and
//! is reported as missing, never as zero.

/// Bytes this process has passed to `write`-family calls (`wchar` in
/// `/proc/self/io`), including writes that the page cache absorbs.
pub fn bytes_written() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    field(&io, "wchar:")
}

/// Peak resident set size in bytes (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    field(&status, "VmHWM:").map(|kb| kb * 1024)
}

fn field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_named_field() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t  1234 kB\n";
        assert_eq!(field(status, "VmHWM:"), Some(1234));
        assert_eq!(field("rchar: 5\nwchar: 77\n", "wchar:"), Some(77));
        assert_eq!(field("rchar: 5\n", "wchar:"), None, "absent is missing");
        assert_eq!(field("wchar: n/a\n", "wchar:"), None, "garbled is missing");
    }
}

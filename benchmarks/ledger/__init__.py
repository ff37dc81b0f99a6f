"""The repo's perf ledger: seven named workloads, end-to-end metrics from
untraced rounds and per-layer metrics from traced ones.  See README.md."""

#!/usr/bin/env python
"""Append-only bench history log and trend tables.

Usage::

    python tools/bench_history.py append [--payload BENCH_nerf.json]
                                         [--history BENCH_history.jsonl]
                                         [--rev REV] [--timestamp TS]
    python tools/bench_history.py trends [--history BENCH_history.jsonl]
                                         [--mode full|smoke]

``append`` records one entry (per-mode speedups + provenance) from a
bench payload into the JSONL history log — the log is append-only by
construction, so committed history is never rewritten.  ``trends``
renders the per-bench speedup trend table (first/latest/best + ASCII
sparkline) that ``runner top`` also embeds.

Thin CLI over :mod:`repro.obs.bench_trends`; see that module for the
entry schema.
"""

from __future__ import annotations

import argparse
import os
import sys

# Runnable straight from a checkout: the in-tree `src/` layout sits next
# to this tools/ directory.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_bench_trends():
    """Import :mod:`repro.obs.bench_trends`, adding ``src/`` if needed."""
    try:
        from repro.obs import bench_trends
    except ModuleNotFoundError:
        if os.path.isdir(_SRC) and _SRC not in sys.path:
            sys.path.insert(0, _SRC)
            from repro.obs import bench_trends
        else:
            raise
    return bench_trends


def main(argv=None) -> int:
    """CLI entry point; returns an exit code."""
    bench_trends = _import_bench_trends()
    parser = argparse.ArgumentParser(
        prog="bench_history",
        description="Append-only bench history log and trend tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    append_p = sub.add_parser("append", help="log one bench payload")
    append_p.add_argument(
        "--payload", default="BENCH_nerf.json", metavar="FILE",
        help="bench payload to record (default: BENCH_nerf.json)",
    )
    append_p.add_argument(
        "--history", default=bench_trends.DEFAULT_HISTORY, metavar="FILE",
        help=f"history log (default: {bench_trends.DEFAULT_HISTORY})",
    )
    append_p.add_argument(
        "--rev", default=None, help="revision label (default: git short rev)"
    )
    append_p.add_argument(
        "--timestamp", default=None,
        help="ISO timestamp (default: current UTC time)",
    )
    trends_p = sub.add_parser("trends", help="print the trend table")
    trends_p.add_argument(
        "--history", default=bench_trends.DEFAULT_HISTORY, metavar="FILE",
        help=f"history log (default: {bench_trends.DEFAULT_HISTORY})",
    )
    trends_p.add_argument(
        "--mode", default="full", choices=("full", "smoke"),
        help="bench mode whose speedups to trend (default: full)",
    )
    args = parser.parse_args(argv)

    if args.command == "append":
        import json

        with open(args.payload) as fh:
            payload = json.load(fh)
        entry = bench_trends.entry_from_payload(
            payload,
            rev=args.rev or bench_trends.git_rev(),
            timestamp=args.timestamp or bench_trends.utc_timestamp(),
        )
        appended = bench_trends.append_entry(args.history, entry)
        n = len(bench_trends.load_history(args.history))
        if appended:
            print(f"recorded {args.payload} into {args.history} ({n} entries)")
        else:
            print(
                f"skipped duplicate of rev {entry['rev']} "
                f"({args.history} already has its benches; {n} entries)"
            )
        return 0

    rows = bench_trends.trend_rows(
        bench_trends.load_history(args.history), mode=args.mode
    )
    print(bench_trends.format_trend_table(rows, mode=args.mode))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (| head, | grep -q) closed the pipe early:
        # that is a normal way to read a table, not an error.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)

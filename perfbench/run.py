"""Closed-loop benchmark of the agcodes public API.

    python3 perfbench/run.py --workload q9-clean --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory.  One client in one thread sends its next word only
after the previous call returns.  Every input comes from --seed, and
every word is checked against the decoder contract outside the timed
calls.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a separate instrumented
pass and writes its spans to perfbench/out/.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_package():
    """Put the checkout's src first on sys.path and import from there only."""
    if not (SRC / "agcodes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no agcodes package under {SRC}")
    sys.path.insert(0, str(SRC))
    import agcodes

    if Path(agcodes.__file__).resolve().parent != SRC / "agcodes":
        sys.exit(f"perfbench: imported agcodes from {agcodes.__file__}, not {SRC}")


def report(metrics: dict, name: str, value: float, unit: str, note: str = "") -> None:
    metrics[name] = {"value": value, "unit": unit}
    print(f"  {name:40s} {value:14.6g} {unit:10s} {note}")


def end_to_end(W, wl, seed: int, seconds: float, tally) -> dict:
    """setup_s, words_per_s, encode/decode p50/p90 and peak_rss_mb."""
    setups = [W.set_up(wl.codes) for _ in range(wl.setup_repeats)]
    codes = setups[-1][0]
    setup_speed = statistics.median(s for _, _, s in setups)
    gc.collect()
    loop = W.closed_loop(codes, wl, random.Random(f"{seed}:loop"), seconds, tally)
    words = [w for w in loop.words if w.outcome != "failed"]
    enc = [1e3 * w.encode_s for w in words]
    dec = [1e3 * w.decode_s for w in words]
    encoder = "encode_systematic" if wl.encoder == "systematic" else "encode_matrix_oracle"
    m: dict = {}
    loop_speed = statistics.median(w.speed for w in loop.words)
    report(m, "setup_s", statistics.median(t for _, t, _ in setups), "s",
           f"median of {len(setups)} set-ups of {', '.join(wl.codes)}; speed {setup_speed:.3f}")
    report(m, "words_per_s", loop.words_per_s(wl.window), "words/s",
           f"median over windows of {wl.window} words; {len(loop.words)} words; speed {loop_speed:.3f}")
    for pct in (50, 90):
        report(m, f"encode_ms_p{pct}", W.percentile(enc, pct), "ms", f"n={len(enc)} {encoder}")
    for pct in (50, 90):
        report(m, f"decode_ms_p{pct}", W.percentile(dec, pct), "ms", f"n={len(dec)} decode")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report(m, "peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process")
    return m


def per_layer(W, T, wl, seed: int, seconds: float, tally, out_path: Path) -> dict:
    """Traced pass: spans, voting counts, field-call counts, CLI rate,
    per-code breakdown and the tracing overhead."""
    from agcodes import bms, codec
    from agcodes.galois import Field

    modules = {"codec": codec, "bms": bms}
    m: dict = {}

    build = T.SpanTracer()
    with build.installed(modules):
        build.active = True
        codes, _, build_speed = W.set_up(wl.codes)
        build.active = False
    bt = build.totals(lambda _: build_speed)
    zero = (0, 0.0, 0.0)
    report(m, "bms.vanishing_ideal_basis_calls", bt.get("bms.vanishing_ideal_basis", zero)[0],
           "calls", "per set-up")
    report(m, "bms.vanishing_ideal_basis_s", bt.get("bms.vanishing_ideal_basis", zero)[1],
           "s", "per set-up")
    report(m, "geometry.construction_s",
           sum(bt.get(n, zero)[1] for n in ("geometry.enumerate_points", "geometry.defining_set")),
           "s", "enumerate_points + defining_set, per set-up")
    report(m, "codec.construction_self_s",
           sum(bt.get(f"codec.make_{k}_code", zero)[2] for k in ("curve", "hcrs", "rs")),
           "s", "self time of make_*_code, per set-up")

    gc.collect()
    plain = W.closed_loop(codes, wl, random.Random(f"{seed}:loop"), seconds, tally)
    tracer = T.SpanTracer()
    with tracer.installed(modules):
        traced = W.closed_loop(codes, wl, random.Random(f"{seed}:loop"), seconds, tally, tracer)
    tt = tracer.totals(lambda word: traced.words[word].speed)
    n = len(traced.words)
    note = f"per word, {n} traced words"
    encoder = "codec.encode_systematic" if wl.encoder == "systematic" else "codec.encode_matrix_oracle"
    report(m, "codec.encode_self_ms", 1e3 * tt.get(encoder, zero)[2] / n, "ms", f"{note}; {encoder}")
    report(m, "codec.decode_self_ms", 1e3 * tt.get("codec.decode", zero)[2] / n, "ms", note)
    report(m, "codec.syndromes_calls", tt.get("codec.syndromes", zero)[0] / n, "calls", note)
    report(m, "bms.extend_ms", 1e3 * tt.get("bms.extend", zero)[1] / n, "ms", note)
    report(m, "bms.bms_with_voting_ms", 1e3 * tt.get("bms.bms_with_voting", zero)[1] / n, "ms", note)
    report(m, "bms.bms_with_voting_self_ms", 1e3 * tt.get("bms.bms_with_voting", zero)[2] / n,
           "ms", note)
    report(m, "bms.voted_cells", traced.voted_cells / n, "cells", f"{note}; from decode stats")
    report(m, "bms.early_certificate_share",
           traced.early_certificates / max(traced.voting_decodes, 1), "share",
           f"of {traced.voting_decodes} two-dimensional decodes")
    for kind in ("dft2", "idft2", "dft1"):
        report(m, f"transform.{kind}_calls", tt.get(f"transform.{kind}", zero)[0] / n, "calls", note)
    report(m, "transform.ms",
           1e3 * sum(v[1] for k, v in tt.items() if k.startswith("transform.")) / n, "ms",
           f"{note}; dft1/idft1/dft2/idft2")
    outcomes = [w.outcome for w in traced.words]
    for kind in ("corrected", "refused", "miscorrected"):
        report(m, f"codec.decode_{kind}_share", outcomes.count(kind) / n, "share", f"of {n} decodes")

    counter = T.FieldOpCounter()
    rng = random.Random(f"{seed}:count")
    counted = wl.count_words * len(codes)
    with counter.installed(Field):
        for i in range(counted):
            W.one_word(codes[i % len(codes)], wl, rng, tally, probe=counter)
    for slot, calls in counter.counts.items():
        report(m, f"galois.{slot}_calls", calls / counted, "calls", f"per word, {counted} words")

    rows, capability = W.breakdown(random.Random(f"{seed}:breakdown"), tally)
    report(m, "cli.simulate_trials_per_s", W.cli_simulate_rate(seed, capability, tally), "1/s",
           f"agcodes simulate at t, {W.CLI_TRIALS} trials per GF(9) preset")
    for name, value in rows.items():
        code = name.rsplit(".", 1)[1]
        unit = "s" if ".build_s." in name else "ms"
        report(m, name, value, unit, f"median of {W.BREAKDOWN_WORDS[code]} words" if unit == "ms" else "one build")

    wps_plain = plain.words_per_s(wl.window)
    wps_traced = traced.words_per_s(wl.window)
    report(m, "trace.overhead_share", 1 - wps_traced / wps_plain, "share",
           f"words_per_s {wps_traced:.1f} traced vs {wps_plain:.1f} untraced")

    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)
    print(f"  spans: {len(tracer.spans)} written to {out_path.relative_to(ROOT)}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("q9-clean", "q9-noisy", "scale-trials"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    import tracer as T
    import workload as W

    wl = W.WORKLOADS[args.workload]
    tally = W.Tally()
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} {mode}; "
          f"closed loop, one client, codes {', '.join(wl.codes)}")
    if args.trace:
        out_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = per_layer(W, T, wl, args.seed, args.seconds, tally, out_path)
    else:
        metrics = end_to_end(W, wl, args.seed, args.seconds, tally)
    print(f"  failed_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} words broke the decoder contract)")
    if tally.first_error:
        print(f"perfbench: first failure: {tally.first_error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

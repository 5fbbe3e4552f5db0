#!/usr/bin/env python3
"""Validate a RunReport JSON artifact against tools/report_schema.json.

Usage:
    tools/validate_report.py report.json [--require-layers client,spatial,estimator,transport]

Implements the schema contract with the standard library only (no
jsonschema package is needed); tools/report_schema.json is the
authoritative statement of the same contract — keep the two in sync.

Every run report validates here, statusz (`lbsagg_cli --statusz`) included:
statusz is a RunReport taken mid-flight, with an empty `stats` object.

With --require-layers, additionally checks that the metric plane covers the
named layers: each layer must contribute at least one `<layer>.` counter,
except `transport`, `engine`, `service`, `timeseries`, and `introspection`,
which may instead appear as the matching sections.<layer> block (the
subsystems' JSON side-channels). This is what the CI observability job runs
against examples/flaky_service --report, examples/service_load --report,
the fig19_service run report, and statusz.json.
"""

import argparse
import json
import sys

NUMBER = (int, float)
STATS_FIELDS = ["count", "mean", "stddev", "se", "ci95_half_width", "min", "max"]


def fail(errors, path, message):
    errors.append(f"{path}: {message}")


def check_number(errors, path, value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, NUMBER):
        fail(errors, path, f"expected a number, got {type(value).__name__}")
        return
    if minimum is not None and value < minimum:
        fail(errors, path, f"expected >= {minimum}, got {value}")


def check_count(errors, path, value):
    if isinstance(value, bool) or not isinstance(value, int):
        fail(errors, path, f"expected an integer, got {type(value).__name__}")
        return
    if value < 0:
        fail(errors, path, f"expected >= 0, got {value}")


def validate(report):
    errors = []
    if not isinstance(report, dict):
        return ["top level: expected an object"]

    for key in ["schema_version", "meta", "stats", "metrics", "sections"]:
        if key not in report:
            fail(errors, "top level", f"missing required key '{key}'")
    if errors:
        return errors

    if report["schema_version"] != 1:
        fail(errors, "schema_version", f"expected 1, got {report['schema_version']!r}")

    meta = report["meta"]
    if not isinstance(meta, dict):
        fail(errors, "meta", "expected an object")
    else:
        for key, value in meta.items():
            if isinstance(value, bool) or not isinstance(value, (str, *NUMBER)):
                fail(errors, f"meta.{key}", "expected a string or number")

    stats = report["stats"]
    if not isinstance(stats, dict):
        fail(errors, "stats", "expected an object")
    else:
        for name, block in stats.items():
            path = f"stats.{name}"
            if not isinstance(block, dict):
                fail(errors, path, "expected an object")
                continue
            for field in STATS_FIELDS:
                if field not in block:
                    fail(errors, path, f"missing field '{field}'")
            if "count" in block:
                check_count(errors, f"{path}.count", block["count"])
            for field in ["stddev", "se", "ci95_half_width"]:
                if field in block:
                    check_number(errors, f"{path}.{field}", block[field], minimum=0)
            for field in ["mean", "min", "max"]:
                if field in block:
                    check_number(errors, f"{path}.{field}", block[field])

    metrics = report["metrics"]
    if not isinstance(metrics, dict):
        fail(errors, "metrics", "expected an object")
    else:
        for key in ["counters", "gauges", "histograms"]:
            if key not in metrics:
                fail(errors, "metrics", f"missing required key '{key}'")
        for name, value in metrics.get("counters", {}).items():
            check_count(errors, f"metrics.counters.{name}", value)
        for name, value in metrics.get("gauges", {}).items():
            check_number(errors, f"metrics.gauges.{name}", value)
        for name, hist in metrics.get("histograms", {}).items():
            path = f"metrics.histograms.{name}"
            if not isinstance(hist, dict):
                fail(errors, path, "expected an object")
                continue
            for field in ["count", "sum", "bounds", "buckets"]:
                if field not in hist:
                    fail(errors, path, f"missing field '{field}'")
            if "count" in hist:
                check_count(errors, f"{path}.count", hist["count"])
            if "sum" in hist:
                check_number(errors, f"{path}.sum", hist["sum"])
            bounds = hist.get("bounds", [])
            buckets = hist.get("buckets", [])
            if not isinstance(bounds, list) or not all(
                not isinstance(b, bool) and isinstance(b, NUMBER) for b in bounds
            ):
                fail(errors, f"{path}.bounds", "expected an array of numbers")
            elif bounds != sorted(bounds):
                fail(errors, f"{path}.bounds", "expected ascending bounds")
            if not isinstance(buckets, list):
                fail(errors, f"{path}.buckets", "expected an array")
            else:
                for i, b in enumerate(buckets):
                    check_count(errors, f"{path}.buckets[{i}]", b)
                if isinstance(bounds, list) and len(buckets) != len(bounds) + 1:
                    fail(
                        errors,
                        f"{path}.buckets",
                        f"expected {len(bounds) + 1} buckets "
                        f"(bounds + overflow), got {len(buckets)}",
                    )
                if "count" in hist and isinstance(hist["count"], int) and all(
                    isinstance(b, int) for b in buckets
                ):
                    if sum(buckets) != hist["count"]:
                        fail(
                            errors,
                            f"{path}.buckets",
                            f"bucket sum {sum(buckets)} != count {hist['count']}",
                        )

    sections = report["sections"]
    if not isinstance(sections, dict):
        fail(errors, "sections", "expected an object")
    else:
        if "engine" in sections:
            validate_engine_section(errors, sections["engine"])
        if "service" in sections:
            validate_service_section(errors, sections["service"])
        if "timeseries" in sections:
            validate_timeseries_section(errors, sections["timeseries"])
        if "introspection" in sections:
            validate_introspection_section(errors, sections["introspection"])

    return errors


def validate_engine_section(errors, engine):
    """The estimation engine's diagnostics_json (DESIGN.md §4.9): resolver
    diagnostics + evidence-store totals + registered aggregate count."""
    path = "sections.engine"
    if not isinstance(engine, dict):
        fail(errors, path, "expected an object")
        return
    for key in ["resolver", "evidence", "aggregates"]:
        if key not in engine:
            fail(errors, path, f"missing required key '{key}'")
    if "resolver" in engine and not isinstance(engine["resolver"], dict):
        fail(errors, f"{path}.resolver", "expected an object")
    if "aggregates" in engine:
        check_count(errors, f"{path}.aggregates", engine["aggregates"])
    evidence = engine.get("evidence")
    if evidence is not None:
        if not isinstance(evidence, dict):
            fail(errors, f"{path}.evidence", "expected an object")
        else:
            for key in ["rounds", "observations", "queries"]:
                if key not in evidence:
                    fail(errors, f"{path}.evidence", f"missing field '{key}'")
                else:
                    check_count(errors, f"{path}.evidence.{key}", evidence[key])


def validate_service_section(errors, service):
    """EstimationService::diagnostics_json (DESIGN.md §4.12): session
    lifecycle tallies + admission configuration + per-backend dedup."""
    path = "sections.service"
    if not isinstance(service, dict):
        fail(errors, path, "expected an object")
        return
    for key in ["sessions", "queued", "active", "slices", "admission",
                "dispatcher_workers", "dedup"]:
        if key not in service:
            fail(errors, path, f"missing required key '{key}'")
    sessions = service.get("sessions")
    if sessions is not None:
        if not isinstance(sessions, dict):
            fail(errors, f"{path}.sessions", "expected an object")
        else:
            for key in ["submitted", "completed", "rejected", "cancelled",
                        "deadline_exceeded"]:
                if key not in sessions:
                    fail(errors, f"{path}.sessions", f"missing field '{key}'")
                else:
                    check_count(errors, f"{path}.sessions.{key}", sessions[key])
    for key in ["queued", "active", "slices", "dispatcher_workers"]:
        if key in service:
            check_count(errors, f"{path}.{key}", service[key])
    admission = service.get("admission")
    if admission is not None:
        if not isinstance(admission, dict):
            fail(errors, f"{path}.admission", "expected an object")
        else:
            policy = admission.get("policy")
            if policy not in ("fifo", "fair_share"):
                fail(errors, f"{path}.admission.policy",
                     f"expected 'fifo' or 'fair_share', got {policy!r}")
            for key in ["queue_capacity", "max_active"]:
                if key not in admission:
                    fail(errors, f"{path}.admission", f"missing field '{key}'")
                else:
                    check_count(errors, f"{path}.admission.{key}",
                                admission[key])
    dedup = service.get("dedup")
    if dedup is not None:
        if not isinstance(dedup, list):
            fail(errors, f"{path}.dedup", "expected an array")
        else:
            for i, entry in enumerate(dedup):
                entry_path = f"{path}.dedup[{i}]"
                if not isinstance(entry, dict):
                    fail(errors, entry_path, "expected an object")
                    continue
                for key in ["entries", "lookups", "hits"]:
                    if key not in entry:
                        fail(errors, entry_path, f"missing field '{key}'")
                    else:
                        check_count(errors, f"{entry_path}.{key}", entry[key])


def validate_timeseries_section(errors, ts):
    """TimeSeriesSampler::ToJson (DESIGN.md §4.13): the sliding ring of
    per-period metric windows. The LBSAGG_OBS_DISABLED stub emits
    period_ms 0 and an empty ring, which is valid."""
    path = "sections.timeseries"
    if not isinstance(ts, dict):
        fail(errors, path, "expected an object")
        return
    for key in ["period_ms", "windows_cut", "windows"]:
        if key not in ts:
            fail(errors, path, f"missing required key '{key}'")
    if "period_ms" in ts:
        check_number(errors, f"{path}.period_ms", ts["period_ms"], minimum=0)
    if "windows_cut" in ts:
        check_count(errors, f"{path}.windows_cut", ts["windows_cut"])
    windows = ts.get("windows")
    if windows is None:
        return
    if not isinstance(windows, list):
        fail(errors, f"{path}.windows", "expected an array")
        return
    for i, w in enumerate(windows):
        wpath = f"{path}.windows[{i}]"
        if not isinstance(w, dict):
            fail(errors, wpath, "expected an object")
            continue
        for key in ["t0_ms", "t1_ms", "counters", "gauges", "histograms"]:
            if key not in w:
                fail(errors, wpath, f"missing field '{key}'")
        for key in ["t0_ms", "t1_ms"]:
            if key in w:
                check_number(errors, f"{wpath}.{key}", w[key])
        for name, value in w.get("counters", {}).items():
            check_count(errors, f"{wpath}.counters.{name}", value)
        for name, value in w.get("gauges", {}).items():
            check_number(errors, f"{wpath}.gauges.{name}", value)
        for name, digest in w.get("histograms", {}).items():
            hpath = f"{wpath}.histograms.{name}"
            if not isinstance(digest, dict):
                fail(errors, hpath, "expected an object")
                continue
            for key in ["count", "sum", "p50", "p99"]:
                if key not in digest:
                    fail(errors, hpath, f"missing field '{key}'")
            if "count" in digest:
                check_count(errors, f"{hpath}.count", digest["count"])
            for key in ["sum", "p50", "p99"]:
                if key in digest:
                    check_number(errors, f"{hpath}.{key}", digest[key])


def validate_introspection_section(errors, intro):
    """Flight-recorder tallies (FlightRecorder::StatsJson) and SLO-watchdog
    verdict counts (DESIGN.md §4.13)."""
    path = "sections.introspection"
    if not isinstance(intro, dict):
        fail(errors, path, "expected an object")
        return
    if "flight_recorder" not in intro:
        fail(errors, path, "missing required key 'flight_recorder'")
    recorder = intro.get("flight_recorder")
    if recorder is not None:
        if not isinstance(recorder, dict):
            fail(errors, f"{path}.flight_recorder", "expected an object")
        else:
            for key in ["capacity", "published", "dropped", "drained"]:
                if key not in recorder:
                    fail(errors, f"{path}.flight_recorder",
                         f"missing field '{key}'")
                else:
                    check_count(errors, f"{path}.flight_recorder.{key}",
                                recorder[key])
    watchdog = intro.get("watchdog")
    if watchdog is not None:
        if not isinstance(watchdog, dict):
            fail(errors, f"{path}.watchdog", "expected an object")
        else:
            for key in ["stalled_fired", "deadline_fired"]:
                if key not in watchdog:
                    fail(errors, f"{path}.watchdog", f"missing field '{key}'")
                else:
                    check_count(errors, f"{path}.watchdog.{key}",
                                watchdog[key])


def check_layers(report, layers):
    errors = []
    counters = report.get("metrics", {}).get("counters", {})
    sections = report.get("sections", {})
    section_layers = ("transport", "engine", "service", "timeseries",
                      "introspection")
    for layer in layers:
        covered = any(name.startswith(layer + ".") for name in counters)
        if layer in section_layers:
            covered = covered or layer in sections
        if not covered:
            errors.append(
                f"layer coverage: no '{layer}.' counters"
                + (
                    f" and no sections.{layer}"
                    if layer in section_layers
                    else ""
                )
            )
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="path to the RunReport JSON file")
    parser.add_argument(
        "--require-layers",
        default="",
        help="comma-separated layers that must appear in the metric plane",
    )
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.report}: {e}", file=sys.stderr)
        return 1

    errors = validate(report)
    layers = [l.strip() for l in args.require_layers.split(",") if l.strip()]
    if not errors and layers:
        errors = check_layers(report, layers)

    if errors:
        for error in errors:
            print(f"{args.report}: {error}", file=sys.stderr)
        return 1
    print(f"{args.report}: valid run report (schema_version 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

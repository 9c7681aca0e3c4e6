#!/usr/bin/env python3
"""Validate galliumc telemetry exports against the checked-in schemas.

Stdlib-only (no jsonschema dependency): implements the small subset of JSON
Schema the schemas in scripts/schema/ actually use — type, required,
properties, additionalProperties, items, enum, pattern, minimum — which is
enough to catch the failure modes that matter (missing fields, wrong types,
malformed metric names, negative counts).

Usage:
  validate_telemetry.py --metrics FILE.json [--trace FILE.json]
  validate_telemetry.py --trace FILE.json
  validate_telemetry.py --flight FILE.json
  validate_telemetry.py --prom FILE.prom

Beyond the schema, semantic checks:
  - metrics: each histogram's per-bucket counts sum to its total count, and
    at least one gallium_*/bench_* series exists.
  - trace: every "X" event sits on a named lane (an "M" thread_name event
    with the same tid), and per-packet hop sequences start at switch.pre.
    Every "X" event carries args.packet_id, and each packet's slices (keyed
    by lane and packet_id: ids are per worker) are time-ordered and do not
    overlap, within SLICE_TOLERANCE_US of timestamp rounding.
  - flight: version is the current dump version, event seqs are strictly
    increasing, every event's lane is inside the dump's lane count.
  - prom: the Prometheus text exposition parses line-by-line (label escaping
    round-trips), and every histogram expands to monotone cumulative
    buckets with a +Inf bucket equal to its _count series.

Exit code 0 = all supplied files validate; 1 = any violation (printed).
"""

import argparse
import json
import os
import re
import sys

SCHEMA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schema")


def check(instance, schema, path="$"):
    """Yields error strings for every violation of `schema` by `instance`."""
    stype = schema.get("type")
    if stype is not None:
        types = stype if isinstance(stype, list) else [stype]
        ok = any(_is_type(instance, t) for t in types)
        if not ok:
            yield f"{path}: expected type {stype}, got {type(instance).__name__}"
            return
    if "enum" in schema and instance not in schema["enum"]:
        yield f"{path}: {instance!r} not in enum {schema['enum']}"
    if "pattern" in schema and isinstance(instance, str):
        if not re.match(schema["pattern"], instance):
            yield f"{path}: {instance!r} does not match {schema['pattern']!r}"
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            yield f"{path}: {instance} < minimum {schema['minimum']}"
    if isinstance(instance, dict):
        for req in schema.get("required", []):
            if req not in instance:
                yield f"{path}: missing required key {req!r}"
        props = schema.get("properties", {})
        for key, value in instance.items():
            if key in props:
                yield from check(value, props[key], f"{path}.{key}")
            elif isinstance(schema.get("additionalProperties"), dict):
                yield from check(value, schema["additionalProperties"],
                                 f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            yield from check(item, schema["items"], f"{path}[{i}]")


def _is_type(instance, name):
    if name == "object":
        return isinstance(instance, dict)
    if name == "array":
        return isinstance(instance, list)
    if name == "string":
        return isinstance(instance, str)
    if name == "number":
        return isinstance(instance, (int, float)) and not isinstance(
            instance, bool)
    if name == "boolean":
        return isinstance(instance, bool)
    if name == "null":
        return instance is None
    return False


def semantic_metrics(doc):
    metrics = doc.get("metrics", [])
    if not any(m.get("name", "").startswith(("gallium", "bench")) for m in
               metrics):
        yield "metrics: no gallium_*/bench_* series found (empty scrape?)"
    for i, metric in enumerate(metrics):
        if metric.get("type") != "histogram":
            continue
        buckets = metric.get("buckets", [])
        if not buckets:
            yield f"metrics[{i}]: histogram without buckets"
            continue
        # The JSON export carries per-bucket (non-cumulative) counts; they
        # must add up to the series' total.
        total = sum(b.get("count", 0) for b in buckets)
        if total != metric.get("count"):
            yield (f"metrics[{i}] ({metric.get('name')}): bucket counts sum "
                   f"to {total}, series count is {metric.get('count')}")


# Chrome timestamps are printed in microseconds with three decimals; two
# rounded values may disagree by a few nanoseconds, far below this bound.
SLICE_TOLERANCE_US = 1.0


def semantic_trace(doc):
    events = doc.get("traceEvents", [])
    named_lanes = {e.get("tid") for e in events if e.get("ph") == "M"
                   and e.get("name") == "thread_name"}
    hops = [e for e in events if e.get("ph") == "X"]
    for i, event in enumerate(hops):
        if event.get("tid") not in named_lanes:
            yield f"traceEvents: X event {i} on unnamed lane tid={event.get('tid')}"
            break
    # Reconstruct per-packet hop sequences (hops of one packet are emitted
    # in order; packet ids count per lane, so a packet is keyed by its lane).
    # Every path starts at the switch pre-pass, except a packet served while
    # the switch was down, whose whole path is the one 'server.degraded' hop.
    paths = {}
    for event in hops:
        packet_id = event.get("args", {}).get("packet_id")
        if packet_id is not None:
            key = (event.get("pid"), event.get("tid"), packet_id)
            paths.setdefault(key, []).append(event.get("name"))
    for (_, tid, packet_id), path in paths.items():
        if path[0] == "switch.pre" or path == ["server.degraded"]:
            continue
        yield (f"packet {packet_id} on tid {tid}: path starts at "
               f"{path[0]!r}, not 'switch.pre'")
    # Every slice names its packet; one packet's slices run back to back.
    slice_end = {}
    for i, event in enumerate(hops):
        packet_id = event.get("args", {}).get("packet_id")
        if packet_id is None:
            yield f"traceEvents: X event {i} ({event.get('name')}) has no packet_id"
            continue
        key = (event.get("pid"), event.get("tid"), packet_id)
        start = event.get("ts", 0)
        if key in slice_end and start < slice_end[key] - SLICE_TOLERANCE_US:
            yield (f"packet {packet_id} on tid {event.get('tid')}: "
                   f"{event.get('name')} starts at {start}, before the "
                   f"previous slice ends at {slice_end[key]}")
        slice_end[key] = max(slice_end.get(key, start),
                             start + event.get("dur", 0))


FLIGHT_DUMP_VERSION = 1


def semantic_flight(doc):
    fr = doc.get("flight_recorder", {})
    if fr.get("version") != FLIGHT_DUMP_VERSION:
        yield (f"flight_recorder: version {fr.get('version')!r}, expected "
               f"{FLIGHT_DUMP_VERSION}")
    lanes = fr.get("lanes", 0)
    events = fr.get("events", [])
    prev_seq = -1
    for i, event in enumerate(events):
        seq = event.get("seq", -1)
        if seq <= prev_seq:
            yield (f"events[{i}]: seq {seq} not strictly increasing "
                   f"(previous {prev_seq})")
            break
        prev_seq = seq
        if event.get("lane", 0) >= lanes:
            yield f"events[{i}]: lane {event.get('lane')} >= lanes {lanes}"
            break
    recorded = fr.get("events_recorded", 0)
    if len(events) > recorded:
        yield (f"flight_recorder: {len(events)} events in dump but only "
               f"{recorded} recorded")


# Prometheus text parsing: label values escape only \\ -> \\\\, " -> \\",
# and newline -> \\n (the exposition-format spec), so a simple state machine
# suffices.
PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def parse_prom_line(line):
    """Returns (name, labels-dict, value) or raises ValueError."""
    i = 0
    name_end = i
    while name_end < len(line) and line[name_end] not in "{ \t":
        name_end += 1
    name = line[:name_end]
    if not PROM_NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    labels = {}
    i = name_end
    if i < len(line) and line[i] == "{":
        i += 1
        while i < len(line) and line[i] != "}":
            eq = line.index("=", i)
            key = line[i:eq]
            if not PROM_NAME_RE.match(key):
                raise ValueError(f"bad label name {key!r}")
            if line[eq + 1] != '"':
                raise ValueError(f"label {key!r}: value not quoted")
            j = eq + 2
            value = []
            while j < len(line):
                c = line[j]
                if c == "\\":
                    if j + 1 >= len(line):
                        raise ValueError(f"label {key!r}: dangling backslash")
                    esc = line[j + 1]
                    if esc == "n":
                        value.append("\n")
                    elif esc in ('"', "\\"):
                        value.append(esc)
                    else:
                        raise ValueError(
                            f"label {key!r}: bad escape \\{esc}")
                    j += 2
                elif c == '"':
                    break
                elif c == "\n":
                    raise ValueError(f"label {key!r}: raw newline in value")
                else:
                    value.append(c)
                    j += 1
            else:
                raise ValueError(f"label {key!r}: unterminated value")
            labels[key] = "".join(value)
            i = j + 1
            if i < len(line) and line[i] == ",":
                i += 1
        if i >= len(line) or line[i] != "}":
            raise ValueError("unterminated label set")
        i += 1
    value_str = line[i:].strip()
    if not value_str:
        raise ValueError("missing sample value")
    return name, labels, float(value_str)


def validate_prom(path):
    """Parses a Prometheus text file and checks histogram expansions."""
    errors = []
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [f"{path}: {e}"]
    samples = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            samples.append(parse_prom_line(line))
        except ValueError as e:
            errors.append(f"{path}:{lineno}: {e}")
    if not samples and not errors:
        errors.append(f"{path}: no samples found")

    # Histogram expansion: group _bucket series by (base name, non-le
    # labels); cumulative counts must be monotone, end at le="+Inf", and
    # equal the matching _count sample.
    buckets = {}
    counts = {}
    for name, labels, value in samples:
        if name.endswith("_bucket") and "le" in labels:
            rest = tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le"))
            buckets.setdefault((name[:-len("_bucket")], rest), []).append(
                (labels["le"], value))
        elif name.endswith("_count"):
            rest = tuple(sorted(labels.items()))
            counts[(name[:-len("_count")], rest)] = value
    for (base, rest), series in buckets.items():
        def le_key(le):
            return float("inf") if le == "+Inf" else float(le)
        series.sort(key=lambda kv: le_key(kv[0]))
        if series[-1][0] != "+Inf":
            errors.append(f"{path}: histogram {base}{dict(rest)}: "
                          f"no le=\"+Inf\" bucket")
            continue
        prev = 0.0
        for le, cumulative in series:
            if cumulative < prev:
                errors.append(
                    f"{path}: histogram {base}{dict(rest)}: bucket "
                    f"le={le} count {cumulative} < previous {prev}")
                break
            prev = cumulative
        total = counts.get((base, rest))
        if total is None:
            errors.append(f"{path}: histogram {base}{dict(rest)}: "
                          f"missing _count series")
        elif series[-1][1] != total:
            errors.append(
                f"{path}: histogram {base}{dict(rest)}: +Inf bucket "
                f"{series[-1][1]} != _count {total}")
    return errors


def validate(path, schema_name, semantic):
    schema_path = os.path.join(SCHEMA_DIR, schema_name)
    with open(schema_path) as f:
        schema = json.load(f)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    errors = list(check(doc, schema))
    errors += list(semantic(doc))
    return [f"{path}: {e}" for e in errors]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", help="metrics JSON (--metrics-out *.json)")
    parser.add_argument("--trace", help="trace JSON (--trace-out)")
    parser.add_argument("--flight", help="flight-recorder dump JSON "
                                         "(--flight-dump)")
    parser.add_argument("--prom", help="Prometheus text exposition "
                                       "(--metrics-out *.prom)")
    args = parser.parse_args()
    if not args.metrics and not args.trace and not args.flight \
            and not args.prom:
        parser.error("need --metrics, --trace, --flight, and/or --prom")

    errors = []
    if args.metrics:
        errors += validate(args.metrics, "metrics.schema.json",
                           semantic_metrics)
    if args.trace:
        errors += validate(args.trace, "trace.schema.json", semantic_trace)
    if args.flight:
        errors += validate(args.flight, "flight_dump.schema.json",
                           semantic_flight)
    if args.prom:
        errors += validate_prom(args.prom)
    for error in errors:
        print(f"validate_telemetry: {error}", file=sys.stderr)
    if not errors:
        checked = [p for p in (args.metrics, args.trace, args.flight,
                               args.prom) if p]
        print(f"validate_telemetry: OK ({', '.join(checked)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

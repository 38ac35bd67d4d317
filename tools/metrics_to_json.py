#!/usr/bin/env python3
"""Convert a Prometheus text exposition scrape into JSON.

Usage:
    metrics_to_json.py SOURCE [--out=OUT.json]

SOURCE is a file path, "-" for stdin, or an http:// URL (the pdm_serve
scrape endpoint). The output document::

    {
      "schema": "pdm.metrics_json.v1",
      "families": [
        {"name": ..., "help": ..., "type": "counter" | "gauge" | "histogram"
                                          | "untyped",
         "samples": [{"name": ..., "labels": {...}, "value": ...}, ...]},
        ...
      ]
    }

Sample names keep their exposition suffixes (`_bucket`/`_sum`/`_count` for
histograms), so the document round-trips everything the scrape said without
inventing structure. Values parse as float; `NaN`/`+Inf`/`-Inf` are emitted
as the strings "NaN"/"+Inf"/"-Inf" since JSON has no literals for them.

This is the offline bridge from the DESIGN.md §13 registry to anything that
speaks JSON (jq, pandas, the compare scripts' tooling); the live paths are
the Prometheus endpoint itself and the GetMetrics wire opcode.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import math
import pathlib
import sys
import urllib.request


def exit_with(message):
    """Exits 1 with `message` prefixed by the running script's name."""
    sys.exit(f"{pathlib.Path(sys.argv[0]).stem}: {message}")


def read_source(source):
    """Text of a scrape: a file path, "-" for stdin, or an http(s):// URL.

    check_metrics.py and check_recovery.py read their scrapes through this.
    """
    if source == "-":
        return sys.stdin.read()
    if source.startswith("http://") or source.startswith("https://"):
        try:
            with urllib.request.urlopen(source, timeout=30) as response:
                return response.read().decode("utf-8")
        except OSError as err:
            exit_with(f"cannot fetch {source}: {err}")
    try:
        with open(source, "r", encoding="utf-8") as fp:
            return fp.read()
    except OSError as err:
        exit_with(f"cannot read {source}: {err}")


def scrape_counter(text, name):
    """The value of the unlabeled series `name`, or None when absent."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            token = line[len(name) + 1 :].split()[0]
            try:
                return int(float(token))
            except ValueError:
                exit_with(f"bad value for {name}: {token!r}")
    return None


def unescape(text, quoted):
    """Reverses exposition escaping: \\\\, \\n, and (in label values) \\"."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if quoted and nxt == '"':
                out.append('"')
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out)


def parse_labels(text, line_no):
    """Parses the inside of `{...}` into a dict (exposition label syntax)."""
    labels = {}
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0 or eq + 1 >= len(text) or text[eq + 1] != '"':
            sys.exit(f"metrics_to_json: line {line_no}: malformed labels {text!r}")
        name = text[i:eq].strip()
        j = eq + 2
        value = []
        while j < len(text):
            if text[j] == "\\" and j + 1 < len(text):
                value.append(text[j : j + 2])
                j += 2
                continue
            if text[j] == '"':
                break
            value.append(text[j])
            j += 1
        if j >= len(text):
            sys.exit(f"metrics_to_json: line {line_no}: unterminated label value")
        labels[name] = unescape("".join(value), quoted=True)
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return labels


def parse_value(token, line_no):
    try:
        value = float(token)
    except ValueError:
        sys.exit(f"metrics_to_json: line {line_no}: bad sample value {token!r}")
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 2**53:
        return int(value)
    return value


def base_family(sample_name, families):
    """Maps a sample to its TYPE'd family, honoring histogram suffixes."""
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            stripped = sample_name[: -len(suffix)]
            if stripped in families and families[stripped]["type"] == "histogram":
                return stripped
    return None


def parse_exposition(text):
    families = {}  # name -> family dict, insertion-ordered
    order = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            kind = line[2:6]
            rest = line[7:]
            parts = rest.split(" ", 1)
            name = parts[0]
            payload = parts[1] if len(parts) > 1 else ""
            if name not in families:
                families[name] = {
                    "name": name,
                    "help": "",
                    "type": "untyped",
                    "samples": [],
                }
                order.append(name)
            if kind == "HELP":
                families[name]["help"] = unescape(payload, quoted=False)
            else:
                families[name]["type"] = payload.strip()
            continue
        if line.startswith("#"):
            continue  # comments other than HELP/TYPE are legal and ignored
        # Sample line: name[{labels}] value [timestamp]
        if "{" in line:
            name = line[: line.index("{")]
            close = line.rindex("}")
            labels = parse_labels(line[line.index("{") + 1 : close], line_no)
            remainder = line[close + 1 :].split()
        else:
            fields = line.split()
            if len(fields) < 2:
                sys.exit(f"metrics_to_json: line {line_no}: malformed sample {raw!r}")
            name = fields[0]
            labels = {}
            remainder = fields[1:]
        if not remainder:
            sys.exit(f"metrics_to_json: line {line_no}: sample without value")
        value = parse_value(remainder[0], line_no)
        family_name = base_family(name, families)
        if family_name is None:
            families[name] = {
                "name": name,
                "help": "",
                "type": "untyped",
                "samples": [],
            }
            order.append(name)
            family_name = name
        families[family_name]["samples"].append(
            {"name": name, "labels": labels, "value": value}
        )
    return [families[name] for name in order]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("source", help="scrape file, '-' for stdin, or http:// URL")
    parser.add_argument(
        "--out", default="-", help="output path (default '-' = stdout)"
    )
    args = parser.parse_args()

    document = {
        "schema": "pdm.metrics_json.v1",
        "families": parse_exposition(read_source(args.source)),
    }
    rendered = json.dumps(document, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(rendered)
    else:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())

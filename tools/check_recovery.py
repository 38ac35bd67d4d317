#!/usr/bin/env python3
"""Assert crash-consistent spill recovery across a pdm_serve kill -9 drill.

The CI chaos job runs this in three steps around a hard server kill:

    check_recovery.py snapshot SPILL_DIR --out manifest.json
        # ... kill -9 pdm_serve; restart it on the same --spill_dir ...
    check_recovery.py verify-files manifest.json SPILL_DIR
    check_recovery.py verify-scrape manifest.json SCRAPE --serve-log serve2.log

`snapshot` fingerprints every durable spill (*.snap) the killed server left
behind: size and SHA-256 per file. A drill that spilled nothing proves
nothing, so an empty directory is a hard failure, not a quiet pass.

`verify-files` runs after the restart and asserts every fingerprinted spill
still exists in the directory *byte-for-byte*. Comparison is by content
hash, not filename: adopting a spill into the restarted broker's slot table
may rename `slot-N.snap` to a new index, which is fine — losing or altering
the bytes is not. New spills written by the restarted server are ignored.

`verify-scrape` closes the loop on the restarted server's own accounting:
the RECOVERY handshake line in its log must report exactly one adoption per
fingerprinted spill (none dropped, none double-counted), and the metrics
scrape must show zero spill corruptions — recovery that quarantined a file
is data loss, and the drill must say so.

Stdlib only; no third-party dependencies. Prints "OK: ..." and exits 0, or
"FAIL: ..." and exits 1 (CI treats this as the drill's verdict).
"""

import argparse
import hashlib
import json
import pathlib
import re
import sys

import metrics_to_json

MANIFEST_SCHEMA = "pdm.spill_manifest.v1"


def fail(message):
    print(f"FAIL: {message}")
    return 1


def hash_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def spill_files(directory):
    """Durable spills only: *.snap, not *.tmp halves or *.quarantined."""
    return sorted(p for p in pathlib.Path(directory).glob("*.snap") if p.is_file())


def load_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_recovery: cannot read {path}: {err}")
    if doc.get("schema") != MANIFEST_SCHEMA:
        sys.exit(
            f"check_recovery: {path} has schema {doc.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA!r}"
        )
    if not doc.get("files"):
        sys.exit(f"check_recovery: {path} fingerprints no spills")
    return doc


def cmd_snapshot(args):
    directory = pathlib.Path(args.spill_dir)
    if not directory.is_dir():
        return fail(f"{directory} is not a directory — did pdm_serve spill at all?")
    files = spill_files(directory)
    if not files:
        return fail(
            f"{directory} holds no *.snap spills — a drill with nothing "
            "durable to recover proves nothing (lower --max_resident or "
            "drive more products)"
        )
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "spill_dir": str(directory),
        "files": [
            {"name": p.name, "bytes": p.stat().st_size, "sha256": hash_file(p)}
            for p in files
        ],
    }
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2)
        fp.write("\n")
    print(f"OK: fingerprinted {len(files)} spill(s) from {directory} into {args.out}")
    return 0


def cmd_verify_files(args):
    manifest = load_manifest(args.manifest)
    directory = pathlib.Path(args.spill_dir)
    if not directory.is_dir():
        return fail(f"{directory} is not a directory")
    # Content-addressed: adoption may have renamed slot files, so compare
    # the set of surviving byte-streams, not the filenames.
    survivors = {}
    for path in spill_files(directory):
        survivors.setdefault(hash_file(path), []).append(path.name)

    failures = []
    for entry in manifest["files"]:
        names = survivors.get(entry["sha256"])
        if not names:
            failures.append(
                f"  {entry['name']} ({entry['bytes']} bytes, sha256 "
                f"{entry['sha256'][:12]}...): no byte-identical spill survived "
                "the restart — recovery lost or altered it"
            )
    quarantined = sorted(
        p.name for p in directory.glob("*.quarantined") if p.is_file()
    )
    if quarantined:
        failures.append(
            f"  quarantined spill(s) after restart: {', '.join(quarantined)} — "
            "the durable write path tore a file"
        )
    if failures:
        print(
            f"FAIL: {len(failures)} spill durability failure(s) "
            f"({args.manifest} vs {directory}):"
        )
        print("\n".join(failures))
        return 1
    print(
        f"OK: all {len(manifest['files'])} pre-kill spill(s) survived the "
        "restart byte-for-byte (0 quarantined)"
    )
    return 0


def cmd_verify_scrape(args):
    manifest = load_manifest(args.manifest)
    expected = len(manifest["files"])
    failures = []

    if args.serve_log:
        try:
            with open(args.serve_log, "r", encoding="utf-8") as fp:
                log = fp.read()
        except OSError as err:
            sys.exit(f"check_recovery: cannot read {args.serve_log}: {err}")
        match = re.search(
            r"^RECOVERY adopted=(\d+) tmp=(\d+) corrupt=(\d+) orphans=(\d+)",
            log,
            re.MULTILINE,
        )
        if not match:
            failures.append(
                f"  {args.serve_log}: no RECOVERY handshake line — the server "
                "predates the recovery sweep; rebuild it"
            )
        else:
            adopted, _tmp, corrupt, _orphans = map(int, match.groups())
            if adopted != expected:
                failures.append(
                    f"  RECOVERY adopted={adopted}, but the manifest "
                    f"fingerprints {expected} spill(s) — the restarted fleet "
                    "did not reclaim every durable session"
                )
            if corrupt != 0:
                failures.append(
                    f"  RECOVERY corrupt={corrupt} — the sweep quarantined "
                    "spill(s) the kill should have left intact"
                )

    text = metrics_to_json.read_source(args.scrape)
    corruptions = metrics_to_json.scrape_counter(
        text, "pdm_broker_spill_corruptions_total"
    )
    if corruptions is None:
        failures.append(
            "  pdm_broker_spill_corruptions_total: missing from the scrape"
        )
    elif corruptions != 0:
        failures.append(
            f"  pdm_broker_spill_corruptions_total: {corruptions} corruption(s) "
            "detected while serving recovered sessions"
        )

    if failures:
        print(f"FAIL: {len(failures)} recovery accounting failure(s):")
        print("\n".join(failures))
        return 1
    print(
        f"OK: restarted server adopted all {expected} spill(s) with zero "
        "corruptions"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    snap = sub.add_parser("snapshot", help="fingerprint a spill directory")
    snap.add_argument("spill_dir", help="pdm_serve --spill_dir directory")
    snap.add_argument("--out", required=True, help="manifest JSON output path")
    snap.set_defaults(func=cmd_snapshot)

    files = sub.add_parser(
        "verify-files", help="assert fingerprinted spills survived byte-for-byte"
    )
    files.add_argument("manifest", help="manifest written by `snapshot`")
    files.add_argument("spill_dir", help="the same directory, after restart")
    files.set_defaults(func=cmd_verify_files)

    scrape = sub.add_parser(
        "verify-scrape", help="assert the restarted server's recovery accounting"
    )
    scrape.add_argument("manifest", help="manifest written by `snapshot`")
    scrape.add_argument("scrape", help="exposition file, '-' for stdin, or URL")
    scrape.add_argument(
        "--serve-log",
        default="",
        help="restarted pdm_serve stdout (checks the RECOVERY handshake line)",
    )
    scrape.set_defaults(func=cmd_verify_scrape)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

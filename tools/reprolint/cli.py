"""Command-line entry point: ``python -m tools.reprolint [paths...]``.

Runs all three analysis passes: pass 1 lints each file in isolation,
pass 2 builds a repo-wide symbol table over the ``repro`` package files
in the lint set and checks cross-module contracts (RPL008–RPL010,
including the ``docs/OBSERVABILITY.md`` drift gate when the doc is
present), and pass 3 checks the artifact-durability rules
(RPL017–RPL021) per file.

Every rule guards a correctness invariant, so any finding fails the
run.  Exit status (documented in ``docs/STATIC_ANALYSIS.md``):

* ``0`` — clean,
* ``1`` — at least one finding,
* ``2`` — usage error (unknown rule id, unreadable ``--obs-docs``).

``--format json`` emits one machine-readable document::

    {"schema": 3, "count": N,
     "findings": [{"path": ..., "line": ..., "col": ...,
                   "rule": ..., "message": ...}]}

Schema history: version 1 (unversioned) was ``{"findings": [...],
"count": N}``; version 2 added ``schema``, a ``fail_on`` threshold and
a per-finding ``severity``; version 3 drops the last two with the
severity ladder.  Consumers should reject documents whose ``schema``
they do not know.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from tools.reprolint.crossmod import check_project, load_project
from tools.reprolint.durability import check_durability_paths
from tools.reprolint.rules import ALL_RULES, check_paths

#: JSON output schema version.  Bump on any structural change.
JSON_SCHEMA_VERSION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Domain-invariant static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to enable, e.g. RPL002,RPL003 "
        "(default: all rules)",
    )
    parser.add_argument(
        "--no-crossmod",
        action="store_true",
        help="skip pass 2 (cross-module rules RPL008-RPL010)",
    )
    parser.add_argument(
        "--no-durability",
        action="store_true",
        help="skip pass 3 (artifact-durability rules RPL017-RPL021)",
    )
    parser.add_argument(
        "--obs-docs",
        metavar="PATH",
        default=None,
        help="observability doc checked by the RPL010 drift gate "
        "(default: docs/OBSERVABILITY.md when it exists)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule, (pragma, description) in sorted(ALL_RULES.items()):
            print(f"{rule}  (# reprolint: {pragma})  {description}")
        return 0
    select: Optional[List[str]] = None
    if args.select is not None:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in select if r not in ALL_RULES]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    findings = check_paths(args.paths, select=select)
    project = None if args.no_crossmod else load_project(args.paths)
    if project is not None and project.modules:
        obs_doc = None
        doc_path = args.obs_docs
        if doc_path is None and Path("docs/OBSERVABILITY.md").is_file():
            doc_path = "docs/OBSERVABILITY.md"
        if doc_path is not None:
            try:
                obs_doc = (doc_path, Path(doc_path).read_text(encoding="utf-8"))
            except OSError as exc:
                print(f"cannot read --obs-docs {doc_path}: {exc}", file=sys.stderr)
                return 2
        findings.extend(check_project(project, select=select, obs_doc=obs_doc))
    if not args.no_durability:
        findings.extend(check_durability_paths(args.paths, select=select))
    if args.format == "json":
        payload = {
            "schema": JSON_SCHEMA_VERSION,
            "count": len(findings),
            "findings": [f.to_dict() for f in findings],
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding)
        if findings:
            print(f"\n{len(findings)} finding(s)")
    return 1 if findings else 0

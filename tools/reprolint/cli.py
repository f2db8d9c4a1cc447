"""Command-line entry point: ``python -m tools.reprolint [paths...]``.

Runs all three analysis passes: pass 1 lints each file in isolation,
pass 2 builds a repo-wide symbol table over the ``repro`` package files
in the lint set and checks cross-module contracts (RPL008–RPL010,
including the ``docs/OBSERVABILITY.md`` drift gate when the doc is
present), and pass 3 checks the artifact-durability rules
(RPL017–RPL021) per file.

Exit status (documented in ``docs/STATIC_ANALYSIS.md``):

* ``0`` — clean, or findings exist but all fall below the ``--fail-on``
  threshold,
* ``1`` — at least one finding at or above the threshold,
* ``2`` — usage error (unknown rule id, unreadable ``--obs-docs``).

``--format json`` emits one machine-readable document::

    {"schema": 2, "count": N, "fail_on": "error",
     "findings": [{"path": ..., "line": ..., "col": ...,
                   "rule": ..., "severity": ..., "message": ...}]}

Schema history: version 1 (unversioned, PR 5) was
``{"findings": [...], "count": N}`` with no ``severity`` field;
version 2 adds the ``schema``/``fail_on`` keys and per-finding
``severity``.  Consumers should reject documents whose ``schema`` they
do not know.

``--format sarif`` emits a SARIF 2.1.0 document instead (the schema
GitHub code scanning ingests; see :mod:`tools.reprolint.sarif`), with
the same exit-code contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from tools.reprolint.crossmod import check_project, load_project
from tools.reprolint.durability import check_durability_paths
from tools.reprolint.rules import ALL_RULES, RULE_SEVERITY, check_paths
from tools.reprolint.sarif import to_sarif

#: JSON output schema version.  Bump on any structural change.
JSON_SCHEMA_VERSION = 2

#: Severity ladder for --fail-on threshold comparison.
_SEVERITY_RANK = {"warning": 0, "error": 1}


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
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text); sarif emits a SARIF "
        "2.1.0 document for GitHub code scanning",
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
        "--fail-on",
        choices=("error", "warning"),
        default="error",
        help="minimum severity that causes exit status 1; findings "
        "below the threshold are still reported (default: error)",
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
            severity = RULE_SEVERITY.get(rule, "error")
            print(f"{rule}  [{severity}]  (# reprolint: {pragma})  {description}")
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
    threshold = _SEVERITY_RANK[args.fail_on]
    failing = [
        f
        for f in findings
        if _SEVERITY_RANK[RULE_SEVERITY.get(f.rule, "error")] >= threshold
    ]
    if args.format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2))
    elif args.format == "json":
        payload = {
            "schema": JSON_SCHEMA_VERSION,
            "count": len(findings),
            "fail_on": args.fail_on,
            "findings": [
                dict(f.to_dict(), severity=RULE_SEVERITY.get(f.rule, "error"))
                for f in findings
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding)
        if findings:
            print(f"\n{len(findings)} finding(s)")
    return 1 if failing else 0

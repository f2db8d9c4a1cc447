"""SARIF 2.1.0 emitter for reprolint findings.

SARIF (Static Analysis Results Interchange Format) is the schema GitHub
code scanning ingests, so ``python -m tools.reprolint --format sarif``
lets CI annotate pull requests with findings inline.  The document is a
single run: the tool driver carries the full rule catalogue (id, help
text naming the pragma, default severity level), and each finding maps
to a ``result`` with a physical location.

Only the stable core of the spec is emitted — version, driver rules,
results with ``ruleId``/``ruleIndex``/``level``/``message``/
``locations`` — which is the subset code-scanning consumers require.
The document records its schema in the standard ``version``/``$schema``
keys; the tool's own semantic version is ``SARIF_TOOL_VERSION``, bumped
on any structural change to what reprolint emits (mirroring the JSON
envelope's ``schema`` integer).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from tools.reprolint.rules import ALL_RULES, RULE_SEVERITY, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Version reported in ``tool.driver.version``.  Major = JSON envelope
#: schema generation, minor = bumped on every rule-catalogue change.
SARIF_TOOL_VERSION = "2.5.0"

#: reprolint severity -> SARIF result level.  Both reprolint tiers map
#: onto SARIF's standard ladder (``error`` > ``warning`` > ``note``).
_LEVELS: Dict[str, str] = {"error": "error", "warning": "warning"}


def _driver_rules() -> List[Dict[str, object]]:
    """The rule catalogue, ordered by id (``ruleIndex`` contract)."""
    rules: List[Dict[str, object]] = []
    for rule_id in sorted(ALL_RULES):
        pragma, description = ALL_RULES[rule_id]
        severity = RULE_SEVERITY.get(rule_id, "error")
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": description},
                "help": {
                    "text": (
                        f"Suppress a deliberate exception with "
                        f"'# reprolint: {pragma}' on the flagged line "
                        "or the comment block above."
                    )
                },
                "defaultConfiguration": {
                    "level": _LEVELS.get(severity, "error")
                },
            }
        )
    return rules


def to_sarif(findings: Sequence[Finding]) -> Dict[str, object]:
    """A complete SARIF 2.1.0 document for ``findings``."""
    rule_index = {rule_id: i for i, rule_id in enumerate(sorted(ALL_RULES))}
    results: List[Dict[str, object]] = []
    for f in findings:
        severity = RULE_SEVERITY.get(f.rule, "error")
        result: Dict[str, object] = {
            "ruleId": f.rule,
            "level": _LEVELS.get(severity, "error"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": max(1, f.line),
                            "startColumn": max(1, f.col),
                        },
                    }
                }
            ],
        }
        if f.rule in rule_index:
            result["ruleIndex"] = rule_index[f.rule]
        results.append(result)
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA_URI,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "version": SARIF_TOOL_VERSION,
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": _driver_rules(),
                    }
                },
                "results": results,
            }
        ],
    }

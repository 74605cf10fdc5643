"""reprolint — static analysis for this repository's invariants.

Secure DIMM's security argument and this reproduction's test strategy
both rest on coding invariants no ordinary linter checks: MAC/tag
comparisons must be constant-time (SEC001), protocol control flow must
not depend on secret state, traced across the whole program (SEC003),
memory addressing on the stash/bucket hot path must be
oblivious (SEC004), nothing outside the sanctioned RNG may consume
ambient nondeterminism (DET001), cycle accounting must stay in exact
integers (DET002), and pool fan-out must be deterministic across
processes (DET003).  ``python -m repro lint`` enforces all of them;
``docs/lint.md`` documents each family, the taint-source annotation
convention, the suppression syntax, and the baseline workflow.

Public API::

    from repro.lint import lint_paths, lint_source
    result = lint_paths(["src/repro"], jobs=4)
    result.exit_code()   # 0 clean, 1 findings, 2 file errors
"""

from repro.lint.baseline import (apply_baseline, finding_key,  # noqa: F401
                                 load_baseline, render_baseline)
from repro.lint.findings import (Finding, LintError, LintResult,  # noqa: F401
                                 Severity)
from repro.lint.registry import (ProjectRule, Rule, all_rule_ids,  # noqa: F401
                                 all_rules, get_rule, register,
                                 select_rules)
from repro.lint.reporting import (SCHEMA_VERSION, render_json,  # noqa: F401
                                  render_rule_list, render_text, to_payload)
from repro.lint.runner import (iter_python_files, lint_paths,  # noqa: F401
                               lint_source)
from repro.lint.sarif import render_sarif, to_sarif  # noqa: F401

__all__ = [
    "Finding", "LintError", "LintResult", "Severity",
    "Rule", "ProjectRule", "register", "all_rules", "all_rule_ids",
    "get_rule", "select_rules",
    "lint_paths", "lint_source", "iter_python_files",
    "render_text", "render_json", "render_rule_list", "to_payload",
    "render_sarif", "to_sarif",
    "apply_baseline", "finding_key", "load_baseline", "render_baseline",
    "SCHEMA_VERSION",
]

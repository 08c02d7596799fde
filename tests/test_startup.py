"""What a CLI start imports, and the package names it leaves to first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chasekit

SRC = str(Path(__file__).resolve().parent.parent / "src")

# every name `chasekit` exported before `acyclic` and `rulesets` left the start
EXPORTED = {
    "model": ["CQ", "EGD", "TGD", "Atom", "Constant", "Instance", "LabeledNull", "NullAllocator",
              "Predicate", "Program", "UsageError", "Variable", "compare_terms"],
    "parser": ["parse_atom", "parse_instance", "parse_program", "render_program"],
    "analysis": ["RuleClass", "affected_positions", "classify", "normalize_heads"],
    "chase": ["ChaseOptions", "ChaseResult", "MemoryBudgetExceeded", "Mode", "Status",
              "apply_egd", "apply_tgd", "restricted_gcf", "run_chase", "split_ground",
              "subtree_closure"],
    "clouds": ["blocked_saturate", "canonicalize", "cloud_of"],
    "query": ["AnswerReport", "AnswerStatus", "BlockedAtomic", "certain_answers",
              "check_containment", "eval_cq"],
    "acyclic": ["enumerate_squids", "s_join_forest", "validate_squid", "verify_squid_lemma"],
    "egdsep": ["FailureCheck", "blocking_chase", "egd_failure_check", "monitor_innocuousness",
               "separated_answer"],
    "rulesets": ["GraphSpec", "builtin_program", "encode_three_colorability", "fll_rules",
                 "grid_rules"],
}

START = """
import sys
before = set(sys.modules)
import chasekit.cli
loaded = set(sys.modules) - before
print(sorted(loaded & {"dataclasses", "inspect", "chasekit.acyclic", "chasekit.rulesets"}))
import chasekit
print(chasekit.verify_squid_lemma.__module__, chasekit.builtin_program.__module__)
print(chasekit.cli.main(["classify", "--builtin", "fll"]))
"""


def test_a_cli_start_imports_no_record_generator_and_no_unused_module():
    proc = subprocess.run([sys.executable, "-S", "-c", START], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "chasekit.acyclic chasekit.rulesets"
    assert lines[2].startswith("overall: ") and lines[-1] == "0"


def test_every_exported_name_resolves_to_its_home_module():
    for module, names in EXPORTED.items():
        home = importlib.import_module("chasekit." + module)
        assert getattr(chasekit, module) is home
        for name in names:
            assert getattr(chasekit, name) is getattr(home, name), name
    namespace = {}
    exec("from chasekit import verify_squid_lemma, GraphSpec, acyclic", namespace)
    assert namespace["GraphSpec"] is chasekit.rulesets.GraphSpec
    with pytest.raises(AttributeError, match="no_such_name"):
        chasekit.no_such_name

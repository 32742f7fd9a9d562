"""The public API: what `monoculture.__all__` promises (pinned name by name),
the README imports, and the README CLI examples."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import monoculture
from monoculture.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in monoculture.__all__:
        assert getattr(monoculture, name, None) is not None, name


def test_exports_are_pinned():
    # any change to the public API shows up as a change to this list
    assert monoculture.__all__ == [
        "BracketError",
        "CandidateDistribution",
        "CandidatePool",
        "ConditionReport",
        "DominanceReport",
        "EquilibriumOutcome",
        "EstimateWithError",
        "KFirmReport",
        "NoiseSpec",
        "PoolError",
        "PoolOrDistribution",
        "RankingModelSpec",
        "ScanReport",
        "StrategySequence",
        "SweepCell",
        "ThetaStarResult",
        "TieError",
        "UnsupportedModelError",
        "UnsupportedNoiseError",
        "UtilityTable",
        "binary_counter_scan",
        "check_dominance",
        "check_monotonicity",
        "check_pref_first_position",
        "check_pref_weaker_competition",
        "classify_equilibrium",
        "conditional_order_probability",
        "exact_selection_pmf",
        "exact_sequential_utilities",
        "exact_utility_table",
        "exact_welfare",
        "find_theta_star",
        "kfirm_braess_check",
        "mallows_perm_probs",
        "mc_utility_table",
        "mc_utility_trials",
        "permutation_probabilities",
        "sample_rankings",
        "sequential_optimal_sequence",
        "sweep_plane",
        "top_two_pmf",
        "well_ordered_check",
    ]


def test_exports_have_no_duplicates():
    assert len(set(monoculture.__all__)) == len(monoculture.__all__)


def test_readme_python_blocks_import_only_exported_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "monoculture"
        for alias in node.names
    }
    assert imported, "README has no `from monoculture import` in its python blocks"
    assert imported <= set(monoculture.__all__), sorted(imported - set(monoculture.__all__))


def test_readme_cli_examples_run():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [
        shlex.split(line)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("monoculture ")
    ]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy is imported inside the functions that use it, so a process that
    # only samples or enumerates never pays for loading it
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, monoculture; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

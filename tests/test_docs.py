"""Documentation hygiene checks.

Keeps the docs honest: every module the docs reference must exist, every
public module must carry a docstring, and the deliverable files must be
present and non-trivial.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def iter_repro_modules():
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield module_info.name


ALL_MODULES = sorted(iter_repro_modules())


@pytest.mark.parametrize("name", ALL_MODULES)
def test_every_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20, f"{name} docstring is trivial"


def test_public_api_objects_documented():
    import repro.core as core

    for symbol in core.__all__:
        obj = getattr(core, symbol)
        if isinstance(obj, (str, tuple, dict)):
            continue  # constants
        assert getattr(obj, "__doc__", None), f"repro.core.{symbol} lacks a docstring"


@pytest.mark.parametrize(
    "filename",
    ["README.md", "DESIGN.md", "LICENSE", "pyproject.toml",
     "docs/ALGORITHMS.md", "docs/ARCHITECTURE.md", "docs/USAGE.md",
     "docs/SERVICE.md", "docs/OBSERVABILITY.md", "docs/ANALYSIS.md",
     "docs/STORAGE.md"],
)
def test_deliverable_files_present(filename):
    path = REPO_ROOT / filename
    assert path.exists(), filename
    assert len(path.read_text(encoding="utf-8")) > 400, f"{filename} is stubby"


def test_service_doc_lists_every_error_code_with_its_retry_verdict():
    """docs/SERVICE.md's code table against the classes of errors.py: every
    declared ``code`` (and the ``internal_error`` fallback) has a row, and
    the row's verdict is the class's ``retryable``."""
    import re

    from repro import errors

    text = (REPO_ROOT / "docs/SERVICE.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \| (\*\*yes\*\*|no) \|", text, re.M))
    declared = {"internal_error": False}
    for name in errors.__all__:
        cls = getattr(errors, name)
        if "code" in vars(cls):
            declared[cls.code] = cls.retryable
    assert set(rows) == set(declared)
    for code, retryable in declared.items():
        assert rows[code] == ("**yes**" if retryable else "no"), code


def test_service_doc_config_table_is_the_fields_of_serve_config():
    """docs/SERVICE.md's configuration table against ``ServeConfig``: one
    row per field, in field order, each with the field's default."""
    import dataclasses
    import re

    from repro.service import ServeConfig

    text = (REPO_ROOT / "docs/SERVICE.md").read_text(encoding="utf-8")
    table = text[text.index("| field | default |"):]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", table[: table.index("\n\n")], re.M)
    fields = dataclasses.fields(ServeConfig)
    assert [name for name, _ in rows] == [f.name for f in fields]
    for (name, default), field in zip(rows, fields):
        documented = eval(default, {})  # a literal
        assert documented == field.default, name


def test_design_covers_every_experiment():
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for artifact in [
        "Fig. 5",
        "Fig. 7",
        "Fig. 8",
        "Fig. 10",
        "Fig. 11",
        "Fig. 14",
        "Table 1",
    ]:
        assert artifact in text, artifact


def test_algorithm_map_mentions_all_paper_algorithms():
    text = (REPO_ROOT / "docs/ALGORITHMS.md").read_text(encoding="utf-8")
    for number in range(1, 16):
        assert f"Alg. {number}" in text or f"Algorithm {number}" in text, number


def test_readme_architecture_modules_exist():
    """Module paths named in README's architecture block must be importable."""
    for dotted in [
        "repro.graph",
        "repro.indexing",
        "repro.core",
        "repro.baseline",
        "repro.gui",
        "repro.workload",
        "repro.datasets",
        "repro.experiments",
    ]:
        importlib.import_module(dotted)


def test_version_consistency():
    import repro

    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'version = "{repro.__version__}"' in pyproject


def test_examples_directory_complete():
    examples = {p.name for p in (REPO_ROOT / "examples").glob("*.py")}
    assert {
        "quickstart.py",
        "bio_homolog_search.py",
        "social_fof.py",
        "interactive_modification.py",
        "exploratory_phom.py",
    } <= examples


def test_claims_cover_every_paper_artifact():
    """Each evaluation figure/table has a row of the claims table naming it."""
    from repro.experiments.claims import CLAIMS

    claimed = "\n".join(claim.artifact for claim in CLAIMS)
    for artifact in [
        "Figure 5",
        "Figure 6",
        "Figure 7",
        "Figure 8",
        "Figure 9",
        "Figure 10",
        "Figure 11",
        "Figure 13",
        "Figure 14",
        "Table 1",
        "Figure 15",
        "Figure 16",
        "Figure 17",
    ]:
        assert artifact in claimed, artifact

"""Whole-program tier tests: module facts, the project index, and R9.

R9 fixtures recreate the protocol seam (op registry, both dispatchers,
client) under a temp root; the gating tests prove the doctrine that a project rule stays silent unless
*every* participating module is part of the lint run.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.engine import ModuleSource, module_key
from repro.analysis.project import ModuleFacts, collect_facts
from repro.analysis.suppress import parse_suppressions

ERRORS_OK = """
class ReproError(Exception):
    code: str = "engine_error"
    retryable: bool = False


class ServiceError(ReproError):
    pass


class OverloadError(ServiceError):
    code = "overloaded"
    retryable = True


class StorageError(ServiceError):
    code = "storage_error"
"""

PROTOCOL_OK = """
from repro.errors import ReproError

OPS = ("ping", "run")
"""

DISPATCH_OK = """
def dispatch(op):
    if op == "ping":
        return {}
    if op == "run":
        return {}
    raise ValueError(op)
"""

CLIENT_OK = """
class Client:
    def request(self, op, **params):
        return {}

    def run(self):
        return self.request("run", session="s1")
"""

POOL_OK = """
_ROUTED_OPS = ("run",)


def dispatch(op):
    if op == "ping":
        return {}
    if op in _ROUTED_OPS:
        return {}
    raise ValueError(op)
"""


def write_tree(tmp_path: Path, **overrides: str) -> Path:
    files = {
        "errors.py": overrides.get("errors", ERRORS_OK),
        "service/protocol.py": overrides.get("protocol", PROTOCOL_OK),
        "service/dispatch.py": overrides.get("dispatch", DISPATCH_OK),
        "service/client.py": overrides.get("client", CLIENT_OK),
        "service/pool/dispatcher.py": overrides.get("pool", POOL_OK),
    }
    for rel, text in files.items():
        target = tmp_path / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def lint_r9(root: Path):
    return LintEngine.for_rule_ids(["R9"]).lint_paths([root])


def facts_for(src: str, path: str = "repro/service/protocol.py") -> ModuleFacts:
    text = textwrap.dedent(src)
    module = ModuleSource(
        path=Path(path),
        display=path,
        key=module_key(Path(path)),
        text=text,
        tree=ast.parse(text),
        suppressions=parse_suppressions(text),
    )
    return collect_facts(module)


class TestModuleFacts:
    def test_registries_extracted(self):
        facts = facts_for(PROTOCOL_OK)
        assert facts.str_tuples["OPS"]["values"] == ["ping", "run"]
        assert facts.imports == ["repro.errors"]
        # A tuple that is not all strings is not an op registry.
        mixed = facts_for('NAMES = ("ping", OverloadError)\nEMPTY = ()\n')
        assert mixed.str_tuples == {}

    def test_class_table_carries_bases(self):
        facts = facts_for(ERRORS_OK, "repro/errors.py")
        overload = facts.classes["OverloadError"]
        assert overload.bases == ["ServiceError"]
        assert facts.classes["ReproError"].bases == ["Exception"]

    def test_eq_and_membership_compares(self):
        facts = facts_for(POOL_OK, "repro/service/pool/dispatcher.py")
        assert {"ping"} == {
            c["value"] for c in facts.eq_compares if c["name"] == "op"
        }
        assert facts.memberships[0]["container"] == "_ROUTED_OPS"

    def test_self_calls_record_literal_and_kwargs(self):
        facts = facts_for(CLIENT_OK, "repro/service/client.py")
        call = facts.self_calls[0]
        assert call["method"] == "request"
        assert call["arg"] == "run"
        assert call["kwargs"] == ["session"]

    def test_facts_round_trip_through_json_dict(self):
        facts = facts_for(PROTOCOL_OK)
        clone = ModuleFacts.from_dict(facts.to_dict())
        assert clone.to_dict() == facts.to_dict()


class TestProtocolDriftRule:
    def test_consistent_seam_is_clean(self, tmp_path):
        assert lint_r9(write_tree(tmp_path)).ok

    def test_unhandled_op_fires_per_dispatcher(self, tmp_path):
        report = lint_r9(
            write_tree(
                tmp_path,
                protocol=PROTOCOL_OK.replace(
                    '("ping", "run")', '("ping", "run", "mystery")'
                ),
            )
        )
        hits = [v for v in report.violations if "mystery" in v.message]
        assert len(hits) == 2  # dispatch.py AND pool/dispatcher.py

    def test_unregistered_op_in_dispatcher_fires(self, tmp_path):
        report = lint_r9(
            write_tree(
                tmp_path,
                dispatch=DISPATCH_OK.replace(
                    'if op == "run":', 'if op == "runx":'
                ),
            )
        )
        assert any("runx" in v.message for v in report.violations)
        assert any("run" in v.message for v in report.violations)

    def test_client_unknown_op_fires(self, tmp_path):
        report = lint_r9(
            write_tree(
                tmp_path,
                client=CLIENT_OK.replace('self.request("run"', 'self.request("runx"'),
            )
        )
        assert any(
            "runx" in v.message and "client" in v.message
            for v in report.violations
        )

    def test_envelope_key_collision_fires(self, tmp_path):
        report = lint_r9(
            write_tree(
                tmp_path,
                client=CLIENT_OK.replace("session=", "result="),
            )
        )
        assert any("reserved envelope key" in v.message for v in report.violations)

    def test_subtree_lint_is_gated(self, tmp_path):
        # Only errors.py present: every sub-check is missing a module, so
        # R9 must not invent phantom drift about files it never saw.
        write_tree(tmp_path)
        report = LintEngine.for_rule_ids(["R9"]).lint_paths(
            [tmp_path / "repro" / "errors.py"]
        )
        assert report.ok

    def test_project_violation_respects_inline_suppression(self, tmp_path):
        drifted = PROTOCOL_OK.replace(
            'OPS = ("ping", "run")',
            'OPS = ("ping", "run", "mystery")  # boomerlint: disable=R9',
        )
        report = lint_r9(write_tree(tmp_path, protocol=drifted))
        assert report.ok
        assert report.suppressed >= 1

    def test_real_tree_seam_is_clean(self):
        import repro

        tree = Path(repro.__file__).parent
        report = LintEngine.for_rule_ids(["R9"]).lint_paths([tree])
        assert report.ok, "\n".join(v.format() for v in report.violations)

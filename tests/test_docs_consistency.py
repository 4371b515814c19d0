"""Documentation consistency: what the docs promise, the code provides."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import repro
from repro.schedulers.registry import SCHEDULERS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _submodules_with_all() -> list[str]:
    """Every ``repro`` subpackage and module (bar ``__main__``) that
    declares ``__all__``."""
    names = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        if hasattr(importlib.import_module(info.name), "__all__"):
            names.append(info.name)
    return names


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (ROOT / "README.md").read_text()

    def test_mentions_every_algorithm(self, readme):
        for name in ("Hom", "HomI", "Het", "ORROML", "OMMOML", "ODDOML", "BMM"):
            assert name in readme

    def test_quickstart_snippet_runs(self, readme):
        """The README's quickstart code block must execute as written
        (on a scaled-down grid to stay fast)."""
        match = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
        assert match, "README lacks a python quickstart block"
        code = match.group(1)
        code = code.replace("BlockGrid.paper_instance(80_000)", "BlockGrid(r=8, t=8, s=20)")
        code = code.replace(
            "memory_heterogeneous()",
            "__import__('repro.platform.generators', fromlist=['scale_platform'])"
            ".scale_platform(memory_heterogeneous(), 0.08)",
        )
        exec(compile(code, "<readme>", "exec"), {})

    def test_cli_commands_exist(self, readme):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        for cmd in re.findall(r"repro-mm (\w+)", readme):
            assert cmd in sub.choices, f"README mentions unknown subcommand {cmd!r}"


class TestDesignDoc:
    def test_every_figure_bench_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        for target in re.findall(r"benchmarks/(test_bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / target).exists(), f"DESIGN.md references missing {target}"

    def test_inventory_modules_import(self):
        text = (ROOT / "DESIGN.md").read_text()
        for mod in set(re.findall(r"`(repro\.[a-z_.]+)`", text)):
            __import__(mod)


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("module", _submodules_with_all())
    def test_submodule_exports_resolve(self, module):
        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{module}.__all__ lists missing {missing}"

    def test_registry_matches_docs(self):
        assert set(SCHEDULERS) == {
            "Hom", "HomI", "Het", "ORROML", "OMMOML", "ODDOML", "BMM", "MaxReuse1",
            "Coded", "CodedRL", "HomL", "HomIL", "HetL",
        }

    def test_version(self):
        assert repro.__version__ == "1.0.0"

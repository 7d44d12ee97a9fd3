"""The documentation site must stay structurally sound.

CI builds the real site with ``mkdocs build --strict`` (the ``docs`` job);
this suite runs the dependency-free structural subset
(:mod:`scripts.check_docs`) so a broken nav entry, a dangling link, a
non-importing autodoc target or an undocumented example fails the fast
test lane too.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

yaml = pytest.importorskip("yaml", reason="the docs checks parse mkdocs.yml")

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "scripts"))

from check_docs import DOCS, MKDOCS_YML, _nav_pages, check_docs  # noqa: E402


def test_structural_check_passes():
    problems = check_docs()
    assert not problems, "\n".join(problems)


def test_mkdocs_config_is_strict_with_material_and_mkdocstrings():
    config = yaml.safe_load(MKDOCS_YML.read_text(encoding="utf-8"))
    assert config["strict"] is True
    assert config["theme"]["name"] == "material"
    plugin_names = [p if isinstance(p, str) else next(iter(p))
                    for p in config["plugins"]]
    assert "mkdocstrings" in plugin_names


def test_site_documents_every_layer():
    nav = _nav_pages(yaml.safe_load(
        MKDOCS_YML.read_text(encoding="utf-8"))["nav"])
    for page in ("subsystems/instances.md", "subsystems/latency.md",
                 "subsystems/equilibrium.md", "subsystems/core.md",
                 "subsystems/api.md", "subsystems/study.md",
                 "subsystems/serve.md", "subsystems/scenarios.md",
                 "subsystems/analysis.md"):
        assert page in nav, f"subsystem page {page} missing from the nav"
    assert "notation.md" in nav
    assert "architecture.md" in nav


def test_architecture_page_names_all_five_layers():
    text = (DOCS / "architecture.md").read_text(encoding="utf-8")
    for module in ("repro.instances", "repro.equilibrium", "repro.api",
                   "repro.study", "repro.serve", "repro.scenarios"):
        assert module in text, f"architecture page does not mention {module}"


def test_notation_glossary_covers_the_core_symbols():
    text = (DOCS / "notation.md").read_text(encoding="utf-8")
    for symbol in ("OpTop", "MOP", "LLF", "SCALE", "SolveReport.beta",
                   "water_fill", "price_of_anarchy", "solve_elastic"):
        assert symbol in text, f"notation glossary misses {symbol}"

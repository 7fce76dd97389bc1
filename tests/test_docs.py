"""The names the documentation points at exist.

Every backticked module-qualified name in README.md (`lora.LoRABank`,
`harness.EVAL_WINDOW`, ...) and every :func: and :class: name in a
docstring under src/smolora, looked up in that docstring's module, must
resolve to an attribute, so a name cannot outlive its code unnoticed. So
must every backticked `Class.member` in README.md (`ToyModel.params`,
`LoRABank.named(prefix)`): Class must be a class defined in a smolora
module, and member one of its class attributes, dataclass fields or
`self.member` assignments.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import smolora
from smolora.harness import RunConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(smolora.__file__).resolve().parent
MODULES = ("tensor", "lora", "routing", "harness", "metrics", "benchmark", "cli")
README_NAME = re.compile(rf"`((?:{'|'.join(MODULES)})(?:\.\w+)+)")
# A file the program reads or writes (`metrics.json`, `routing.csv`) is no name.
FILE_SUFFIXES = {"json", "jsonl", "csv", "ckpt", "py"}
ROLE_NAME = re.compile(r":(?:func|class):`([\w.]+)`")
CLASS_MEMBER = re.compile(r"`([A-Z]\w*)\.(\w+)[`(]")


def _resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_resolve():
    names = {n for n in README_NAME.findall((ROOT / "README.md").read_text(encoding="utf-8"))
             if n.rsplit(".", 1)[1] not in FILE_SUFFIXES}
    assert names
    missing = [n for n in sorted(names)
               if not _resolves(importlib.import_module(f"smolora.{n.split('.')[0]}"), n.split(".", 1)[1])]
    assert not missing


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_docstring_names_resolve_in_their_module(path):
    module = importlib.import_module("smolora" if path.stem == "__init__" else f"smolora.{path.stem}")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = [ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    names = {n for doc in docs for n in ROLE_NAME.findall(doc)}
    assert not [n for n in sorted(names) if not _resolves(module, n)]


def _members(cls) -> set[str]:
    """The class attributes, dataclass fields and `self.name` assignments of cls."""
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls))
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


def _unresolved_class_members(text: str) -> list[str]:
    classes = {}
    for path in SRC.glob("*.py"):
        module = importlib.import_module("smolora" if path.stem == "__init__" else f"smolora.{path.stem}")
        classes.update((name, obj) for name, obj in vars(module).items()
                       if inspect.isclass(obj) and obj.__module__ == module.__name__)
    return [f"{c}.{m}" for c, m in sorted(set(CLASS_MEMBER.findall(text)))
            if c not in classes or m not in _members(classes[c])]


def test_readme_config_keys_are_the_run_config_fields():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"mirroring `RunConfig`\s+fields \(([^)]*)\)", text)
    assert listed
    keys = re.findall(r"`(\w+)`", listed.group(1))
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]


def test_readme_class_members_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert CLASS_MEMBER.findall(text)
    assert not _unresolved_class_members(text)


def test_class_member_check_catches_a_deleted_member():
    text = "`LayerRouting.instances` `ToyModel.params` `NoSuchClass.x` `LoRABank.named(prefix)`"
    assert _unresolved_class_members(text) == ["LayerRouting.instances", "NoSuchClass.x"]

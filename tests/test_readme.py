"""README's library section against the package it documents.

The "Library use" example runs as written, its list of top-level exports
is exactly ``leafage.__all__``, and every ``leafage.…`` name the README
spells out, or lists in parentheses after a module, resolves.
"""
import importlib
import re
from pathlib import Path

import leafage

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY_USE = README.split("## Library use\n", 1)[1].split("\n## ", 1)[0]


def resolve(dotted: str):
    """The object a dotted name reaches: a module, then its attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", LIBRARY_USE, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["explanation"].predicted_class in ("A", "B")


def test_listed_exports_are_the_top_level_api():
    listing = LIBRARY_USE.split("The top-level `leafage` package exports:", 1)[1]
    listing = listing.split("\n\n", 2)[1]
    assert set(re.findall(r"`(\w+)`", listing)) == set(leafage.__all__)
    for name in leafage.__all__:
        assert getattr(leafage, name) is not None


def test_dotted_names_resolve():
    dotted = set(re.findall(r"`(leafage(?:\.\w+)+)", README))
    assert "leafage.core.dissimilarities" in dotted
    # "`leafage.core` (`closest_enemy`, ...)" names members of a module.
    for module, members in re.findall(r"`(leafage\.\w+)` \(([^)]*)\)", README):
        dotted.update(f"{module}.{m}" for m in re.findall(r"`(\w+)`", members))
    assert "leafage.evaluation.fidelity_sphere" in dotted
    for name in sorted(dotted):
        resolve(name)

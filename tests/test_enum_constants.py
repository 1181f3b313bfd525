"""Simulator function bodies read Enum members through module constants.

On CPython 3.11 ``enum.EnumType`` defines ``__getattr__``, so reading
``RadioState.IDLE`` costs about 130 ns even though the member sits in the
class dict, against about 9 ns for a module global.  The energy ledger,
the MAC, the PSM and the routing and power layers make such reads per
frame and per radio state change, so they bind each member once at import
(``_IDLE = RadioState.IDLE``) and read the alias in their function bodies.

The guard parses every module of the simulator packages and fails on any
``<EnumClass>.<member>`` read inside a function or lambda body.  Defaults,
decorators and module- and class-level code run once and are not scanned.
Each name resolves through the module's globals, so an alias, or an
attribute of a name that is not an Enum class, passes.
"""

import ast
import enum
import importlib
import inspect
import pkgutil
import types

import pytest

import repro.power
import repro.routing
import repro.sim
import repro.traffic

_MISSING = object()


def _simulator_modules() -> list[str]:
    names = ["repro.core.energy_model", "repro.core.radio"]
    for package in (repro.sim, repro.power, repro.routing, repro.traffic):
        names.append(package.__name__)
        names.extend(
            info.name
            for info in pkgutil.walk_packages(
                package.__path__, package.__name__ + "."
            )
        )
    return names


def _resolve(node: ast.expr, namespace: dict):
    """The object a ``Name`` or dotted ``Attribute`` chain names, if static."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, _MISSING)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, namespace)
        if isinstance(owner, (types.ModuleType, type)):
            return getattr(owner, node.attr, _MISSING)
    return _MISSING


def enum_member_reads(source: str, namespace: dict) -> list[tuple[int, str]]:
    """``(line, text)`` of each Enum member read in a function or lambda body."""
    found: dict[tuple[int, int], str] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies = node.body
        elif isinstance(node, ast.Lambda):
            bodies = [node.body]
        else:
            continue
        for body in bodies:
            for read in ast.walk(body):
                if not (
                    isinstance(read, ast.Attribute) and isinstance(read.ctx, ast.Load)
                ):
                    continue
                owner = _resolve(read.value, namespace)
                if (
                    isinstance(owner, type)
                    and issubclass(owner, enum.Enum)
                    and read.attr in owner.__members__
                ):
                    found[(read.lineno, read.col_offset)] = ast.unparse(read)
    return [(line, text) for (line, _), text in sorted(found.items())]


@pytest.mark.parametrize("module_name", _simulator_modules())
def test_no_enum_member_reads_in_function_bodies(module_name):
    module = importlib.import_module(module_name)
    reads = enum_member_reads(inspect.getsource(module), vars(module))
    assert reads == [], (
        "bind these Enum members to module constants: %s"
        % ", ".join("line %d %s" % read for read in reads)
    )


def test_guard_covers_the_hot_path_modules():
    modules = set(_simulator_modules())
    for name in (
        "repro.core.energy_model",
        "repro.core.radio",
        "repro.sim.mac",
        "repro.sim.phy",
        "repro.sim.psm",
        "repro.sim.packet",
        "repro.power.odpm",
        "repro.routing.reactive",
        "repro.routing.proactive",
        "repro.traffic.cbr",
    ):
        assert name in modules


_SAMPLE = """
from enum import Enum

from repro.core import radio


class Kind(Enum):
    A = 1
    B = 2


_A = Kind.A
TABLE = {Kind.A: 1}


def decorate(value):
    return lambda fn: fn


class Holder:
    default = Kind.B

    @decorate(Kind.A)
    def method(self, kind=Kind.B):
        return kind is _A


def plain(kind, other):
    return kind is Kind.A or other.Kind.A


def nested():
    def inner(kind=Kind.B):
        return kind

    return inner


def dotted(state):
    return state is radio.RadioState.IDLE or radio.RadioModel.power


pick = lambda kind=Kind.A: kind is Kind.B
"""


def test_guard_flags_exactly_the_reads_that_run_per_call():
    """Function and lambda bodies are scanned, including a nested
    function's default (it runs per outer call) and a dotted module path;
    module- and class-level code, decorators, defaults, the alias and an
    attribute of a parameter are not flagged."""
    namespace: dict = {}
    exec(compile(_SAMPLE, "<sample>", "exec"), namespace)
    lines = _SAMPLE.splitlines()
    flagged = [
        (lines[line - 1].strip(), text)
        for line, text in enum_member_reads(_SAMPLE, namespace)
    ]
    assert flagged == [
        ("return kind is Kind.A or other.Kind.A", "Kind.A"),
        ("def inner(kind=Kind.B):", "Kind.B"),
        (
            "return state is radio.RadioState.IDLE or radio.RadioModel.power",
            "radio.RadioState.IDLE",
        ),
        ("pick = lambda kind=Kind.A: kind is Kind.B", "Kind.B"),
    ]

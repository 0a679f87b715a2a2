"""Every public module-level function of the library has a caller outside
the tests, so no operation keeps a second entry point that only tests call.

A caller is an ``ast.Name`` or ``ast.Attribute`` naming the function
anywhere in ``src/``, ``perfbench/`` or ``tools/``; a mention in a
docstring does not count. ``cli`` is not checked: click registers its
commands by decorator.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The single-case entry points that the acceptance suite calls directly:
# criterion 4 swaps, prices and checks the invariant on one pool state, and
# criterion 5 marks one trade, fits one PIN window and runs the slippage
# experiment. The pipeline runs their batched or private kernels instead.
ENTRY_POINTS = {
    "stableswap.apply_swap",
    "stableswap.marginal_price",
    "stableswap.invariant_residual",
    "metrics.trade_markout",
    "metrics.estimate_pin",
    "simulator.slippage_experiment",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _referenced_names() -> set[str]:
    names = set()
    for base in ("src", "perfbench", "tools"):
        for path in (ROOT / base).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _public_functions() -> set[str]:
    return {f"{path.stem}.{node.name}"
            for path in (ROOT / "src" / "depegwatch").glob("*.py")
            if path.stem != "cli"
            for node in _parse(path).body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def test_every_public_function_has_a_caller():
    public = _public_functions()
    assert ENTRY_POINTS <= public, "an exempt entry point no longer exists"
    referenced = _referenced_names()
    uncalled = sorted(name for name in public - ENTRY_POINTS
                      if name.split(".")[1] not in referenced)
    assert uncalled == []

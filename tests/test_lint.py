"""A lint over ``src/``: every refusal of a map fails closed on NaN.

``defect > bound`` is false on NaN, so a check spelled that way passes a NaN
defect, and Python's ``max`` passes over a NaN that is not its first
argument.  Outside the pinned sites below, the lint refuses

* a ``raise ReconstructionError`` outside ``_require``, the one refusal
  path of the recovery stages, and a write of ``found["witness"]`` outside
  ``_run``, which takes the witness from the error;
* a ``<`` or ``>`` comparison against a check bound (a ``*_TOL`` name,
  ``PHASE_CUTOFF``, ``BOUND_SLACK`` or ``tol``) that is not the operand of
  ``not``; the masks ``ZERO_NORM_CUTOFF`` and ``GAUGE_CUTOFF`` are not bounds;
* a builtin ``max(`` or an ``np.fmax`` in ``recover.py`` or ``extension.py``;
* in those two files, a hand-written full pass over a stack of queries: a
  comprehension that calls ``phi``, or a ``for`` loop whose whole body is one
  assignment that calls ``phi``.  A stage that asks every sample asks through
  ``EffectMapOracle.answers``; the loops that check between queries (the
  identity walk, the preservation probe, the rebuild's basis and phase loops)
  have other statements in their bodies.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "effectsym"
BOUNDS = {"PHASE_CUTOFF", "BOUND_SLACK", "tol"}
FOLD_FILES = {"recover.py", "extension.py"}

# ROADMAP item 1's three sites, left for a benchmark change that retires them: the
# identity walk's max fold and dev > PROBE_TOL, verify_descriptor's max fold, and the
# preservation probe's in-loop skew > PROBE_TOL.
PINNED = {
    ("extension.py", "_identity_walk"): ["max", "<>"],
    ("recover.py", "verify_descriptor"): ["max"],
    ("recover.py", "preservation_probe"): ["<>"],
}


def _nodes(node, func=None):
    """(node, its parent, the name of the function it is in) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield child, node, func
        yield from _nodes(child, child.name if isinstance(child, ast.FunctionDef) else func)


def _calls_phi(node) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "phi"
               for n in ast.walk(node))


def _asks_one_at_a_time(node) -> bool:
    """A comprehension that calls ``phi``, or a ``for`` loop whose body is one assignment calling it."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return _calls_phi(node)
    return (isinstance(node, ast.For) and len(node.body) == 1
            and isinstance(node.body[0], (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _calls_phi(node.body[0]))


def _is_bound(node) -> bool:
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
    return name.endswith("_TOL") or name in BOUNDS


def _lint(source: str, file: str) -> list[tuple[str, str, int]]:
    """(function, kind, line) of every site of ``source``, read as ``src/effectsym/<file>``,
    that the lint refuses, in source order."""
    out = []
    for node, parent, func in _nodes(ast.parse(source)):
        if isinstance(node, ast.Raise) and func != "_require":
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ReconstructionError":
                out.append((func, "raise", node.lineno))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and func != "_run":
            if ast.unparse(node) == "found['witness']":
                out.append((func, "witness", node.lineno))
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Lt, ast.Gt)) for op in node.ops):
            negated = isinstance(parent, ast.UnaryOp) and isinstance(parent.op, ast.Not)
            if not negated and any(_is_bound(n) for side in (node.left, *node.comparators) for n in ast.walk(side)):
                out.append((func, "<>", node.lineno))
        elif isinstance(node, ast.Call) and file in FOLD_FILES:
            f = node.func
            if isinstance(f, ast.Name) and f.id == "max" or isinstance(f, ast.Attribute) and f.attr == "fmax":
                out.append((func, "max", node.lineno))
        if file in FOLD_FILES and _asks_one_at_a_time(node):
            out.append((func, "ask", node.lineno))
    return out


def test_src_fails_closed_lint():
    sites, lines = {}, []
    for path in sorted(SRC.glob("*.py")):
        for func, kind, line in _lint(path.read_text(encoding="utf-8"), path.name):
            sites.setdefault((path.name, func), []).append(kind)
            lines.append(f"{path.name}:{line} in {func}: {kind}")
    assert sites == PINNED, "\n".join(lines)


@pytest.mark.parametrize("file, source, kinds", [
    ("recover.py", "def _verify():\n    if residual > tol:\n        raise ReconstructionError('r')\n",
     ["<>", "raise"]),
    ("effects.py", "def as_effect(w):\n    if w[0] < -DEFAULT_TOL or w[-1] > 1.0 + DEFAULT_TOL:\n        pass\n",
     ["<>", "<>"]),
    ("extension.py", "def f(a, b):\n    return max(a, b), np.fmax(a, b)\n", ["max", "max"]),
    ("recover.py", "def _chain(found):\n    found['witness'] = found['probe'] = 1\n", ["witness"]),
    ("recover.py", "def _require():\n    raise ReconstructionError('r')\n", []),
    ("recover.py", "def _run(found, err):\n    found['witness'] = err.witness\n", []),
    ("effects.py", "def f(w, tol):\n    return not (-DEFAULT_TOL <= w and w <= 1.0 + tol), not 0 < tol < inf\n", []),
    ("extension.py", "def f(norms):\n    return norms < ZERO_NORM_CUTOFF, np.max(norms)\n", []),
    ("suites.py", "def f(a):\n    return max(1, a)\n", []),
    ("recover.py", "def verify_descriptor(phi, samples):\n    return np.array([phi(a) for a in samples])\n",
     ["ask"]),
    ("recover.py", "def f(phi, x):\n    return tuple(phi(a) for a in x), {k: phi(a) for k, a in x}\n",
     ["ask", "ask"]),
    ("recover.py", "def f(phi, images, inputs):\n    for k in range(4, 9):\n        images[k] = phi(inputs[k])\n",
     ["ask"]),
    ("extension.py", "def _extend(phi, answers, units, small):\n    for k, j in zip(*np.nonzero(~small)):\n"
     "        answers[k, j] = phi(units[k, j])\n", ["ask"]),
    ("recover.py", "def f(phi, images, inputs, frame):\n    for i in range(3):\n"
     "        img = images[i] = phi(inputs[i])\n        frame.append(img)\n", []),
    ("recover.py", "def f(phi, stack, images):\n    images[4:] = phi.answers(stack[4:])\n    return phi(stack[0])\n",
     []),
    ("extension.py", "def answers(self, stack):\n    return np.array([self(m) for m in stack])\n", []),
    ("suites.py", "def f(phi, x):\n    return [phi(a) for a in x]\n", []),
], ids=["reverted-verify", "old-as-effect", "max-folds", "witness-in-a-chain", "the-refusal-path",
        "the-runner", "negated", "mask-and-np-max", "max-outside-recover-and-extension",
        "asking-comprehension", "generator-and-dict-asks", "reverted-rebuild-checks", "reverted-extend",
        "a-loop-that-checks-between-queries", "asking-through-answers", "answers-itself",
        "asking-comprehension-outside-recover-and-extension"])
def test_fails_closed_lint_flags_each_spelling(file, source, kinds):
    assert [kind for _, kind, _ in _lint(source, file)] == kinds

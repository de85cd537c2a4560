"""Every top-level definition of the library is reachable from a command.

The walk starts at what cli.py runs on import, other than its imports and
definitions: the `__main__` call of main. It follows names module by
module: a bare name through the module's own definitions and its
`from .m import x` lines, and `alias.name` through `from . import m as
alias`. A definition the walk reaches is walked whole: decorators,
defaults, annotations and body; the first one reached in a module also
walks what that module runs on import. So a function parameter named like
another module's function reaches nothing, and a definition that only a
test or a `verify` check calls is reported.

verify.py is left out: its checks and reference implementations are the
oracles behind the `verify` command, and what only they call belongs in
verify.py too. cmd_verify imports it inside the function, a binding the
walk does not follow.
"""

import ast
from pathlib import Path

import embedlab

PACKAGE = Path(embedlab.__file__).parent
ORACLES = "verify"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Assign, ast.AnnAssign)


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    return [n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def unreachable(sources: dict) -> list:
    """'module.name' of every top-level definition outside ORACLES that no
    walk reaches; sources maps each module's name to its source text."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    # per module, each top-level name -> (module, name); (module, None)
    # is a module bound by `from . import m`
    scopes, defs = {}, {}
    for m, tree in trees.items():
        scope = scopes[m] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name in trees:
                        target = (a.name, None)
                    else:
                        target = (node.module or "__init__", a.name)
                    scope[a.asname or a.name] = target
            elif isinstance(node, DEFINITIONS):
                for name in _defined_names(node):
                    scope[name] = (m, name)
                    if m != ORACLES:
                        defs[m, name] = node
    todo, entered, seen = [], set(), set()

    def enter(m):
        """Walk what module m runs on import, once."""
        if m not in entered:
            entered.add(m)
            todo.extend((m, node) for node in trees[m].body if not isinstance(
                node, DEFINITIONS + (ast.Import, ast.ImportFrom)))

    def reach(key):
        if key in defs and key not in seen:
            seen.add(key)
            enter(key[0])
            todo.append((key[0], defs[key]))

    enter("cli")

    while todo:
        m, node = todo.pop()
        scope = scopes[m]
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                    and sub.id in scope):
                reach(scope[sub.id])
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and scope.get(sub.value.id, (None, ""))[1] is None):
                reach((scope[sub.value.id][0], sub.attr))
    return sorted(f"{m}.{name}" for m, name in defs if (m, name) not in seen)


def test_every_library_definition_is_reachable_from_a_command():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert "cli" in sources and ORACLES in sources
    assert unreachable(sources) == []


SYNTHETIC = {
    "__init__": '__version__ = "0"\n',
    "cli": (
        "from . import __version__\n"
        "from . import core as c\n"
        "from .chain import run\n"
        "\n"
        "def main():\n"
        "    return run(c.step, __version__)\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    main()\n"),
    "core": (
        "LIMIT, UNUSED = 3, 4\n"
        "\n"
        "def step(x):\n"
        "    return min(x, LIMIT)\n"
        "\n"
        "def predict(x):\n"
        "    return x\n"),
    # predict is a parameter here, not core.predict
    "chain": (
        "def run(predict, x):\n"
        "    return predict(x)\n"
        "\n"
        "def only_tested(x: int) -> int:\n"
        "    return x\n"),
    ORACLES: (
        "from .core import predict\n"
        "from .chain import only_tested\n"
        "\n"
        "def check():\n"
        "    return predict(only_tested(1))\n"),
}


def test_walk_flags_what_only_oracles_or_namesakes_reach():
    assert unreachable(SYNTHETIC) == ["chain.only_tested", "core.UNUSED",
                                      "core.predict"]
    # once the command calls core.predict in place of core.step, predict is
    # reachable, and step and the constant only step reads are not
    calls = dict(SYNTHETIC, cli=SYNTHETIC["cli"].replace(
        "run(c.step,", "run(c.predict,"))
    assert unreachable(calls) == ["chain.only_tested", "core.LIMIT",
                                  "core.UNUSED", "core.step"]
